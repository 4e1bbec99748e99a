package phdist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The references the live code is held to: a dense generator written as a
// literal, the dense LU solve the back-substitution replaced, and the
// pairwise convolution ConvolveAll replaced. Matrices are flat row-major
// n×n slices.

// dense builds a PH from a dense row-major n×n sub-generator through New,
// one entry for every non-zero cell in row-major order: the floats a
// dense literal always wrote.
func dense(alpha []float64, n int, data []float64) (*PH, error) {
	if len(data) != n*n {
		panic(fmt.Sprintf("dense: %d values for %dx%d", len(data), n, n))
	}
	var entries []Entry
	for k, v := range data {
		if v != 0 {
			entries = append(entries, Entry{I: k / n, J: k % n, V: v})
		}
	}
	return New(alpha, entries)
}

// mustDense is dense for statically known-valid generators.
func mustDense(t *testing.T, alpha []float64, n int, data []float64) *PH {
	t.Helper()
	p, err := dense(alpha, n, data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// denseA expands p's sparse rows into the dense n×n sub-generator.
func denseA(p *PH) []float64 {
	n := p.Order()
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = p.diag[i]
		cols, vals := p.row(i)
		for k, c := range cols {
			a[i*n+int(c)] = vals[k]
		}
	}
	return a
}

// identical reports the first difference between two representations,
// bit for bit: the initial vector, the diagonal, and every row's columns
// and rates.
func identical(got, want *PH) error {
	if got.Order() != want.Order() {
		return fmt.Errorf("order %d, want %d", got.Order(), want.Order())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want.alpha {
		if !same(got.alpha[i], want.alpha[i]) {
			return fmt.Errorf("alpha[%d] = %v, want %v", i, got.alpha[i], want.alpha[i])
		}
		if !same(got.diag[i], want.diag[i]) {
			return fmt.Errorf("A[%d][%d] = %v, want %v", i, i, got.diag[i], want.diag[i])
		}
		gc, gv := got.row(i)
		wc, wv := want.row(i)
		if len(gc) != len(wc) {
			return fmt.Errorf("row %d has %d entries right of the diagonal, want %d", i, len(gc), len(wc))
		}
		for k := range wc {
			if gc[k] != wc[k] || !same(gv[k], wv[k]) {
				return fmt.Errorf("row %d entry %d: A[%d][%d] = %v, want A[%d][%d] = %v", i, k, i, gc[k], gv[k], i, wc[k], wv[k])
			}
		}
	}
	return nil
}

// lu is an LU factorisation with partial pivoting, PA = LU.
type lu struct {
	n     int
	data  []float64 // packed L (unit diagonal, below) and U (on and above)
	pivot []int
}

// factorize computes the LU factorisation of the n×n matrix a, which it
// leaves as it is. It returns ErrSingular when a pivot column is exactly
// zero. Eliminations whose multiplier is zero are skipped, so an
// upper-triangular matrix (an acyclic PH generator) is left as it is.
func factorize(n int, a []float64) (*lu, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("factorize: %d values for %dx%d", len(a), n, n)
	}
	m := append([]float64(nil), a...)
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below the diagonal.
		p, maxAbs := k, math.Abs(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		rowK := m[k*n : (k+1)*n]
		if p != k {
			pivot[k], pivot[p] = pivot[p], pivot[k]
			rowP := m[p*n : (p+1)*n]
			for j, v := range rowK {
				rowK[j], rowP[j] = rowP[j], v
			}
		}
		inv := 1 / rowK[k]
		for i := k + 1; i < n; i++ {
			rowI := m[i*n : (i+1)*n]
			l := rowI[k] * inv
			rowI[k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] -= float64(l * rowK[j])
			}
		}
	}
	return &lu{n: n, data: m, pivot: pivot}, nil
}

// solve returns x with A·x = b for the factorised A, leaving b as it is.
func (f *lu) solve(b []float64) []float64 {
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		row := f.data[i*n : i*n+i]
		xi := x[i]
		for j, l := range row {
			xi -= float64(l * x[j])
		}
		x[i] = xi
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.data[i*n : (i+1)*n]
		xi := x[i]
		for j := i + 1; j < n; j++ {
			xi -= float64(row[j] * x[j])
		}
		x[i] = xi / row[i]
	}
	return x
}

// convolve returns the distribution of X+Y for independent PH X and Y:
// the chain runs X to absorption, then starts Y.
func convolve(x, y *PH) *PH {
	nx, ny := x.Order(), y.Order()
	exit := x.ExitVector()
	nnz := len(x.val) + len(y.val)
	for _, ex := range exit {
		for _, aj := range y.alpha {
			if ex*aj != 0 {
				nnz++
			}
		}
	}
	out := alloc(nx+ny, nnz)
	e := 0
	for i := 0; i < nx; i++ {
		out.diag[i] = x.diag[i]
		e = out.copyRow(e, x, i, 0)
		for j, aj := range y.alpha {
			if v := exit[i] * aj; v != 0 {
				out.col[e], out.val[e] = int32(nx+j), v
				e++
			}
		}
		out.next[i+1] = int32(e)
	}
	for i := 0; i < ny; i++ {
		out.diag[nx+i] = y.diag[i]
		e = out.copyRow(e, y, i, nx)
		out.next[nx+i+1] = int32(e)
	}
	copy(out.alpha, x.alpha)
	// Atom at zero in X starts Y immediately.
	var mass float64
	for _, v := range x.alpha {
		mass += v
	}
	if atom := 1 - mass; atom > 1e-12 {
		for j, aj := range y.alpha {
			out.alpha[nx+j] = atom * aj
		}
	}
	p, err := newOwned(out)
	if err != nil {
		panic(err) // two valid representations convolve into a valid one
	}
	return p
}

// mulVec returns the n×n product a·x.
func mulVec(n int, a, x []float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		for j, v := range a[i*n : (i+1)*n] {
			out[i] += v * x[j]
		}
	}
	return out
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// luSolve factorises the n×n a and solves a·x = b.
func luSolve(n int, a, b []float64) ([]float64, error) {
	f, err := factorize(n, a)
	if err != nil {
		return nil, err
	}
	return f.solve(b), nil
}

func TestLUSolve(t *testing.T) {
	x, err := luSolve(3, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	}, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSolveSingular(t *testing.T) {
	if _, err := luSolve(2, []float64{1, 2, 2, 4}, []float64{1, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix: %v, want ErrSingular", err)
	}
}

func TestLUSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	x, err := luSolve(2, []float64{0, 1, 1, 0}, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 7, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

// TestLUFactorizeOnceSolveMany: one factorisation serves any number of
// right-hand sides and leaves both the matrix and the vectors untouched.
func TestLUFactorizeOnceSolveMany(t *testing.T) {
	a := []float64{
		0, 2, 1,
		4, -1, 3,
		-2, 5, 0.5,
	}
	before := append([]float64(nil), a...)
	f, err := factorize(3, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 0, 0}, {3, -2, 7}, {0, 0, 0}} {
		rhs := append([]float64(nil), b...)
		x := f.solve(rhs)
		for i, got := range mulVec(3, a, x) {
			if !almostEqual(got, b[i], 1e-12) || rhs[i] != b[i] {
				t.Fatalf("b = %v: a·x = %v (rhs now %v)", b, mulVec(3, a, x), rhs)
			}
		}
	}
	for i, v := range before {
		if a[i] != v {
			t.Fatalf("factorize changed its matrix: %v, was %v", a, before)
		}
	}
	if _, err := factorize(2, make([]float64, 6)); err == nil {
		t.Fatal("non-square matrix factorised")
	}
}

// Property: solve then multiply recovers b for random well-conditioned
// systems.
func TestPropertyLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] = rng.NormFloat64()
			}
			// Diagonal dominance keeps the system well conditioned.
			a[i*n+i] += float64(n) + 1
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := luSolve(n, a, b)
		if err != nil {
			return false
		}
		for i, v := range mulVec(n, a, x) {
			if !almostEqual(v, b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
