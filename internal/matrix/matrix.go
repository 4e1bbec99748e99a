// Package matrix implements the small dense linear algebra the model
// packages share: dense storage, in which the task-level model writes its
// generator and phdist.New takes one, vector products, and an LU
// factorisation with partial pivoting. phdist solves its acyclic
// generators by back-substitution over sparse rows, so no live path
// factorises: the LU solve is the reference its moments are tested
// against bit for bit.
//
// Matrices are row-major float64 and are small (tens to a few hundreds of
// rows), so clarity wins over blocking or SIMD tricks.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation meets a singular matrix,
// and by phdist's moments for a generator with a phase it never leaves.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense row-major matrix. The zero value is an empty matrix;
// use New or Zeros to create one with a shape.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New builds an r×c matrix from row-major data. It panics if the data length
// does not match the shape: that is a programming error, not runtime input.
func New(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: New(%d,%d) with %d values", r, c, len(data)))
	}
	d := make([]float64, len(data))
	copy(d, data)
	return &Matrix{rows: r, cols: c, data: d}
}

// Zeros returns an r×c zero matrix.
func Zeros(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: Zeros(%d,%d)", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

func sameShape(a, b *Matrix, op string) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Sub returns a-b.
func Sub(a, b *Matrix) *Matrix {
	sameShape(a, b, "Sub")
	out := Zeros(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// MulVec returns the column-vector product a·x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("matrix: MulVec dims %d vs %d", a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		var s float64
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			s += float64(v * x[j])
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: Dot dims %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += float64(x[i] * y[i])
	}
	return s
}

// LU is an LU factorisation with partial pivoting, PA = LU: factorise
// once, then Solve against as many right-hand sides as needed.
type LU struct {
	n     int
	data  []float64 // row-major; packed L (unit diagonal, below) and U (on and above)
	pivot []int
}

// Factorize computes the LU factorisation of a square matrix. It returns
// ErrSingular when a pivot column is exactly zero. Eliminations whose
// multiplier is zero are skipped, so an already upper-triangular matrix
// (an acyclic PH generator) is left as it is and costs O(n²).
func Factorize(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: factorize non-square %dx%d", a.rows, a.cols)
	}
	n := a.rows
	m := make([]float64, len(a.data))
	copy(m, a.data)
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
	return &LU{n: n, data: m, pivot: pivot}, nil
}

// Solve returns x with A·x = b for the factorised A.
func (f *LU) Solve(b []float64) []float64 {
	n := f.n
	if len(b) != n {
		panic(fmt.Sprintf("matrix: LU.Solve dims %dx%d vs %d", n, n, len(b)))
	}
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

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
