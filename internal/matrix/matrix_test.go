package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matricesAlmostEqual(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if !almostEqual(got.At(i, j), want.At(i, j), tol) {
				t.Fatalf("at (%d,%d): got %g, want %g\ngot:\n%vwant:\n%v", i, j, got.At(i, j), want.At(i, j), got, want)
			}
		}
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, 2, []float64{1, 2, 3})
}

func TestBasicOps(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 3, 4})
	b := New(2, 2, []float64{5, 6, 7, 8})
	matricesAlmostEqual(t, Add(a, b), New(2, 2, []float64{6, 8, 10, 12}), 0)
	matricesAlmostEqual(t, Sub(b, a), New(2, 2, []float64{4, 4, 4, 4}), 0)
	matricesAlmostEqual(t, Scale(2, a), New(2, 2, []float64{2, 4, 6, 8}), 0)
	matricesAlmostEqual(t, Mul(a, b), New(2, 2, []float64{19, 22, 43, 50}), 0)
	matricesAlmostEqual(t, Transpose(a), New(2, 2, []float64{1, 3, 2, 4}), 0)
}

func TestMulRectangular(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	matricesAlmostEqual(t, Mul(a, b), New(2, 2, []float64{58, 64, 139, 154}), 1e-12)
}

func TestVectorOps(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
	got = VecMul([]float64{1, 1}, a)
	if got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("VecMul = %v", got)
	}
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %g", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases the original data")
	}
	r := a.Row(0)
	r[0] = 99
	if a.At(0, 0) != 1 {
		t.Fatal("Row aliases the original data")
	}
}

func TestSolve(t *testing.T) {
	a := New(3, 3, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	})
	x, err := Solve(a, []float64{8, -11, -3})
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

func TestSolveSingular(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 1}); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := New(2, 2, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 7, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

// TestFactorizeOnceSolveMany: one factorisation serves any number of
// right-hand sides and leaves both the matrix and the vectors untouched.
func TestFactorizeOnceSolveMany(t *testing.T) {
	a := New(3, 3, []float64{
		0, 2, 1,
		4, -1, 3,
		-2, 5, 0.5,
	})
	before := a.Clone()
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 0, 0}, {3, -2, 7}, {0, 0, 0}} {
		rhs := append([]float64(nil), b...)
		x := f.Solve(rhs)
		for i, got := range MulVec(a, x) {
			if !almostEqual(got, b[i], 1e-12) || rhs[i] != b[i] {
				t.Fatalf("b = %v: a·x = %v (rhs now %v)", b, MulVec(a, x), rhs)
			}
		}
	}
	matricesAlmostEqual(t, a, before, 0)
	if _, err := Factorize(Zeros(2, 3)); err == nil {
		t.Fatal("non-square matrix factorised")
	}
	if _, err := Factorize(New(2, 2, []float64{1, 2, 2, 4})); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix: %v, want ErrSingular", err)
	}
}

func TestInverse(t *testing.T) {
	a := New(2, 2, []float64{4, 7, 2, 6})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	matricesAlmostEqual(t, Mul(a, inv), Identity(2), 1e-12)
	matricesAlmostEqual(t, Mul(inv, a), Identity(2), 1e-12)
}

func TestExpIdentityAndZero(t *testing.T) {
	z := Zeros(3, 3)
	matricesAlmostEqual(t, Exp(z), Identity(3), 1e-14)
	// exp(diag(a)) = diag(e^a)
	d := Zeros(2, 2)
	d.Set(0, 0, 1)
	d.Set(1, 1, -2)
	e := Exp(d)
	if !almostEqual(e.At(0, 0), math.E, 1e-10) || !almostEqual(e.At(1, 1), math.Exp(-2), 1e-10) {
		t.Fatalf("Exp diag = \n%v", e)
	}
	if !almostEqual(e.At(0, 1), 0, 1e-12) {
		t.Fatal("off-diagonal nonzero")
	}
}

func TestExpNilpotent(t *testing.T) {
	// For strictly upper triangular N, exp(N) = I + N (+ N^2/2 ... here N^2=0).
	n := Zeros(2, 2)
	n.Set(0, 1, 3)
	e := Exp(n)
	want := New(2, 2, []float64{1, 3, 0, 1})
	matricesAlmostEqual(t, e, want, 1e-12)
}

func TestExpGenerator(t *testing.T) {
	// Two-state CTMC generator; rows of exp(Qt) must be probability vectors.
	q := New(2, 2, []float64{-2, 2, 3, -3})
	p := Exp(Scale(0.7, q))
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 2; j++ {
			v := p.At(i, j)
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("P(%d,%d) = %g out of [0,1]", i, j, v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-10) {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	// Known closed form: for Q = [[-a,a],[b,-b]], P12(t) = a/(a+b)(1-e^{-(a+b)t}).
	a, b, tt := 2.0, 3.0, 0.7
	want := a / (a + b) * (1 - math.Exp(-(a+b)*tt))
	if !almostEqual(p.At(0, 1), want, 1e-10) {
		t.Fatalf("P12 = %g, want %g", p.At(0, 1), want)
	}
}

func TestStationaryVector(t *testing.T) {
	// Birth-death chain with λ=1, µ=2 on 3 states: π ∝ (1, 1/2, 1/4).
	q := New(3, 3, []float64{
		-1, 1, 0,
		2, -3, 1,
		0, 2, -2,
	})
	pi, err := StationaryVector(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4.0 / 7, 2.0 / 7, 1.0 / 7}
	for i := range want {
		if !almostEqual(pi[i], want[i], 1e-10) {
			t.Fatalf("pi = %v, want %v", pi, want)
		}
	}
}

func TestNormInf(t *testing.T) {
	a := New(2, 2, []float64{1, -5, 2, 2})
	if got := NormInf(a); got != 6 {
		t.Fatalf("NormInf = %g, want 6", got)
	}
}

func TestOnes(t *testing.T) {
	v := Ones(3)
	if len(v) != 3 || v[0] != 1 || v[2] != 1 {
		t.Fatalf("Ones = %v", v)
	}
}

// Property: Solve then multiply recovers b for random well-conditioned systems.
func TestPropertySolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the system well conditioned.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		back := MulVec(a, x)
		for i := range b {
			if !almostEqual(back[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: exp(A)·exp(-A) = I for random moderate matrices.
func TestPropertyExpInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		p := Mul(Exp(a), Exp(Scale(-1, a)))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(p.At(i, j), want, 1e-7) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Zeros(32, 32)
	c := Zeros(32, 32)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			a.Set(i, j, rng.Float64())
			c.Set(i, j, rng.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

func BenchmarkExp16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Zeros(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exp(a)
	}
}
