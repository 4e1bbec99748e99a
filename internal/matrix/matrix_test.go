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
				t.Fatalf("at (%d,%d): got %g, want %g\ngot:  %v\nwant: %v", i, j, got.At(i, j), want.At(i, j), got.data, want.data)
			}
		}
	}
}

// solve factorises a and solves a·x = b.
func solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
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
	matricesAlmostEqual(t, Sub(b, a), New(2, 2, []float64{4, 4, 4, 4}), 0)
}

func TestVectorOps(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %g", d)
	}
}

func TestNewCopiesItsData(t *testing.T) {
	data := []float64{1, 2}
	a := New(1, 2, data)
	data[0] = 99
	if a.At(0, 0) != 1 {
		t.Fatal("New aliases the caller's data")
	}
	b := Sub(a, Zeros(1, 2))
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Sub aliases its operand's data")
	}
}

func TestSolve(t *testing.T) {
	a := New(3, 3, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	})
	x, err := solve(a, []float64{8, -11, -3})
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
	if _, err := solve(a, []float64{1, 1}); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := New(2, 2, []float64{0, 1, 1, 0})
	x, err := solve(a, []float64{3, 7})
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
	before := New(a.rows, a.cols, a.data)
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

// TestInverse: solving against the unit vector e_j gives column j of
// a⁻¹, the explicit inverse the PH moment tests build this way.
func TestInverse(t *testing.T) {
	a := New(2, 2, []float64{4, 7, 2, 6})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	// Column j of a·inv is a·(column j of inv) = e_j.
	for j := 0; j < 2; j++ {
		e := make([]float64, 2)
		e[j] = 1
		col := MulVec(a, f.Solve(e))
		for i, v := range col {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(v, want, 1e-12) {
				t.Fatalf("(a·inv)[%d][%d] = %g, want %g", i, j, v, want)
			}
		}
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
		x, err := solve(a, b)
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
