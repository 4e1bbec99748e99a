package phdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMean(t *testing.T, p *PH) float64 {
	t.Helper()
	m, err := p.Mean()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustSCV returns the squared coefficient of variation Var[X]/E[X]².
func mustSCV(t *testing.T, p *PH) float64 {
	t.Helper()
	ms, err := p.Moments(2)
	if err != nil {
		t.Fatal(err)
	}
	return ms[1]/(ms[0]*ms[0]) - 1
}

func TestExponentialMoments(t *testing.T) {
	p, err := Exponential(2)
	if err != nil {
		t.Fatal(err)
	}
	if m := mustMean(t, p); math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("mean = %g, want 0.5", m)
	}
	m2, err := p.Moment(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2-0.5) > 1e-12 { // E[X²] = 2/λ² = 0.5
		t.Fatalf("second moment = %g, want 0.5", m2)
	}
	if s := mustSCV(t, p); math.Abs(s-1) > 1e-12 {
		t.Fatalf("scv = %g, want 1", s)
	}
}

func TestErlangMoments(t *testing.T) {
	p, err := Erlang(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m := mustMean(t, p); math.Abs(m-2) > 1e-12 {
		t.Fatalf("mean = %g, want 2", m)
	}
	if s := mustSCV(t, p); math.Abs(s-0.25) > 1e-12 {
		t.Fatalf("scv = %g, want 0.25", s)
	}
}

// empiricalCDF draws n samples of p and returns the fraction at or below
// each x.
func empiricalCDF(p *PH, seed int64, n int, xs []float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	below := make([]float64, len(xs))
	for range n {
		v := p.Sample(rng)
		for i, x := range xs {
			if v <= x {
				below[i]++
			}
		}
	}
	for i := range below {
		below[i] /= float64(n)
	}
	return below
}

// TestExponentialCDF: samples of Exponential(λ) follow F(t) = 1 - e^{-λt}
// within the 20,000-draw sampling error.
func TestExponentialCDF(t *testing.T) {
	p, err := Exponential(1.5)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.1, 0.5, 1, 2, 5}
	for i, got := range empiricalCDF(p, 3, 20000, xs) {
		if want := 1 - math.Exp(-1.5*xs[i]); math.Abs(got-want) > 0.015 {
			t.Fatalf("empirical CDF(%g) = %g, want %g", xs[i], got, want)
		}
	}
}

// TestErlangCDF: samples of Erlang(2, λ) follow F(t) = 1 - e^{-λt}(1+λt)
// within the 20,000-draw sampling error.
func TestErlangCDF(t *testing.T) {
	p, err := Erlang(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.1, 0.5, 1, 2}
	for i, got := range empiricalCDF(p, 5, 20000, xs) {
		if want := 1 - math.Exp(-3*xs[i])*(1+3*xs[i]); math.Abs(got-want) > 0.015 {
			t.Fatalf("empirical CDF(%g) = %g, want %g", xs[i], got, want)
		}
	}
}

func TestHyperExponential(t *testing.T) {
	p, err := HyperExponential([]float64{0.4, 0.6}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.4/1 + 0.6/5
	if m := mustMean(t, p); math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", m, want)
	}
	if s := mustSCV(t, p); s <= 1 {
		t.Fatalf("scv = %g, want > 1", s)
	}
	if _, err := HyperExponential([]float64{0.5, 0.4}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for weights not summing to 1")
	}
}

func TestNewValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		alpha []float64
		n     int
		a     []float64
	}{
		{"empty", nil, 0, nil},
		{"dim mismatch", []float64{1}, 2, []float64{-1, 0, 0, -1}},
		{"negative alpha", []float64{-0.5, 1.5}, 2, []float64{-1, 0, 0, -1}},
		{"alpha mass >1", []float64{0.9, 0.9}, 2, []float64{-1, 0, 0, -1}},
		{"positive diagonal", []float64{1}, 1, []float64{2}},
		{"negative off-diagonal", []float64{1, 0}, 2, []float64{-1, -1, 0, -1}},
		{"positive row sum", []float64{1, 0}, 2, []float64{-1, 3, 0, -1}},
		{"NaN alpha", []float64{nan}, 1, []float64{-1}},
		{"NaN diagonal", []float64{1}, 1, []float64{nan}},
		{"NaN off-diagonal", []float64{1, 0}, 2, []float64{-1, nan, 0, -1}},
		{"infinite rates, NaN row sum", []float64{1, 0}, 2, []float64{-inf, inf, 0, -1}},
		{"cyclic", []float64{1, 0}, 2, []float64{-1, 1, 1, -1}},
		{"NaN below the diagonal", []float64{1, 0}, 2, []float64{-1, 0, nan, -1}},
	}
	for _, c := range cases {
		if _, err := dense(c.alpha, c.n, c.a); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestNewSumsEntriesPerCell: entries on one cell sum in slice order from
// +0 — the order shows in the last bit — rows come out in ascending
// columns whatever order the entries name them in, and a cell whose
// entries cancel is no entry.
func TestNewSumsEntriesPerCell(t *testing.T) {
	x, y, z := 0.1, 0.2, 0.3 // variables: constant sums would be exact
	p, err := New([]float64{1, 0, 0}, []Entry{
		{1, 2, 0.5}, {1, 1, -0.5}, // row 1 before row 0
		{0, 2, x}, {0, 1, z}, {0, 2, y}, {0, 2, z}, // columns unsorted
		{0, 0, -z}, {0, 0, -x}, {0, 0, -y}, {0, 0, -z},
		{2, 1, 0}, {2, 2, -1}, {2, 2, 0}, // a zero below the diagonal is no entry
		{1, 2, 0.25}, {1, 2, -0.25}, {1, 1, -0.25}, {1, 1, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDense(t, []float64{1, 0, 0}, 3, []float64{
		((-z + -x) + -y) + -z, z, (x + y) + z,
		0, -0.5, 0.5,
		0, 0, -1,
	})
	if err := identical(p, want); err != nil {
		t.Fatal(err)
	}
	if got := p.val[1]; got == (z+y)+x {
		t.Fatalf("A[0][2] = %v: summed in reverse order", got)
	}

	q, err := New([]float64{1, 0}, []Entry{{0, 0, -1}, {0, 1, 0.5}, {0, 1, -0.5}, {1, 1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.val) != 0 {
		t.Fatalf("cancelled cell kept: row 0 has entries %v", q.val)
	}
}

// TestNewRejectsBadIndices: an entry outside the order of alpha, or a
// non-zero one below the diagonal, is an error.
func TestNewRejectsBadIndices(t *testing.T) {
	for name, e := range map[string]Entry{
		"row -1":              {-1, 0, -1},
		"column -1":           {0, -1, 1},
		"row n":               {2, 2, -1},
		"column n":            {1, 2, 1},
		"below the diagonal":  {1, 0, 1},
		"-1 below diagonal":   {1, 0, -1},
		"+Inf below diagonal": {1, 0, math.Inf(1)},
	} {
		if _, err := New([]float64{1, 0}, []Entry{{0, 0, -1}, {0, 1, 1}, {1, 1, -1}, e}); err == nil {
			t.Errorf("%s: entry %+v accepted", name, e)
		}
	}
}

func TestAtomAtZero(t *testing.T) {
	// alpha mass 0.7: P(X=0) = 0.3.
	p := mustDense(t, []float64{0.7}, 1, []float64{-1})
	rng := rand.New(rand.NewSource(1))
	zeros := 0
	for range 10000 {
		if p.Sample(rng) == 0 {
			zeros++
		}
	}
	if got := float64(zeros) / 10000; math.Abs(got-0.3) > 0.02 {
		t.Fatalf("P(X=0) sampled as %g, want 0.3", got)
	}
	if m := mustMean(t, p); math.Abs(m-0.7) > 1e-12 {
		t.Fatalf("mean = %g, want 0.7", m)
	}
}

func TestConvolve(t *testing.T) {
	x, err := Exponential(1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Exponential(1)
	if err != nil {
		t.Fatal(err)
	}
	z := convolve(x, y) // Erlang(2,1)
	if m := mustMean(t, z); math.Abs(m-2) > 1e-12 {
		t.Fatalf("mean = %g, want 2", m)
	}
	if s := mustSCV(t, z); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("scv = %g, want 0.5", s)
	}
	e2, err := Erlang(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := z.Moments(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e2.Moments(4)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9*want[k] {
			t.Fatalf("moment %d = %g, want %g", k+1, got[k], want[k])
		}
	}
}

func TestConvolveWithAtom(t *testing.T) {
	// X has atom 0.5 at zero: E[X+Y] = 0.5·E[exp(1)] + E[exp(2)].
	x := mustDense(t, []float64{0.5}, 1, []float64{-1})
	y, err := Exponential(2)
	if err != nil {
		t.Fatal(err)
	}
	z := convolve(x, y)
	if m := mustMean(t, z); math.Abs(m-1.0) > 1e-12 {
		t.Fatalf("mean = %g, want 1.0", m)
	}
}

func TestConvolveAll(t *testing.T) {
	e, err := Exponential(1)
	if err != nil {
		t.Fatal(err)
	}
	z, err := ConvolveAll(e, e, e)
	if err != nil {
		t.Fatal(err)
	}
	if m := mustMean(t, z); math.Abs(m-3) > 1e-12 {
		t.Fatalf("mean = %g, want 3", m)
	}
	if _, err := ConvolveAll(); err == nil {
		t.Fatal("expected error for empty ConvolveAll")
	}
}

// foldConvolve is ConvolveAll as it was first written, a pairwise
// convolve fold: kept as the reference the one-shot chain must match.
func foldConvolve(ps ...*PH) *PH {
	out := ps[0]
	for _, p := range ps[1:] {
		out = convolve(out, p)
	}
	return out
}

// TestConvolveAllMatchesFold pins ConvolveAll to the pairwise fold bit
// for bit, alpha and generator, on seeded chains that mix components with
// an atom at zero (alpha mass 0.95) and without one (Erlang, fitted
// waves, whose rows sum to exactly zero).
func TestConvolveAllMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		ps := make([]*PH, 2+rng.Intn(5))
		for i := range ps {
			switch rng.Intn(3) {
			case 0:
				ps[i] = randomPH(t, rng, 1+rng.Intn(6))
			case 1:
				e, err := Erlang(1+rng.Intn(5), 0.5+rng.Float64())
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = e
			default:
				f, err := FitMeanSCV(0.5+5*rng.Float64(), 0.05+3*rng.Float64())
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = f
			}
		}
		got, err := ConvolveAll(ps...)
		if err != nil {
			t.Fatal(err)
		}
		if err := identical(got, foldConvolve(ps...)); err != nil {
			t.Fatalf("trial %d: %v against the fold", trial, err)
		}
	}
}

// TestConvolveAllAllocations pins the one-shot chain: a constant number
// of allocations whatever the chain length, where the fold paid a
// generator per step — the PH and one float and one index slice.
func TestConvolveAllAllocations(t *testing.T) {
	e, err := Erlang(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for _, k := range []int{2, 5, 20} {
		chain := make([]*PH, k)
		for i := range chain {
			chain[i] = e
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := ConvolveAll(chain...); err != nil {
				t.Fatal(err)
			}
		})
		if k == 2 {
			base = got
		}
		if got != base || got > 3 {
			t.Errorf("chain of %d: %v allocations, want the %v of a chain of 2 (at most 3)", k, got, base)
		}
	}
}

func TestConstructorsRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	e, err := Exponential(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (*PH, error){
		"FitMeanSCV(NaN, 0.5)":  func() (*PH, error) { return FitMeanSCV(nan, 0.5) },
		"FitMeanSCV(+Inf, 0.5)": func() (*PH, error) { return FitMeanSCV(inf, 0.5) },
		"FitMeanSCV(2, NaN)":    func() (*PH, error) { return FitMeanSCV(2, nan) },
		"FitMeanSCV(2, +Inf)":   func() (*PH, error) { return FitMeanSCV(2, inf) },
		"Erlang(3, NaN)":        func() (*PH, error) { return Erlang(3, nan) },
		"Erlang(3, +Inf)":       func() (*PH, error) { return Erlang(3, inf) },
		"Exponential(NaN)":      func() (*PH, error) { return Exponential(nan) },
		"Exponential(+Inf)":     func() (*PH, error) { return Exponential(inf) },
		"HyperExponential(NaN)": func() (*PH, error) { return HyperExponential([]float64{nan, 1}, []float64{1, 2}) },
		"Mixture(NaN weight)":   func() (*PH, error) { return Mixture([]float64{nan}, []*PH{e}) },
	} {
		if p, err := build(); err == nil {
			t.Errorf("%s: no error, built order-%d PH", name, p.Order())
		}
	}
}

func TestMixture(t *testing.T) {
	fast, err := Exponential(10)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Exponential(1)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := Mixture([]float64{0.3, 0.7}, []*PH{fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3*0.1 + 0.7*1.0
	if m := mustMean(t, mix); math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", m, want)
	}
	if _, err := Mixture([]float64{0.5}, []*PH{fast, slow}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestSampleMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, err := Erlang(3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.Sample(rng)
	}
	got := sum / n
	want := mustMean(t, p)
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("sample mean %g, analytic %g", got, want)
	}
}

// TestSampleAllocatesNothing: a draw reads each phase's exit from its
// row instead of building the exit vector.
func TestSampleAllocatesNothing(t *testing.T) {
	wave, err := FitMeanSCV(3.7, 0.31)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := FitMeanSCV(0.9, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ConvolveAll(setup, wave, wave)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if got := testing.AllocsPerRun(200, func() { p.Sample(rng) }); got != 0 {
		t.Errorf("Sample: %v allocations per draw, want 0", got)
	}
}

func TestSampleHyperExp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := HyperExponential([]float64{0.2, 0.8}, []float64{0.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.Sample(rng)
	}
	got := sum / n
	want := mustMean(t, p)
	if math.Abs(got-want)/want > 0.04 {
		t.Fatalf("sample mean %g, analytic %g", got, want)
	}
}

func TestFitMeanSCV(t *testing.T) {
	cases := []struct{ mean, scv float64 }{
		{1, 1}, {2, 0.5}, {5, 0.33}, {3, 0.2}, {1, 2}, {10, 8}, {0.5, 1.0000001},
	}
	for _, c := range cases {
		p, err := FitMeanSCV(c.mean, c.scv)
		if err != nil {
			t.Fatalf("FitMeanSCV(%g,%g): %v", c.mean, c.scv, err)
		}
		if m := mustMean(t, p); math.Abs(m-c.mean)/c.mean > 1e-6 {
			t.Fatalf("FitMeanSCV(%g,%g) mean = %g", c.mean, c.scv, m)
		}
		gotSCV := mustSCV(t, p)
		tol := 1e-6
		if c.scv < 0.02 { // near-deterministic branch is capped at order 64
			tol = 0.02
		}
		if math.Abs(gotSCV-c.scv) > tol && math.Abs(gotSCV-c.scv)/c.scv > tol {
			t.Fatalf("FitMeanSCV(%g,%g) scv = %g", c.mean, c.scv, gotSCV)
		}
	}
	if _, err := FitMeanSCV(0, 1); err == nil {
		t.Fatal("expected error for zero mean")
	}
}

func TestFitNearDeterministic(t *testing.T) {
	p, err := FitMeanSCV(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := mustMean(t, p); math.Abs(m-2) > 1e-9 {
		t.Fatalf("mean = %g", m)
	}
	if s := mustSCV(t, p); s > 0.02 {
		t.Fatalf("scv = %g, want near 0", s)
	}
}

// Property: convolution means add; mixture means are convex combinations.
func TestPropertyClosureMeans(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1 := 0.1 + rng.Float64()*5
		r2 := 0.1 + rng.Float64()*5
		k := 1 + rng.Intn(4)
		x, err := Erlang(k, r1)
		if err != nil {
			return false
		}
		y, err := Exponential(r2)
		if err != nil {
			return false
		}
		mx, _ := x.Mean()
		my, _ := y.Mean()
		conv := convolve(x, y)
		mc, err := conv.Mean()
		if err != nil || math.Abs(mc-(mx+my)) > 1e-8 {
			return false
		}
		w := rng.Float64()
		mix, err := Mixture([]float64{w, 1 - w}, []*PH{x, y})
		if err != nil {
			return false
		}
		mm, err := mix.Mean()
		return err == nil && math.Abs(mm-(w*mx+(1-w)*my)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p, err := Erlang(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sample(rng)
	}
}
