package phdist

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dias/internal/matrix"
)

// inverseMoment is the textbook formula k!·α·(-A)⁻ᵏ·1 through an explicit
// inverse — what Moment computed before it solved instead, kept here as
// the independent reference.
func inverseMoment(t *testing.T, p *PH, k int) float64 {
	t.Helper()
	n := p.Order()
	neg := matrix.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			neg.Set(i, j, -p.a.At(i, j))
		}
	}
	inv, err := matrix.Inverse(neg)
	if err != nil {
		t.Fatal(err)
	}
	v := append([]float64(nil), p.alpha...)
	fact := 1.0
	for i := 1; i <= k; i++ {
		next := make([]float64, n) // v·(-A)⁻¹
		for r, vr := range v {
			for c := range next {
				next[c] += vr * inv.At(r, c)
			}
		}
		v = next
		fact *= float64(i)
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return fact * sum
}

// randomPH draws a PH of order n with every phase exiting at a rate of
// order one. Acyclic generators are upper triangular (the shape Erlang,
// Convolve and Mixture build); cyclic ones are dense, so the factorisation
// pivots and eliminates.
func randomPH(t *testing.T, rng *rand.Rand, n int, cyclic bool) *PH {
	t.Helper()
	a := matrix.Zeros(n, n)
	for i := 0; i < n; i++ {
		out := 0.2 + rng.Float64() // exit rate
		for j := 0; j < n; j++ {
			if j == i || (!cyclic && j < i) || rng.Float64() < 0.3 {
				continue
			}
			r := 3 * rng.Float64()
			a.Set(i, j, r)
			out += r
		}
		a.Set(i, i, -out)
	}
	alpha := make([]float64, n)
	var mass float64
	for i := range alpha {
		alpha[i] = rng.Float64()
		mass += alpha[i]
	}
	for i := range alpha {
		alpha[i] *= 0.95 / mass // leaves an atom at zero
	}
	p, err := New(alpha, a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestPropertyMomentsMatchInverseFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(59)
		cyclic := trial%2 == 1
		p := randomPH(t, rng, n, cyclic)
		ms, err := p.Moments(4)
		if err != nil {
			t.Fatalf("order %d cyclic=%v: %v", n, cyclic, err)
		}
		for k := 1; k <= 4; k++ {
			want := inverseMoment(t, p, k)
			if e := relErr(ms[k-1], want); e > 1e-12 {
				t.Errorf("order %d cyclic=%v: E[X^%d] = %.17g, inverse formula %.17g (rel %.2g)", n, cyclic, k, ms[k-1], want, e)
			}
			// Every entry point reads the same solves.
			if m, err := p.Moment(k); err != nil || m != ms[k-1] {
				t.Errorf("order %d: Moment(%d) = %.17g (%v), Moments(4)[%d] = %.17g", n, k, m, err, k-1, ms[k-1])
			}
		}
	}
}

func TestMomentClosedForms(t *testing.T) {
	moments := func(p *PH, k int) []float64 {
		t.Helper()
		ms, err := p.Moments(k)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	check := func(name string, got, want []float64) {
		t.Helper()
		for k := range want {
			if e := relErr(got[k], want[k]); e > 1e-12 {
				t.Errorf("%s: E[X^%d] = %.17g, want %.17g (rel %.2g)", name, k+1, got[k], want[k], e)
			}
		}
	}

	// Erlang(k, λ): E[X^j] = k(k+1)…(k+j-1)/λ^j.
	for _, k := range []int{1, 3, 17, 64} {
		const rate = 2.5
		er, err := Erlang(k, rate)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 4)
		rising := 1.0
		for j := 1; j <= 4; j++ {
			rising *= float64(k + j - 1)
			want[j-1] = rising / math.Pow(rate, float64(j))
		}
		check("Erlang", moments(er, 4), want)
	}

	// HyperExponential: E[X^j] = j!·Σ pᵢ/μᵢ^j.
	probs, rates := []float64{0.2, 0.5, 0.3}, []float64{0.4, 3, 11}
	he, err := HyperExponential(probs, rates)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 4)
	fact := 1.0
	for j := 1; j <= 4; j++ {
		fact *= float64(j)
		for i := range probs {
			want[j-1] += fact * probs[i] / math.Pow(rates[i], float64(j))
		}
	}
	x := moments(he, 4)
	check("HyperExponential", x, want)

	// Convolve: raw moments of an independent sum, by the binomial theorem.
	er, err := Erlang(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	y := moments(er, 3)
	check("Convolve", moments(Convolve(he, er), 3), []float64{
		x[0] + y[0],
		x[1] + 2*x[0]*y[0] + y[1],
		x[2] + 3*x[1]*y[0] + 3*x[0]*y[1] + y[2],
	})
}

// TestMomentOfDefectiveGenerator: a generator with a closed class never
// absorbs, -A is singular, and every moment entry point says so.
func TestMomentOfDefectiveGenerator(t *testing.T) {
	p := MustNew([]float64{1, 0}, matrix.New(2, 2, []float64{-1, 1, 1, -1}))
	if _, err := p.Moment(1); !errors.Is(err, matrix.ErrSingular) {
		t.Errorf("Moment: %v, want ErrSingular", err)
	}
	if _, err := p.Moments(2); !errors.Is(err, matrix.ErrSingular) {
		t.Errorf("Moments: %v, want ErrSingular", err)
	}
	if _, err := p.Moments(0); err == nil {
		t.Error("Moments(0) accepted")
	}
}

// BenchmarkPHMoments is what the §4 model pays per fitted job: the mean and
// second moment of a 200-phase convolution chain (upper-triangular
// generator), each from its own call.
func BenchmarkPHMoments(b *testing.B) {
	stages := make([]*PH, 25)
	for i := range stages {
		er, err := Erlang(8, 1+float64(i))
		if err != nil {
			b.Fatal(err)
		}
		stages[i] = er
	}
	chain, err := ConvolveAll(stages...)
	if err != nil {
		b.Fatal(err)
	}
	if chain.Order() != 200 {
		b.Fatalf("chain has %d phases", chain.Order())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.Mean(); err != nil {
			b.Fatal(err)
		}
		if _, err := chain.Moment(2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConstructorsDoNotAliasCallerData: New copies what it is given, and
// the constructors that hand freshly built generators over without a copy
// still never keep a caller's slice.
func TestConstructorsDoNotAliasCallerData(t *testing.T) {
	alpha := []float64{0.5, 0.5}
	a := matrix.New(2, 2, []float64{-2, 1, 0, -3})
	p, err := New(alpha, a)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMean(t, p)
	alpha[0], alpha[1] = 1, 0
	a.Set(0, 0, -200)
	if got := mustMean(t, p); got != want {
		t.Fatalf("mean moved from %g to %g when New's arguments were mutated", want, got)
	}

	probs, rates := []float64{0.3, 0.7}, []float64{1, 5}
	he, err := HyperExponential(probs, rates)
	if err != nil {
		t.Fatal(err)
	}
	want = mustMean(t, he)
	probs[0], probs[1] = 0.9, 0.1
	if got := mustMean(t, he); got != want {
		t.Fatalf("mean moved from %g to %g when HyperExponential's probs were mutated", want, got)
	}
}
