package phdist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// inverseMoment is the textbook formula k!·α·(-A)⁻ᵏ·1 through an explicit
// inverse — what Moment computed before it solved instead, kept here as
// the independent reference.
func inverseMoment(t *testing.T, p *PH, k int) float64 {
	t.Helper()
	n := p.Order()
	neg := denseA(p)
	for i, v := range neg {
		neg[i] = -v
	}
	f, err := factorize(n, neg)
	if err != nil {
		t.Fatal(err)
	}
	inv := make([][]float64, n) // inv[c] is column c of (-A)⁻¹: (-A)·inv[c] = e_c
	for c := range inv {
		e := make([]float64, n)
		e[c] = 1
		inv[c] = f.solve(e)
	}
	v := append([]float64(nil), p.alpha...)
	fact := 1.0
	for i := 1; i <= k; i++ {
		next := make([]float64, n) // v·(-A)⁻¹
		for r, vr := range v {
			for c := range next {
				next[c] += vr * inv[c][r]
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

// luMoments is Moments as it was computed on the dense generator: one
// partial-pivoting LU factorisation of A, then k solves from z₀ = 1. The
// back-substitution must match it bit for bit.
func luMoments(t *testing.T, p *PH, k int) []float64 {
	t.Helper()
	n := p.Order()
	f, err := factorize(n, denseA(p))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, k)
	z := make([]float64, n)
	for i := range z {
		z[i] = 1
	}
	signedFact := 1.0
	for i := 1; i <= k; i++ {
		z = f.solve(z)
		signedFact *= -float64(i)
		var dot float64
		for j, a := range p.alpha {
			dot += float64(a * z[j])
		}
		out[i-1] = signedFact * dot
	}
	return out
}

// randomPH draws an acyclic PH of order n — an upper-triangular generator,
// the shape Erlang, Convolve and Mixture build — with every phase exiting
// at a rate of order one.
func randomPH(t *testing.T, rng *rand.Rand, n int) *PH {
	t.Helper()
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		out := 0.2 + rng.Float64() // exit rate
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				continue
			}
			r := 3 * rng.Float64()
			a[i*n+j] = r
			out += r
		}
		a[i*n+i] = -out
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
	return mustDense(t, alpha, n, a)
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestPropertyMomentsMatchInverseFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(59)
		p := randomPH(t, rng, n)
		ms, err := p.Moments(4)
		if err != nil {
			t.Fatalf("order %d: %v", n, err)
		}
		for k := 1; k <= 4; k++ {
			want := inverseMoment(t, p, k)
			if e := relErr(ms[k-1], want); e > 1e-12 {
				t.Errorf("order %d: E[X^%d] = %.17g, inverse formula %.17g (rel %.2g)", n, k, ms[k-1], want, e)
			}
			// Every entry point reads the same solves.
			if m, err := p.Moment(k); err != nil || m != ms[k-1] {
				t.Errorf("order %d: Moment(%d) = %.17g (%v), Moments(4)[%d] = %.17g", n, k, m, err, k-1, ms[k-1])
			}
		}
	}
}

// TestMomentsMatchDenseLU holds the back-substitution to the dense LU
// solve it replaced, bit for bit, on every shape the model builds: random
// acyclic generators, Erlang, hyperexponential and fitted-mixture waves,
// convolution chains of up to about 500 phases, and the Figure 4 job.
func TestMomentsMatchDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	fit := func() *PH {
		scv := []float64{0.02, 0.05, 0.31, 0.8, 1, 2.4}[rng.Intn(6)]
		p, err := FitMeanSCV(0.5+10*rng.Float64(), scv*(0.9+0.2*rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	component := func() *PH {
		switch rng.Intn(4) {
		case 0:
			return randomPH(t, rng, 1+rng.Intn(30))
		case 1:
			p, err := Erlang(1+rng.Intn(64), 0.1+5*rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			return p
		case 2:
			w := rng.Float64()
			p, err := HyperExponential([]float64{w, 1 - w}, []float64{0.1 + rng.Float64(), 1 + 9*rng.Float64()})
			if err != nil {
				t.Fatal(err)
			}
			return p
		default:
			return fit()
		}
	}
	var cases []*PH
	for range 40 {
		cases = append(cases, component())
	}
	for range 40 {
		var chain []*PH
		for n := 0; n < 500; {
			c := component()
			if n > 0 && n+c.Order() > 500 {
				break
			}
			chain = append(chain, c)
			n += c.Order()
			if rng.Intn(8) == 0 {
				break
			}
		}
		p, err := ConvolveAll(chain...)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			w := rng.Float64()
			if p, err = Mixture([]float64{w, 1 - w}, []*PH{p, component()}); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, p)
	}
	cases = append(cases, figure4Job(t))
	for ci, p := range cases {
		got, err := p.Moments(4)
		if err != nil {
			t.Fatalf("case %d (order %d): %v", ci, p.Order(), err)
		}
		want := luMoments(t, p, 4)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("case %d (order %d): E[X^%d] = %.17g, dense LU %.17g", ci, p.Order(), k+1, got[k], want[k])
			}
		}
	}
}

// figure4Job assembles what the wave-level model builds for a Figure 4
// text job (20 slots, 50 map tasks at θ = 0.2, 10 reducers): fitted setup
// ⊕ two map waves ⊕ fitted shuffle ⊕ one reduce wave, each stage the
// one-component mixture the model's stage builder returns — 375 phases.
func figure4Job(t *testing.T) *PH {
	t.Helper()
	fit := func(mean, scv float64) *PH {
		p, err := FitMeanSCV(mean, scv)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stage := func(waves ...*PH) *PH {
		conv, err := ConvolveAll(waves...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Mixture([]float64{1}, []*PH{conv})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mapWave, redWave := fit(8.5, 0.02), fit(1.5, 0.02)
	p, err := ConvolveAll(fit(5, 0.05), stage(mapWave, mapWave), fit(1.2, 0.05), stage(redWave))
	if err != nil {
		t.Fatal(err)
	}
	if p.Order() != 375 {
		t.Fatalf("Figure 4 job has %d phases, want 375", p.Order())
	}
	return p
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
	check("convolve", moments(convolve(he, er), 3), []float64{
		x[0] + y[0],
		x[1] + 2*x[0]*y[0] + y[1],
		x[2] + 3*x[1]*y[0] + 3*x[0]*y[1] + y[2],
	})
}

// TestMomentOfDefectiveGenerator: a chain with a phase it never leaves
// never absorbs from there, -A is singular, and every moment entry point
// says so.
func TestMomentOfDefectiveGenerator(t *testing.T) {
	p := mustDense(t, []float64{1, 0}, 2, []float64{-1, 1, 0, 0})
	if _, err := p.Moment(1); !errors.Is(err, ErrSingular) {
		t.Errorf("Moment: %v, want ErrSingular", err)
	}
	if _, err := p.Moments(2); !errors.Is(err, ErrSingular) {
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
	entries := []Entry{{0, 0, -2}, {0, 1, 1}, {1, 1, -3}}
	p, err := New(alpha, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMean(t, p)
	alpha[0], alpha[1] = 1, 0
	entries[0].V, entries[1] = -200, Entry{0, 0, -5}
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
