package workload

import (
	"math"
	"math/rand"
	"testing"
)

// gapStats draws n gaps from a process and returns the empirical mean
// gap, the gap CV, and the class-0 fraction.
func gapStats(t *testing.T, p Process, seed int64, n int) (mean, cv, frac0 float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	var class0 int
	for i := 0; i < n; i++ {
		gap, k := p.Next(rng)
		if gap < 0 || math.IsNaN(gap) || math.IsInf(gap, 0) {
			t.Fatalf("draw %d: bad gap %g", i, gap)
		}
		sum += gap
		sumSq += gap * gap
		if k == 0 {
			class0++
		}
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean, float64(class0) / float64(n)
}

// Gamma renewal gaps must reproduce the configured mean rate and CV —
// the whole point of the process is "same load, more clumping". Checked
// across seeds so a lucky stream cannot mask a broken sampler.
func TestGammaMeanRateAndCV(t *testing.T) {
	for _, cv := range []float64{0.5, 1.0, 3.5} {
		g, err := NewGamma([]float64{9, 1}, cv)
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalRate() != 10 || g.CV() != cv {
			t.Fatalf("cv %g: TotalRate=%g CV=%g", cv, g.TotalRate(), g.CV())
		}
		for _, seed := range []int64{1, 2, 3} {
			mean, gotCV, frac0 := gapStats(t, g, seed, 200000)
			if math.Abs(mean-0.1) > 0.003*cv+0.003 {
				t.Errorf("cv %g seed %d: mean gap %g, want 0.1", cv, seed, mean)
			}
			if math.Abs(gotCV-cv)/cv > 0.10 {
				t.Errorf("cv %g seed %d: empirical CV %g", cv, seed, gotCV)
			}
			if math.Abs(frac0-0.9) > 0.01 {
				t.Errorf("cv %g seed %d: class-0 fraction %g, want 0.9", cv, seed, frac0)
			}
		}
	}
}

// CV=1 Gamma is exponential: it must match PoissonMix's distribution,
// not just its moments (Kolmogorov-style quantile spot checks).
func TestGammaCVOneIsExponential(t *testing.T) {
	g, err := NewGamma([]float64{10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	var below float64 // P(gap <= median) for Exp(10): median = ln2/10
	median := math.Ln2 / 10
	for i := 0; i < n; i++ {
		gap, _ := g.Next(rng)
		if gap <= median {
			below++
		}
	}
	if frac := below / n; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("P(gap <= exponential median) = %g, want 0.5", frac)
	}
}

// The MMPP must preserve the configured mean rate (the stationary
// average of its calm and burst rates) while producing CV > 1 —
// correlated episodes, not just heavy-tailed gaps. The empirical mean
// converges at the burst-cycle scale, not the gap scale, so the test
// uses 100x shorter sojourns than the scale driver's {300, 60} — the
// stationary shares and per-state rates are identical, but 500k draws
// span ~14000 cycles instead of ~140.
func TestMMPPMeanRateAndBurstiness(t *testing.T) {
	m, err := NewMMPP([]float64{9, 1}, 4, [2]float64{3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRate() != 10 {
		t.Fatalf("TotalRate = %g", m.TotalRate())
	}
	sr := m.StateRates()
	lo, hi := sr[0], sr[1]
	if lo >= 10 || hi != 40 {
		t.Fatalf("state rates %g/%g: calm must be below the mean, burst 4x it", lo, hi)
	}
	// Stationary check: pi1 = 0.6/3.6 = 1/6 at rate 40, pi0 = 5/6 at lo;
	// the mixture must recover the mean.
	if mix := (5*lo + 40) / 6; math.Abs(mix-10) > 1e-9 {
		t.Fatalf("stationary mixture rate %g, want 10", mix)
	}
	for _, seed := range []int64{1, 2, 3} {
		mean, cv, frac0 := gapStats(t, m, seed, 500000)
		if math.Abs(mean-0.1) > 0.005 {
			t.Errorf("seed %d: mean gap %g, want 0.1", seed, mean)
		}
		if cv <= 1.1 {
			t.Errorf("seed %d: gap CV %g, want > 1 (bursty)", seed, cv)
		}
		if math.Abs(frac0-0.9) > 0.01 {
			t.Errorf("seed %d: class-0 fraction %g, want 0.9", seed, frac0)
		}
	}
}

func TestGammaValidation(t *testing.T) {
	for i, tc := range []struct {
		rates []float64
		cv    float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{-1, 2}, 1},
		{[]float64{1}, 0},
		{[]float64{1}, -2},
		{[]float64{1}, math.NaN()},
		{[]float64{1}, math.Inf(1)},
	} {
		if _, err := NewGamma(tc.rates, tc.cv); err == nil {
			t.Errorf("case %d: NewGamma(%v, %g) accepted", i, tc.rates, tc.cv)
		}
	}
}

func TestMMPPValidation(t *testing.T) {
	for i, tc := range []struct {
		rates    []float64
		burst    float64
		sojourns [2]float64
	}{
		{nil, 4, [2]float64{300, 60}},
		{[]float64{-1}, 4, [2]float64{300, 60}},
		{[]float64{1}, 1, [2]float64{300, 60}},   // burst must exceed 1
		{[]float64{1}, 0.5, [2]float64{300, 60}}, // burst must exceed 1
		{[]float64{1}, 4, [2]float64{0, 60}},
		{[]float64{1}, 4, [2]float64{300, -1}},
		// Non-finite sojourns: NaN slips past <= 0 and poisons the rates.
		{[]float64{1}, 4, [2]float64{math.NaN(), 60}},
		{[]float64{1}, 4, [2]float64{300, math.NaN()}},
		{[]float64{1}, 4, [2]float64{math.Inf(1), 60}},
		{[]float64{1}, 4, [2]float64{300, math.Inf(1)}},
		// pi1*burst > 1: the calm rate would need to be negative.
		{[]float64{1}, 4, [2]float64{60, 300}},
	} {
		if _, err := NewMMPP(tc.rates, tc.burst, tc.sojourns); err == nil {
			t.Errorf("case %d: NewMMPP(%v, %g, %v) accepted", i, tc.rates, tc.burst, tc.sojourns)
		}
	}
}

// Fixed seed, fixed stream: the bursty processes feed deterministic
// simulations, so their draws must be reproducible.
func TestBurstyDeterministic(t *testing.T) {
	draw := func(p Process, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float64, 50)
		for i := range out {
			out[i], _ = p.Next(rng)
		}
		return out
	}
	g1, _ := NewGamma([]float64{9, 1}, 3.5)
	g2, _ := NewGamma([]float64{9, 1}, 3.5)
	a, b := draw(g1, 42), draw(g2, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gamma draw %d differs: %g vs %g", i, a[i], b[i])
		}
	}
	m1, _ := NewMMPP([]float64{9, 1}, 4, [2]float64{300, 60})
	m2, _ := NewMMPP([]float64{9, 1}, 4, [2]float64{300, 60})
	a, b = draw(m1, 42), draw(m2, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mmpp draw %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}
