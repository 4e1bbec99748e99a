package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestDiurnalMixValidation(t *testing.T) {
	bad := []struct {
		rates       []float64
		amp, period float64
	}{
		{nil, 0.5, 100},
		{[]float64{0}, 0.5, 100},
		{[]float64{-1, 1}, 0.5, 100},
		{[]float64{1}, 1.0, 100},
		{[]float64{1}, -0.1, 100},
		{[]float64{1}, 0.5, 0},
		{[]float64{math.NaN(), 1}, 0.5, 100},
		{[]float64{math.Inf(1)}, 0.5, 100},
		{[]float64{1}, math.NaN(), 100},
		{[]float64{1}, 0.5, math.NaN()},
		{[]float64{1}, 0.5, math.Inf(1)},
	}
	for i, c := range bad {
		if _, err := NewDiurnalMix(c.rates, c.amp, c.period); err == nil {
			t.Fatalf("case %d should have been rejected", i)
		}
	}
}

func TestDiurnalMixMeanRateAndMix(t *testing.T) {
	d, err := NewDiurnalMix([]float64{0.9, 0.1}, 0.8, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 40000
	arrivals := StreamOf(d, rng, n)
	span := arrivals[n-1].At
	// Long-run mean rate converges to total(rates) = 1.0.
	if got := float64(n) / span; math.Abs(got-1) > 0.05 {
		t.Fatalf("empirical mean rate = %g, want ~1", got)
	}
	var high int
	for _, a := range arrivals {
		if a.Class == 1 {
			high++
		}
	}
	if frac := float64(high) / n; math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("high-class fraction = %g, want ~0.1", frac)
	}
	// The swing must actually be there: arrival counts in a peak half-period
	// dominate a trough half-period.
	counts := map[bool]int{}
	for _, a := range arrivals {
		phase := math.Mod(a.At, 500) / 500
		counts[phase < 0.5]++ // first half-period contains the sine peak
	}
	if counts[true] < counts[false]*2 {
		t.Fatalf("no diurnal swing: peak-half %d vs trough-half %d", counts[true], counts[false])
	}
}

func TestDiurnalMixDeterministicPerSeed(t *testing.T) {
	gen := func() []Arrival {
		d, err := NewDiurnalMix([]float64{1, 0.2}, 0.6, 200)
		if err != nil {
			t.Fatal(err)
		}
		return StreamOf(d, rand.New(rand.NewSource(7)), 500)
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
