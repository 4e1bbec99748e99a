package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLogHistogramValidation(t *testing.T) {
	cases := []struct {
		lo, hi float64
		n      int
	}{
		{0, 1, 10},
		{-1, 1, 10},
		{1, 1, 10},
		{2, 1, 10},
		{1, 2, 0},
		{math.NaN(), 1, 10},
	}
	for _, c := range cases {
		if _, err := NewLogHistogram(c.lo, c.hi, c.n); err == nil {
			t.Errorf("NewLogHistogram(%g, %g, %d): accepted", c.lo, c.hi, c.n)
		}
	}
}

func TestLogHistogramEmptyAndEdges(t *testing.T) {
	h, err := NewLogHistogram(1e-3, 1e6, 480)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	h.Add(2)
	h.Add(8)
	if got := h.Quantile(0); got != 2 {
		t.Errorf("p=0 = %g, want exact min", got)
	}
	if got := h.Quantile(1); got != 8 {
		t.Errorf("p=1 = %g, want exact max", got)
	}
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestLogHistogramClampsOutOfRange(t *testing.T) {
	h, err := NewLogHistogram(1, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0.001) // below lo: bucket 0
	h.Add(1e9)   // above hi: last bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	// Out-of-range observations saturate into the edge buckets; p=0/p=1
	// still answer the exact min/max, and every quantile stays inside the
	// observed range.
	if got := h.Quantile(0); got != 0.001 {
		t.Errorf("p=0 = %g, want exact min", got)
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Errorf("p=1 = %g, want exact max", got)
	}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(p); got < 0.001 || got > 1e9 {
			t.Errorf("p=%g = %g outside observed range", p, got)
		}
	}
}

// TestLogHistogramQuantileAccuracy is the headline guarantee: any quantile
// answered from the histogram is within one bucket's relative width of the
// exact sorted-sample quantile (same ceil(p*n) order statistic).
func TestLogHistogramQuantileAccuracy(t *testing.T) {
	h, err := NewLogHistogram(1e-3, 1e6, 480)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		// Lognormal response-time-like shape spanning several decades.
		xs[i] = math.Exp(rng.NormFloat64()*1.5 + 2)
		h.Add(xs[i])
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	tol := math.Log(1 + bucketRelWidth(h))
	for _, p := range []float64{0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(p * n))
		if rank < 1 {
			rank = 1
		}
		exact := sorted[rank-1]
		got := h.Quantile(p)
		if got <= 0 {
			t.Fatalf("p=%g: non-positive %g", p, got)
		}
		if d := math.Abs(math.Log(got / exact)); d > tol+1e-12 {
			t.Errorf("p=%g: got %g exact %g (log-error %.4f > %.4f)", p, got, exact, d, tol)
		}
	}
}

// FuzzLogHistogramQuantile fuzzes the accuracy bound over arbitrary
// observation sets: for any data derived from the fuzzed seed/shape, every
// quantile whose order statistic falls inside [lo, hi) must be within one
// bucket's relative width (<4.4% at 480 buckets over [1e-3,1e6)) of the
// exact sorted quantile, and quantiles must never leave [min, max].
func FuzzLogHistogramQuantile(f *testing.F) {
	f.Add(int64(1), 100, 1.5, 2.0)
	f.Add(int64(42), 3000, 0.3, -1.0)
	f.Add(int64(-9), 7, 4.0, 5.5)
	f.Fuzz(func(t *testing.T, seed int64, n int, sigma, mu float64) {
		if n < 1 || n > 50000 {
			return
		}
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 || sigma > 6 {
			return
		}
		if math.IsNaN(mu) || math.IsInf(mu, 0) || mu < -5 || mu > 10 {
			return
		}
		h, err := NewLogHistogram(1e-3, 1e6, 480)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64()*sigma + mu)
			h.Add(xs[i])
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		tol := math.Log(1 + bucketRelWidth(h))
		if tol >= math.Log(1.045) {
			t.Fatalf("bucket width %.4f%% not under the documented ~4.4%%", 100*bucketRelWidth(h))
		}
		for _, p := range []float64{0, 0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			got := h.Quantile(p)
			if got < sorted[0] || got > sorted[n-1] {
				t.Fatalf("p=%g: %g outside observed [%g,%g]", p, got, sorted[0], sorted[n-1])
			}
			if p <= 0 || p >= 1 {
				continue // exact min/max, checked by the range assertion
			}
			rank := int(math.Ceil(p * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			// The bound only holds for order statistics inside [lo, hi):
			// clamped out-of-range observations saturate by design.
			if exact < 1e-3 || exact >= 1e6 {
				continue
			}
			if d := math.Abs(math.Log(got / exact)); d > tol+1e-12 {
				t.Fatalf("p=%g: got %g exact %g (log-error %.4f > %.4f)", p, got, exact, d, tol)
			}
		}
	})
}

// TestLogHistogramDegenerateObservations pins the documented clamping for
// observations a quantile sketch over positive response times should never
// see but must survive: zeros, negatives, NaN, and values past hi.
func TestLogHistogramDegenerateObservations(t *testing.T) {
	h, err := NewLogHistogram(1e-3, 1e6, 480)
	if err != nil {
		t.Fatal(err)
	}
	// Zero, negative and NaN land in bucket 0 without panicking.
	h.Add(0)
	h.Add(-12.5)
	h.Add(math.NaN())
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	// A real observation dominates the upper quantiles.
	h.Add(50)
	if got := h.Quantile(1); got != 50 {
		t.Fatalf("p=1 = %g, want exact max 50", got)
	}
	if got := h.Quantile(0.99); math.IsNaN(got) {
		t.Fatalf("p=0.99 = NaN after degenerate observations")
	}

	// Overflow: everything at or past hi collapses into the last bucket,
	// so mid-range quantiles saturate but p=1 stays exact.
	o, err := NewLogHistogram(1, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{100, 1e6, math.Inf(1)} {
		o.Add(x)
	}
	if got := o.Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("p=1 = %g, want exact max +Inf", got)
	}
	if got := o.Quantile(0.5); got < 100 {
		t.Fatalf("p=0.5 = %g, want saturation at or above hi's bucket", got)
	}
}

// TestLogHistogramNaNFirstObservation is the regression test for the
// min/max poisoning bug: a NaN FIRST observation used to set min and max
// to NaN, and since every comparison against NaN is false, no later
// observation could repair them — Quantile returned NaN forever. A NaN
// must behave exactly like the documented bucket-0 clamp (i.e. as 0)
// regardless of arrival order.
func TestLogHistogramNaNFirstObservation(t *testing.T) {
	h, err := NewLogHistogram(1e-3, 1e6, 480)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(math.NaN()) // first observation — the poisoning position
	h.Add(50)
	h.Add(2)
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p=0 = %g, want 0 (NaN clamps to the bucket-0 value)", got)
	}
	if got := h.Quantile(1); got != 50 {
		t.Fatalf("p=1 = %g, want exact max 50", got)
	}
	for _, p := range []float64{0.25, 0.5, 0.95} {
		if got := h.Quantile(p); math.IsNaN(got) {
			t.Fatalf("p=%g = NaN: min/max poisoned by a NaN first observation", p)
		}
	}

	// Order-independence: NaN first then x must leave the same state as x
	// then NaN.
	a, _ := NewLogHistogram(1e-3, 1e6, 480)
	b, _ := NewLogHistogram(1e-3, 1e6, 480)
	a.Add(math.NaN())
	a.Add(7)
	b.Add(7)
	b.Add(math.NaN())
	for _, p := range []float64{0, 0.5, 1} {
		if ga, gb := a.Quantile(p), b.Quantile(p); ga != gb {
			t.Fatalf("p=%g: NaN-first %g != NaN-last %g", p, ga, gb)
		}
	}
}

func TestLogHistogramPercentileAlias(t *testing.T) {
	h, err := NewLogHistogram(1e-3, 1e3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Percentile(95) != h.Quantile(0.95) {
		t.Error("Percentile(95) != Quantile(0.95)")
	}
}

// bucketRelWidth is the relative width of one bucket, g-1: the worst-case
// relative error bound of Quantile inside [lo, hi).
func bucketRelWidth(h *LogHistogram) float64 { return math.Exp(1/h.invLogG) - 1 }
