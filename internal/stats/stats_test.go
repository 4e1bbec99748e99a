package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero-value Stream not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	// Population variance is 4; sample variance = 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if got := s.Sum(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("Sum = %g, want 40", got)
	}
}

func TestStreamSingle(t *testing.T) {
	var s Stream
	s.Add(3)
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatal("variance with one sample should be 0")
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("min/max with one sample")
	}
}

// TestStreamVarianceNeverNegative pins the clamp in Variance: Welford's m2
// can round microscopically negative for near-constant observations around
// a large offset, and StdDev must never become Sqrt of a negative (NaN).
func TestStreamVarianceNeverNegative(t *testing.T) {
	var s Stream
	for i := 0; i < 100; i++ {
		s.Add(1e15 + float64(i%3)*1e-2)
	}
	if v := s.Variance(); v < 0 || math.IsNaN(v) {
		t.Fatalf("Variance = %g", v)
	}
	if sd := s.StdDev(); math.IsNaN(sd) {
		t.Fatalf("StdDev = %g", sd)
	}
	// Property: no non-overflowing float64 sequence may produce a negative
	// variance. (Magnitudes near MaxFloat64 overflow Welford's
	// intermediates to Inf — out of scope for the clamp.)
	if err := quick.Check(func(xs []float64) bool {
		var q Stream
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return true
			}
			q.Add(x)
		}
		return q.Variance() >= 0 && !math.IsNaN(q.StdDev())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantile(t *testing.T) {
	var s Sample
	s.AddAll([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.95, 9.55},
	}
	for _, c := range cases {
		if got := s.Quantile(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := s.Percentile(95); math.Abs(got-9.55) > 1e-12 {
		t.Fatalf("Percentile(95) = %g", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestSampleInterleavedAddAndQuery(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort after this
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %g, want 1", got)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %g, want 10", got)
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("expected ErrNoData for all-zero actuals")
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestRelativeChange(t *testing.T) {
	if got := RelativeChange(100, 80); math.Abs(got+20) > 1e-12 {
		t.Fatalf("RelativeChange = %g, want -20", got)
	}
	if got := RelativeChange(0, 5); got != 0 {
		t.Fatalf("RelativeChange with zero base = %g, want 0", got)
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	l, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Intercept-1) > 1e-12 || math.Abs(l.Slope-2) > 1e-12 {
		t.Fatalf("fit = %+v", l)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Fatalf("R2 = %g, want 1", l.R2)
	}
	if got := l.At(10); math.Abs(got-21) > 1e-12 {
		t.Fatalf("At(10) = %g", got)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error with one point")
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error with degenerate x")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error with mismatched lengths")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	l, err := FitLinear([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope != 0 || l.Intercept != 4 || l.R2 != 1 {
		t.Fatalf("fit = %+v", l)
	}
}

func TestInterpolate(t *testing.T) {
	// The paper's overhead profiling: anchors at drop 0 and drop 0.9.
	cases := []struct{ x, want float64 }{
		{0, 10}, {0.9, 1}, {0.45, 5.5}, {-1, 10}, {2, 1},
	}
	for _, c := range cases {
		if got := Interpolate(0, 10, 0.9, 1, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Interpolate(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	// Reversed anchors give the same answer.
	if got := Interpolate(0.9, 1, 0, 10, 0.45); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("reversed anchors = %g", got)
	}
	// Coincident anchors fall back to the average.
	if got := Interpolate(1, 2, 1, 4, 1); got != 3 {
		t.Fatalf("coincident anchors = %g", got)
	}
}

// Property: Stream mean/variance agree with direct two-pass computation.
func TestPropertyStreamMatchesTwoPass(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 2
		xs := make([]float64, count)
		var s Stream
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			s.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(count)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		variance := m2 / float64(count-1)
		return math.Abs(s.Mean()-mean) < 1e-8 && math.Abs(s.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in p and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < 50; i++ {
			s.Add(rng.NormFloat64())
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := s.Quantile(p)
			if q < prev-1e-12 {
				return false
			}
			prev = q
		}
		return s.Quantile(0) <= s.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
