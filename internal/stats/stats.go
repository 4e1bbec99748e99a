// Package stats provides the statistics toolkit shared by the DiAS
// experiments: streaming moments, percentiles, histograms, mean absolute
// percentage error, and ordinary least squares regression (used to
// interpolate profiled overhead times, §4.3 of the paper).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by estimators that need at least one observation.
var ErrNoData = errors.New("stats: no data")

// Stream accumulates observations with Welford's algorithm, giving
// numerically stable running mean and variance plus min/max.
// The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Count returns the number of observations.
func (s *Stream) Count() int64 { return s.n }

// Mean returns the running mean, or 0 with no data.
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations. Welford's m2 can round to a tiny negative for
// near-constant inputs; clamp so StdDev never hits Sqrt of a negative.
func (s *Stream) Variance() float64 {
	if s.n < 2 || s.m2 <= 0 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 with no data.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no data.
func (s *Stream) Max() float64 { return s.max }

// Sum returns the total of all observations.
func (s *Stream) Sum() float64 { return s.mean * float64(s.n) }

// Sample retains every observation for quantile queries.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Reserve grows the sample's capacity to hold at least n observations
// without further allocation. A hint, not a bound: Add keeps working
// past it.
func (s *Sample) Reserve(n int) {
	if extra := n - cap(s.xs); extra > 0 {
		s.xs = append(make([]float64, 0, n), s.xs...)
	}
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Mean returns the sample mean, or 0 with no data.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation, or 0 with <2 observations.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var m2 float64
	for _, x := range s.xs {
		d := x - m
		m2 += d * d
	}
	return math.Sqrt(m2 / float64(n-1))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0<=p<=1) using linear interpolation
// between order statistics (type-7, the numpy default). It returns 0 with
// no data.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if p <= 0 {
		s.sort()
		return s.xs[0]
	}
	if p >= 1 {
		s.sort()
		return s.xs[len(s.xs)-1]
	}
	s.sort()
	h := p * float64(len(s.xs)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(s.xs) {
		return s.xs[lo]
	}
	frac := h - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Percentile returns the p-th percentile (p in [0,100]).
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Values returns a copy of the observations in insertion-independent
// (sorted) order.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// MAPE returns the mean absolute percentage error of predictions against
// actuals, in percent. Pairs with a zero actual are skipped; if every pair
// is skipped or the inputs are empty it returns ErrNoData.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("stats: MAPE length mismatch %d vs %d", len(actual), len(predicted))
	}
	var sum float64
	var n int
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((predicted[i] - actual[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrNoData
	}
	return 100 * sum / float64(n), nil
}

// RelativeChange returns (b-a)/a in percent: the "Difference [%]" axis the
// paper's figures report against the preemptive baseline. A negative result
// means b improved (decreased) relative to a.
func RelativeChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// Linear is a fitted line y = Intercept + Slope*x.
type Linear struct {
	Intercept, Slope float64
	R2               float64 // coefficient of determination
}

// FitLinear computes the ordinary least squares fit of y on x.
// It needs at least two points with distinct x values.
func FitLinear(x, y []float64) (Linear, error) {
	if len(x) != len(y) {
		return Linear{}, fmt.Errorf("stats: FitLinear length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return Linear{}, ErrNoData
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, errors.New("stats: FitLinear degenerate x values")
	}
	slope := sxy / sxx
	l := Linear{Intercept: my - slope*mx, Slope: slope}
	if syy > 0 {
		l.R2 = sxy * sxy / (sxx * syy)
	} else {
		l.R2 = 1 // y constant and perfectly fit
	}
	return l, nil
}

// At evaluates the fitted line at x.
func (l Linear) At(x float64) float64 { return l.Intercept + l.Slope*x }

// Interpolate returns the linear interpolation of y between two anchor
// points (x0,y0) and (x1,y1) at x, clamping outside the interval. This is
// the two-point overhead interpolation the paper uses for profiling (§4.3).
func Interpolate(x0, y0, x1, y1, x float64) float64 {
	if x0 == x1 {
		return (y0 + y1) / 2
	}
	if x1 < x0 {
		x0, x1 = x1, x0
		y0, y1 = y1, y0
	}
	switch {
	case x <= x0:
		return y0
	case x >= x1:
		return y1
	default:
		f := (x - x0) / (x1 - x0)
		return y0*(1-f) + y1*f
	}
}
