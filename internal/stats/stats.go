// Package stats provides the statistics toolkit shared by the DiAS
// experiments: streaming moments, percentiles, log-bucketed histograms,
// relative change, and the two-point interpolation of profiled overhead
// times (§4.3 of the paper).
package stats

import (
	"math"
	"sort"
)

// Stream accumulates observations with Welford's algorithm, giving
// numerically stable running mean and variance.
// The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
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

// RelativeChange returns (b-a)/a in percent: the "Difference [%]" axis the
// paper's figures report against the preemptive baseline. A negative result
// means b improved (decreased) relative to a.
func RelativeChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

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
