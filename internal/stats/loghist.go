package stats

import (
	"fmt"
	"math"
)

// LogHistogram is a fixed-bucket streaming quantile sketch over
// geometrically spaced buckets: bucket i spans [lo*g^i, lo*g^(i+1)) with
// g chosen so n buckets cover [lo, hi). Adding an observation is O(1) and
// allocation-free, memory is fixed at construction, and any quantile is
// answered to within one bucket's relative width — the tracker behind the
// streaming p95/p99 columns and the SLO-budget admission policy, where
// retaining every sample (stats.Sample) would defeat O(classes) memory.
//
// Values below lo land in bucket 0 and values at or above hi in the last
// bucket, so extreme quantiles saturate at the range edges; exact min and
// max are tracked separately and returned for p=0 and p=1.
type LogHistogram struct {
	lo, hi    float64
	invLogG   float64 // 1 / ln(g), for the bucket index
	logLo     float64
	counts    []int64
	total     int64
	min, max  float64
	edgeCache []float64 // bucket left edges, precomputed for quantile reads
}

// NewLogHistogram builds a histogram of n geometric buckets spanning
// [lo, hi). Relative resolution is (hi/lo)^(1/n)-1 per bucket; 256 buckets
// over [1e-3, 1e6) resolve better than 8.5%.
func NewLogHistogram(lo, hi float64, n int) (*LogHistogram, error) {
	if !(lo > 0) || !(hi > lo) || n <= 0 {
		return nil, fmt.Errorf("stats: NewLogHistogram invalid range [%g,%g) with %d buckets", lo, hi, n)
	}
	logG := math.Log(hi/lo) / float64(n)
	h := &LogHistogram{
		lo:        lo,
		hi:        hi,
		invLogG:   1 / logG,
		logLo:     math.Log(lo),
		counts:    make([]int64, n),
		edgeCache: make([]float64, n+1),
	}
	for i := 0; i <= n; i++ {
		h.edgeCache[i] = lo * math.Exp(logG*float64(i))
	}
	h.edgeCache[n] = hi
	return h, nil
}

// Add records one observation. Non-positive and NaN values clamp into the
// first bucket (response times are positive; zero only for degenerate
// records); a NaN counts as 0 throughout, so it can never poison the
// tracked min/max.
func (h *LogHistogram) Add(x float64) {
	if math.IsNaN(x) {
		// Without this, a NaN first observation would set min and max to
		// NaN, and every later comparison against them would fail — the
		// histogram would report NaN quantiles forever.
		x = 0
	}
	i := 0
	if x >= h.lo {
		i = int((math.Log(x) - h.logLo) * h.invLogG)
		if i >= len(h.counts) || i < 0 {
			// i < 0 happens for x = +Inf: int(Inf) is the most negative
			// int, which the upper check alone would miss.
			i = len(h.counts) - 1
		}
	}
	h.counts[i]++
	if h.total == 0 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	h.total++
}

// Count returns the number of observations.
func (h *LogHistogram) Count() int64 { return h.total }

// Quantile returns the p-quantile (0<=p<=1): the geometric midpoint of the
// bucket holding the ceil(p*total)-th observation, clamped into the exact
// observed [min, max]. The answer is within one bucket width of the exact
// sorted quantile for any p whose order statistic falls inside [lo, hi).
// It returns 0 with no data.
func (h *LogHistogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			mid := math.Sqrt(h.edgeCache[i] * h.edgeCache[i+1])
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Percentile returns the p-th percentile (p in [0,100]).
func (h *LogHistogram) Percentile(p float64) float64 { return h.Quantile(p / 100) }
