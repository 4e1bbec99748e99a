package metrics

import (
	"dias/internal/core"
	"dias/internal/stats"
)

// Slowdown metrics reproduce the measurement the paper's motivation builds
// on (§1, §2.1): the latency slowdown of a job is its end-to-end response
// time divided by the execution time of its successful attempt (i.e.
// excluding time lost to evictions), and production traces show the lowest
// priority suffering ~3x the slowdown of high priorities under preemptive
// scheduling.

// SlowdownStats summarises one class's slowdowns.
type SlowdownStats struct {
	Class int
	Jobs  int
	// MeanSlowdown and P95Slowdown are response/exec ratios (>= 1).
	MeanSlowdown float64
	P95Slowdown  float64
}

// SlowdownAccumulator computes per-class slowdown statistics from a
// record stream, skipping the first warmupFraction of completions (see
// Accumulator for the expectedRecords/warmup convention).
type SlowdownAccumulator struct {
	classes int
	skip    int
	seen    int
	jobs    []int
	samples []stats.Sample
}

// NewSlowdownAccumulator returns a slowdown accumulator for the given
// class count sized for expectedRecords completions.
func NewSlowdownAccumulator(classes, expectedRecords int, warmupFraction float64) *SlowdownAccumulator {
	return &SlowdownAccumulator{
		classes: classes,
		skip:    int(float64(expectedRecords) * clampWarmup(warmupFraction)),
		jobs:    make([]int, classes),
		samples: make([]stats.Sample, classes),
	}
}

// Add folds one completed-job record into the slowdown statistics.
func (a *SlowdownAccumulator) Add(r core.JobRecord) {
	a.seen++
	if a.seen <= a.skip || r.Class < 0 || r.Class >= a.classes || r.ExecSec <= 0 {
		return
	}
	a.jobs[r.Class]++
	a.samples[r.Class].Add(r.ResponseSec / r.ExecSec)
}

// Classes finalizes and returns the per-class slowdown statistics.
func (a *SlowdownAccumulator) Classes() []SlowdownStats {
	out := make([]SlowdownStats, a.classes)
	for k := range out {
		out[k].Class = k
		out[k].Jobs = a.jobs[k]
		out[k].MeanSlowdown = a.samples[k].Mean()
		out[k].P95Slowdown = a.samples[k].Percentile(95)
	}
	return out
}

// SlowdownRatio returns the mean slowdown of the lowest class divided by
// that of the highest — the paper's headline "3x" motivation number. It
// returns 0 when either class has no jobs.
func SlowdownRatio(slowdowns []SlowdownStats) float64 {
	if len(slowdowns) < 2 {
		return 0
	}
	low, high := slowdowns[0], slowdowns[len(slowdowns)-1]
	if low.Jobs == 0 || high.Jobs == 0 || high.MeanSlowdown <= 0 {
		return 0
	}
	return low.MeanSlowdown / high.MeanSlowdown
}
