package runner

import (
	"fmt"
	"math"

	"dias/internal/metrics"
	"dias/internal/stats"
)

// Estimate is a replicate statistic: the mean across seeds plus the
// half-width of its 95% confidence interval (Student's t; zero with fewer
// than two replicates).
type Estimate struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// tQuantile975 holds t(0.975, df) for df = 1..30; replication counts are
// small, so the normal 1.96 would understate the interval badly (6.5x at
// two replicates).
var tQuantile975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tQuantile(df int64) float64 {
	if df < 1 {
		return 0
	}
	if df <= int64(len(tQuantile975)) {
		return tQuantile975[df-1]
	}
	return 1.96
}

// EstimateOf aggregates per-seed values of one metric into a mean/CI
// estimate — the per-seed evidence the hypothesis harness' Dominance
// checks read (internal/hypotheses). Degenerate inputs stay well-defined:
// a single value yields a zero-width interval, and near-constant values
// whose variance cancels to a floating-point negative yield CI95 = 0
// rather than NaN.
func EstimateOf(xs []float64) Estimate {
	var s stats.Stream
	for _, x := range xs {
		s.Add(x)
	}
	e := Estimate{Mean: s.Mean()}
	if n := s.Count(); n >= 2 {
		if ci := tQuantile(n-1) * s.StdDev() / math.Sqrt(float64(n)); ci > 0 {
			e.CI95 = ci
		}
	}
	return e
}

// ClassSummary aggregates one priority class's metrics across replicates.
type ClassSummary struct {
	Class             int      `json:"class"`
	Jobs              Estimate `json:"jobs"`
	MeanResponseSec   Estimate `json:"mean_response_sec"`
	P95ResponseSec    Estimate `json:"p95_response_sec"`
	MeanQueueSec      Estimate `json:"mean_queue_sec"`
	MeanExecSec       Estimate `json:"mean_exec_sec"`
	MeanEffectiveDrop Estimate `json:"mean_effective_drop"`
	Evictions         Estimate `json:"evictions"`
}

// Summary aggregates one scenario's results across seed replicates.
type Summary struct {
	Name             string         `json:"name"`
	Seeds            []int64        `json:"seeds"`
	PerClass         []ClassSummary `json:"per_class"`
	ResourceWastePct Estimate       `json:"resource_waste_pct"`
	EnergyJoules     Estimate       `json:"energy_joules"`
	MakespanSec      Estimate       `json:"makespan_sec"`
	// Failure and elasticity columns (zero for healthy fixed-size runs);
	// carried into BENCH_results.json so the bench-regression gate covers
	// them.
	FailureWastePct  Estimate `json:"failure_waste_pct"`
	FailedJobs       Estimate `json:"failed_jobs"`
	TasksRetried     Estimate `json:"tasks_retried"`
	MeanPoweredNodes Estimate `json:"mean_powered_nodes"`
	// Streaming-scale columns, left out of the JSON when the driver does
	// not measure them (most scenarios; readers take absent as zero).
	// SimJobsPerWallSec is machine-dependent — reported for trending, never
	// gated; PeakInFlightJobs is deterministic and gated like any other
	// column.
	SimJobsPerWallSec Estimate `json:"sim_jobs_per_wall_sec,omitzero"`
	PeakInFlightJobs  Estimate `json:"peak_in_flight_jobs,omitzero"`
}

// Summarize aggregates per-seed replicates of one scenario into mean/CI
// estimates. All replicates must agree on scenario name and class count,
// and pair up with the seed list.
func Summarize(seeds []int64, reps []metrics.ScenarioResult) (Summary, error) {
	if len(reps) == 0 {
		return Summary{}, fmt.Errorf("runner: no replicates to summarize")
	}
	if len(seeds) != len(reps) {
		return Summary{}, fmt.Errorf("runner: %d seeds vs %d replicates", len(seeds), len(reps))
	}
	name, classes := reps[0].Name, len(reps[0].PerClass)
	for _, r := range reps[1:] {
		if r.Name != name || len(r.PerClass) != classes {
			return Summary{}, fmt.Errorf("runner: replicate mismatch: %q/%d classes vs %q/%d",
				name, classes, r.Name, len(r.PerClass))
		}
	}
	pick := func(get func(metrics.ScenarioResult) float64) Estimate {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = get(r)
		}
		return EstimateOf(xs)
	}
	out := Summary{
		Name:             name,
		Seeds:            append([]int64(nil), seeds...),
		ResourceWastePct: pick(func(r metrics.ScenarioResult) float64 { return r.ResourceWastePct }),
		EnergyJoules:     pick(func(r metrics.ScenarioResult) float64 { return r.EnergyJoules }),
		MakespanSec:      pick(func(r metrics.ScenarioResult) float64 { return r.MakespanSec }),
		FailureWastePct:  pick(func(r metrics.ScenarioResult) float64 { return r.FailureWastePct }),
		FailedJobs:       pick(func(r metrics.ScenarioResult) float64 { return float64(r.FailedJobs) }),
		TasksRetried:     pick(func(r metrics.ScenarioResult) float64 { return float64(r.TasksRetried) }),
		MeanPoweredNodes: pick(func(r metrics.ScenarioResult) float64 { return r.MeanPoweredNodes }),
		SimJobsPerWallSec: pick(func(r metrics.ScenarioResult) float64 {
			return r.SimJobsPerWallSec
		}),
		PeakInFlightJobs: pick(func(r metrics.ScenarioResult) float64 {
			return float64(r.PeakInFlightJobs)
		}),
	}
	for k := 0; k < classes; k++ {
		k := k
		cls := func(get func(metrics.ClassStats) float64) Estimate {
			return pick(func(r metrics.ScenarioResult) float64 { return get(r.PerClass[k]) })
		}
		out.PerClass = append(out.PerClass, ClassSummary{
			Class:             k,
			Jobs:              cls(func(c metrics.ClassStats) float64 { return float64(c.Jobs) }),
			MeanResponseSec:   cls(func(c metrics.ClassStats) float64 { return c.MeanResponseSec }),
			P95ResponseSec:    cls(func(c metrics.ClassStats) float64 { return c.P95ResponseSec }),
			MeanQueueSec:      cls(func(c metrics.ClassStats) float64 { return c.MeanQueueSec }),
			MeanExecSec:       cls(func(c metrics.ClassStats) float64 { return c.MeanExecSec }),
			MeanEffectiveDrop: cls(func(c metrics.ClassStats) float64 { return c.MeanEffectiveDrop }),
			Evictions:         cls(func(c metrics.ClassStats) float64 { return float64(c.Evictions) }),
		})
	}
	return out, nil
}

// SummarizeAll aggregates replicated runs of a whole scenario grid:
// reps[r][i] is the i-th scenario of the grid under seed seeds[r]. Every
// replicate must produce the same scenario sequence.
func SummarizeAll(seeds []int64, reps [][]metrics.ScenarioResult) ([]Summary, error) {
	if len(reps) == 0 {
		return nil, nil
	}
	n := len(reps[0])
	for r, rep := range reps {
		if len(rep) != n {
			return nil, fmt.Errorf("runner: replicate %d has %d scenarios, want %d", r, len(rep), n)
		}
	}
	out := make([]Summary, 0, n)
	for i := 0; i < n; i++ {
		col := make([]metrics.ScenarioResult, len(reps))
		for r := range reps {
			col[r] = reps[r][i]
		}
		s, err := Summarize(seeds, col)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}
