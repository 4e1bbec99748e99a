package metrics

import (
	"fmt"
	"strings"

	"dias/internal/core"
	"dias/internal/stats"
)

// ClassStats summarises the completed jobs of one priority class.
type ClassStats struct {
	Class int
	Jobs  int
	// Response/queue/exec times in seconds. P95 is exact (retained
	// samples) under NewAccumulator and histogram-derived under
	// NewBoundedAccumulator; P99 is always streamed through a fixed-bucket
	// log-scale histogram (stats.LogHistogram), accurate to within one
	// bucket width (<4.4%).
	MeanResponseSec float64
	P95ResponseSec  float64
	P99ResponseSec  float64
	MeanQueueSec    float64
	MeanExecSec     float64
	// Evictions suffered by this class's jobs.
	Evictions int
	// MeanEffectiveDrop averages the realised drop ratios.
	MeanEffectiveDrop float64
	// FailedJobs counts jobs reported failed with retries exhausted; their
	// latencies are excluded from the statistics above (Jobs counts only
	// completions).
	FailedJobs int
	// TaskRetries sums the failure-aborted task attempts re-executed by
	// this class's jobs, completed and failed alike.
	TaskRetries int
	// RejectedJobs counts jobs the admission policy shed at arrival; like
	// failed jobs they are excluded from the latency statistics, so a
	// policy cannot improve its latency columns by rejecting work without
	// the rejection showing up here.
	RejectedJobs int
}

// ScenarioResult is one policy's outcome on a workload.
type ScenarioResult struct {
	// Name is the paper label: P, NP, DA(0,20), DiAS(0,10), ...
	Name     string
	PerClass []ClassStats
	// ResourceWastePct is machine time spent on evicted attempts over all
	// machine time spent processing, in percent.
	ResourceWastePct float64
	// FailureWastePct is machine time destroyed by failures (aborted task
	// attempts and failed jobs) over all machine time, in percent.
	FailureWastePct float64
	// FailedJobs counts jobs that exhausted their retry budget;
	// TasksRetried counts failure-aborted attempts that re-executed.
	FailedJobs   int
	TasksRetried int
	// EnergyJoules is total cluster energy over the run.
	EnergyJoules float64
	// MakespanSec is the virtual time to drain the workload.
	MakespanSec float64
	// MeanPoweredNodes is the time-average powered-node count — below the
	// provisioned size when an elastic controller scales capacity in (zero
	// when the driver does not record it).
	MeanPoweredNodes float64
	// RejectedJobs counts admission-shed jobs (post-warmup) and
	// RejectedPct is their share of all post-warmup outcomes
	// (completed + failed + rejected) — the H5 mechanism column: a
	// latency "win" earned by shedding reads as a high RejectedPct, a win
	// earned by smoothing bursts does not.
	RejectedJobs int
	RejectedPct  float64
	// GoodputJobsPerSec is completed (not failed, not rejected) post-warmup
	// jobs per second of makespan — the throughput the latency columns
	// actually describe.
	GoodputJobsPerSec float64
	// SimJobsPerWallSec is host-side simulation throughput: arrivals
	// simulated per wall-clock second of the run. Machine-dependent (zero
	// when the driver does not measure it), so it belongs in benchmark
	// reports, never in deterministic figure text.
	SimJobsPerWallSec float64
	// PeakInFlightJobs is the high-water mark of dispatched-but-
	// unfinished jobs — the memory-bounding figure of a streaming run
	// (zero when the driver does not track it). Deterministic.
	PeakInFlightJobs int
}

// FillOverload derives the rejected-work and goodput fields from the
// per-class stats and the makespan; drivers call it once after PerClass
// and MakespanSec are set.
func (r *ScenarioResult) FillOverload() {
	var completed, failed, rejected int
	for _, cs := range r.PerClass {
		completed += cs.Jobs
		failed += cs.FailedJobs
		rejected += cs.RejectedJobs
	}
	r.RejectedJobs = rejected
	if total := completed + failed + rejected; total > 0 {
		r.RejectedPct = 100 * float64(rejected) / float64(total)
	}
	if r.MakespanSec > 0 {
		r.GoodputJobsPerSec = float64(completed) / r.MakespanSec
	}
}

// clampWarmup normalizes a warmup fraction into [0, 0.9].
func clampWarmup(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 0.9 {
		return 0.9
	}
	return f
}

// Accumulator folds job records into per-class statistics as they stream
// in (e.g. wired to core.Config.OnRecord), so scenario drivers never
// materialize the full record slice. Apart from the retained response-time
// samples needed for exact percentiles, memory is O(classes);
// NewBoundedAccumulator drops the retained samples too, for runs whose
// job count makes even one float per completion unaffordable.
//
// The accumulator skips the first warmupFraction of the expected
// completions as transient; expectedRecords is the anticipated total
// (for experiment drivers, the number of scheduled arrivals, since every
// arrival eventually completes).
type Accumulator struct {
	classes int
	skip    int
	seen    int
	bounded bool
	out     []ClassStats
	samples []stats.Sample
	resps   []stats.Stream
	queues  []stats.Stream
	execs   []stats.Stream
	drops   []stats.Stream
	hists   []*stats.LogHistogram
	final   []ClassStats
}

// Response-time histogram shape: geometric buckets spanning 1ms..1e6s with
// ~4.3% relative width, allocated once per class at construction so Add
// stays allocation-free on the streaming path.
const (
	respHistLo      = 1e-3
	respHistHi      = 1e6
	respHistBuckets = 480
)

// NewAccumulator returns an accumulator for the given class count sized
// for expectedRecords completions.
func NewAccumulator(classes, expectedRecords int, warmupFraction float64) *Accumulator {
	return newAccumulator(classes, expectedRecords, warmupFraction, false)
}

// NewBoundedAccumulator returns an accumulator whose memory is strictly
// O(classes) at any record count: the retained per-job response samples
// that make NewAccumulator's P95 exact are dropped, so MeanResponseSec
// comes from a Welford stream and P95 — like P99 on both paths — from
// the fixed-bucket log histogram, accurate to within one bucket width
// (<4.4%). Counts (jobs, evictions, retries, failures, rejections) are
// exact and identical to the unbounded accumulator's. This is the
// million-job variant: use it whenever the run is too large to retain a
// float per completion.
func NewBoundedAccumulator(classes, expectedRecords int, warmupFraction float64) *Accumulator {
	return newAccumulator(classes, expectedRecords, warmupFraction, true)
}

func newAccumulator(classes, expectedRecords int, warmupFraction float64, bounded bool) *Accumulator {
	a := &Accumulator{
		classes: classes,
		skip:    int(float64(expectedRecords) * clampWarmup(warmupFraction)),
		bounded: bounded,
		out:     make([]ClassStats, classes),
		resps:   make([]stats.Stream, classes),
		queues:  make([]stats.Stream, classes),
		execs:   make([]stats.Stream, classes),
		drops:   make([]stats.Stream, classes),
		hists:   make([]*stats.LogHistogram, classes),
	}
	for k := range a.out {
		a.out[k].Class = k
		h, err := stats.NewLogHistogram(respHistLo, respHistHi, respHistBuckets)
		if err != nil {
			panic(err) // constant, always-valid shape
		}
		a.hists[k] = h
	}
	if bounded {
		return a
	}
	// Pre-size the retained percentile samples from the expected total so
	// long streaming runs do not regrow them per wave of completions. The
	// per-class split is an estimate (class mixes are uneven); appends
	// stay amortized past it.
	a.samples = make([]stats.Sample, classes)
	if post := expectedRecords - a.skip; post > 0 && classes > 0 {
		for k := range a.samples {
			a.samples[k].Reserve(post / classes)
		}
	}
	return a
}

// Add folds one completed-job record into the running statistics.
func (a *Accumulator) Add(r core.JobRecord) {
	a.seen++
	if a.seen <= a.skip || r.Class < 0 || r.Class >= a.classes {
		return
	}
	k := r.Class
	if r.Rejected {
		// Shed at arrival: no latency to account, only the lost work.
		a.out[k].RejectedJobs++
		return
	}
	a.out[k].TaskRetries += r.Retries
	if r.Failed {
		// A failed job's "response" measures an abort, not a service; keep
		// it out of the latency statistics but account the failure.
		a.out[k].FailedJobs++
		return
	}
	a.out[k].Jobs++
	a.out[k].Evictions += r.Evictions
	if a.bounded {
		a.resps[k].Add(r.ResponseSec)
	} else {
		a.samples[k].Add(r.ResponseSec)
	}
	a.hists[k].Add(r.ResponseSec)
	a.queues[k].Add(r.QueueSec)
	a.execs[k].Add(r.ExecSec)
	a.drops[k].Add(r.EffectiveDropRatio)
}

// Classes finalizes and returns the per-class statistics. The means are
// computed in insertion order before the percentile sort, so the result is
// bit-identical to Aggregate over the same record sequence. The finalized
// result is cached; Add after Classes has no effect on it.
func (a *Accumulator) Classes() []ClassStats {
	if a.final != nil {
		return a.final
	}
	out := make([]ClassStats, a.classes)
	for k := range out {
		out[k] = a.out[k]
		if a.bounded {
			out[k].MeanResponseSec = a.resps[k].Mean()
			out[k].P95ResponseSec = a.hists[k].Percentile(95)
		} else {
			out[k].MeanResponseSec = a.samples[k].Mean()
			out[k].P95ResponseSec = a.samples[k].Percentile(95)
		}
		out[k].P99ResponseSec = a.hists[k].Percentile(99)
		out[k].MeanQueueSec = a.queues[k].Mean()
		out[k].MeanExecSec = a.execs[k].Mean()
		out[k].MeanEffectiveDrop = a.drops[k].Mean()
	}
	a.final = out
	return out
}

// Aggregate folds job records into per-class statistics, skipping the
// first warmupFraction of completions (transient). It is the batch form
// of Accumulator.
func Aggregate(records []core.JobRecord, classes int, warmupFraction float64) []ClassStats {
	a := NewAccumulator(classes, len(records), warmupFraction)
	for _, r := range records {
		a.Add(r)
	}
	return a.Classes()
}

// Comparison is one scenario's per-class relative difference against a
// baseline, the "Difference [%]" axis of Figures 7-11 (negative =
// improvement).
type Comparison struct {
	Name string
	// MeanDiffPct[k] and TailDiffPct[k] are relative changes of class k's
	// mean and 95th-percentile response versus the baseline.
	MeanDiffPct []float64
	TailDiffPct []float64
	// EnergyDiffPct compares total energy (Figure 11c).
	EnergyDiffPct float64
	// ResourceWastePct of this scenario (absolute, not relative).
	ResourceWastePct float64
}

// Compare computes the paper-style relative differences of each scenario
// against the baseline.
func Compare(baseline ScenarioResult, others ...ScenarioResult) []Comparison {
	out := make([]Comparison, 0, len(others))
	for _, o := range others {
		c := Comparison{
			Name:             o.Name,
			MeanDiffPct:      make([]float64, len(o.PerClass)),
			TailDiffPct:      make([]float64, len(o.PerClass)),
			EnergyDiffPct:    stats.RelativeChange(baseline.EnergyJoules, o.EnergyJoules),
			ResourceWastePct: o.ResourceWastePct,
		}
		for k := range o.PerClass {
			if k < len(baseline.PerClass) {
				c.MeanDiffPct[k] = stats.RelativeChange(baseline.PerClass[k].MeanResponseSec, o.PerClass[k].MeanResponseSec)
				c.TailDiffPct[k] = stats.RelativeChange(baseline.PerClass[k].P95ResponseSec, o.PerClass[k].P95ResponseSec)
			}
		}
		out = append(out, c)
	}
	return out
}

// classLabel names classes the way the paper does (index = priority,
// higher = more important).
func classLabel(k, classes int) string {
	switch {
	case classes == 2:
		return [2]string{"Low", "High"}[k]
	case classes == 3:
		return [3]string{"Low", "Middle", "High"}[k]
	default:
		return fmt.Sprintf("Class%d", k)
	}
}

// FormatComparisonTable renders the baseline's absolute numbers and each
// scenario's relative differences, mirroring the layout of Figures 7-11.
func FormatComparisonTable(baseline ScenarioResult, others ...ScenarioResult) string {
	var b strings.Builder
	classes := len(baseline.PerClass)
	fmt.Fprintf(&b, "%-12s baseline (absolute response times, waste %.1f%%)\n", baseline.Name, baseline.ResourceWastePct)
	for k := classes - 1; k >= 0; k-- {
		cs := baseline.PerClass[k]
		fmt.Fprintf(&b, "  %-7s mean %9.2fs   p95 %9.2fs   (n=%d)\n",
			classLabel(k, classes), cs.MeanResponseSec, cs.P95ResponseSec, cs.Jobs)
	}
	for _, c := range Compare(baseline, others...) {
		fmt.Fprintf(&b, "%-12s vs %s (waste %.1f%%, energy %+.1f%%)\n", c.Name, baseline.Name, c.ResourceWastePct, c.EnergyDiffPct)
		for k := classes - 1; k >= 0; k-- {
			fmt.Fprintf(&b, "  %-7s mean %+8.1f%%   p95 %+8.1f%%\n",
				classLabel(k, classes), c.MeanDiffPct[k], c.TailDiffPct[k])
		}
	}
	return b.String()
}

// formatScenarioTable renders the scenario-grid tables (fault, elasticity,
// overload) from one skeleton: a header line, then one row per scenario ×
// class in descending class order. The scenario name and its scenario-level
// tail cells appear only on the first (highest-class) row of each group.
// classCells writes the per-class columns (including their leading
// separator), tailCells the scenario-level columns appended to first rows.
func formatScenarioTable(header string, nameWidth int, results []ScenarioResult,
	classCells func(b *strings.Builder, cs ClassStats),
	tailCells func(b *strings.Builder, r ScenarioResult)) string {
	var b strings.Builder
	b.WriteString(header)
	for _, r := range results {
		classes := len(r.PerClass)
		for k := classes - 1; k >= 0; k-- {
			name := ""
			if k == classes-1 {
				name = r.Name
			}
			fmt.Fprintf(&b, "%-*s %-7s", nameWidth, name, classLabel(k, classes))
			classCells(&b, r.PerClass[k])
			if k == classes-1 {
				tailCells(&b, r)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// FormatFaultTable renders scenarios along the failure and capacity axes:
// per-class response statistics next to failed-job counts, task retries,
// failure waste and the time-average powered-node count — the columns the
// fault-tolerance and elasticity figures compare.
func FormatFaultTable(results ...ScenarioResult) string {
	return formatScenarioTable(
		"Scenario                  Class     Mean [s]     P95 [s]   Jobs  Failed  Retries  FailWaste  AvgNodes\n",
		25, results,
		func(b *strings.Builder, cs ClassStats) {
			fmt.Fprintf(b, " %10.2f  %10.2f  %5d  %6d  %7d",
				cs.MeanResponseSec, cs.P95ResponseSec, cs.Jobs, cs.FailedJobs, cs.TaskRetries)
		},
		func(b *strings.Builder, r ScenarioResult) {
			fmt.Fprintf(b, "  %8.1f%%  %8.1f", r.FailureWastePct, r.MeanPoweredNodes)
		})
}

// FormatElasticityTable renders the elastic-capacity comparison: per-class
// response next to the capacity actually paid for (time-average powered
// nodes) and the energy bill, the latency/cost frontier an autoscaler
// trades along.
func FormatElasticityTable(results ...ScenarioResult) string {
	return formatScenarioTable(
		"Scenario            Class     Mean [s]     P95 [s]   Jobs   AvgNodes  Energy [MJ]  Makespan [s]\n",
		19, results,
		func(b *strings.Builder, cs ClassStats) {
			fmt.Fprintf(b, " %10.2f  %10.2f  %5d",
				cs.MeanResponseSec, cs.P95ResponseSec, cs.Jobs)
		},
		func(b *strings.Builder, r ScenarioResult) {
			fmt.Fprintf(b, "   %8.1f  %11.2f  %12.1f",
				r.MeanPoweredNodes, r.EnergyJoules/1e6, r.MakespanSec)
		})
}

// FormatOverloadTable renders the offered-load sweep: per-class latency
// (mean, exact p95, histogram p99) and the jobs completed vs shed, plus the
// scenario-level rejected-work fraction and goodput. Keeping latency and
// rejection in adjacent columns is the point: an admission policy that
// "wins" the latency columns by shedding shows the price in the same row.
func FormatOverloadTable(results ...ScenarioResult) string {
	return formatScenarioTable(
		"Scenario                Class     Mean [s]     P95 [s]     P99 [s]   Jobs  Rejected   RejPct  Goodput [j/min]\n",
		23, results,
		func(b *strings.Builder, cs ClassStats) {
			fmt.Fprintf(b, " %10.2f  %10.2f  %10.2f  %5d  %8d",
				cs.MeanResponseSec, cs.P95ResponseSec, cs.P99ResponseSec, cs.Jobs, cs.RejectedJobs)
		},
		func(b *strings.Builder, r ScenarioResult) {
			fmt.Fprintf(b, "  %6.1f%%  %15.2f", r.RejectedPct, r.GoodputJobsPerSec*60)
		})
}

// FormatDecompositionTable renders Table 2: mean queueing and execution
// times per class for a set of scenarios.
func FormatDecompositionTable(results ...ScenarioResult) string {
	var b strings.Builder
	b.WriteString("Policy        Class    Queue [s]    Exec [s]\n")
	for _, r := range results {
		for k := len(r.PerClass) - 1; k >= 0; k-- {
			cs := r.PerClass[k]
			fmt.Fprintf(&b, "%-13s %-7s %9.1f  %10.1f\n",
				r.Name, classLabel(k, len(r.PerClass)), cs.MeanQueueSec, cs.MeanExecSec)
		}
	}
	return b.String()
}
