package experiments

// The scale driver measures the streaming million-job path itself: how
// fast the simulator pushes jobs through an 8-cluster federation
// (simulated-jobs/sec of wall clock) and how much live state that takes
// (peak in-flight jobs), across the arrival-process burstiness axis and
// a geometric job-count axis. Everything on this path is O(1) in the
// job count — feed-forward arrival injection (workload.Inject), bounded
// accumulators (metrics.NewBoundedAccumulator), discarded records — so
// the -jobs flag is the axis top, not a cost ceiling: the headline run
// is
//
//	go run ./cmd/dias-experiments -fig scale -jobs 1000000
//
// which replays {10k, 100k, 1M} jobs per cell. Throughput lands in
// BENCH_results.json (sim_jobs_per_wall_sec); the rendered text carries
// only deterministic columns, so the figure stays byte-identical at any
// worker count.

import (
	"fmt"
	"strings"

	"dias/internal/federation"
	"dias/internal/metrics"
	"dias/internal/workload"
)

// scaleMembers is the federation size of every scale cell: the
// 8-cluster layout of the acceptance scenario (the largest point of the
// scale-out figure's axis).
const scaleMembers = 8

// scaleUtilization is the per-cluster nominal load of the scale cells:
// high enough that queues form and burstiness matters, low enough that
// the in-flight population stays stochastically bounded.
const scaleUtilization = 0.7

// Gamma CV and MMPP shape of the bursty scale cells. CV 3.5 is the
// SNIPPETS.md H16 operating point; the MMPP bursts at 4x the mean rate
// for a stationary 1/6 of the time (5 min calm, 1 min burst), spending
// 2/3 of the mean rate inside bursts.
const (
	scaleGammaCV     = 3.5
	scaleMMPPBurst   = 4.0
	scaleMMPPCalmSec = 300.0
	scaleMMPPHotSec  = 60.0
)

// scaleProcess is one point of the arrival-process axis.
type scaleProcess struct {
	name string
	make func(rates []float64) (workload.Process, error)
}

// scaleProcesses is the burstiness axis: Poisson (CV 1, independent
// gaps), Gamma renewal at CV 3.5 (independent but heavy-tailed gaps),
// and a 2-state MMPP (correlated rate episodes) — all at identical
// per-class mean rates.
func scaleProcesses() []scaleProcess {
	return []scaleProcess{
		{"poisson", func(rates []float64) (workload.Process, error) {
			return workload.NewPoissonMix(rates)
		}},
		{fmt.Sprintf("gamma-cv%.1f", scaleGammaCV), func(rates []float64) (workload.Process, error) {
			return workload.NewGamma(rates, scaleGammaCV)
		}},
		{fmt.Sprintf("mmpp-x%.0f", scaleMMPPBurst), func(rates []float64) (workload.Process, error) {
			return workload.NewMMPP(rates, scaleMMPPBurst, [2]float64{scaleMMPPCalmSec, scaleMMPPHotSec})
		}},
	}
}

// scaleRoutingSet is the routing axis: the backlog-aware reference
// policy against the stateless baseline (the full six-policy comparison
// lives in the federation figures; here routing is a control, not the
// subject).
func scaleRoutingSet() []fedPolicyFactory {
	return []fedPolicyFactory{
		{"jsq", func(int64) federation.RoutingPolicy { return federation.NewJoinShortestQueue() }},
		{"random", federation.NewRandom},
	}
}

// scaleJobCounts turns the -jobs flag into the geometric count axis
// {top/100, top/10, top}, clamped to the driver minimum and
// deduplicated (a small top collapses points).
func scaleJobCounts(top int) []int {
	var counts []int
	for _, n := range []int{top / 100, top / 10, top} {
		if n < 10 {
			n = 10
		}
		if len(counts) == 0 || counts[len(counts)-1] != n {
			counts = append(counts, n)
		}
	}
	return counts
}

// ScaleFigure is the scale driver's output: one row per (process,
// routing, job count) cell.
type ScaleFigure struct {
	Title string
	Rows  []metrics.FederationScenarioResult
	// RowJobs[i] is the arrival count of Rows[i] (the job-count axis
	// point; the completed column of the row excludes warmup).
	RowJobs []int
}

// String renders the deterministic columns only — counts, simulated-
// time goodput and tail latencies. Wall-clock throughput is machine-
// dependent and lives solely in the benchmark JSON, keeping this text
// byte-identical at any worker count.
func (f *ScaleFigure) String() string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	b.WriteString("Scenario                      Jobs  Completed  PeakInFlight  Goodput [j/s]  P99 low [s]  P99 high [s]\n")
	for i, r := range f.Rows {
		var completed int
		for _, cs := range r.Overall.PerClass {
			completed += cs.Jobs
		}
		p99 := func(k int) float64 {
			if k < len(r.Overall.PerClass) {
				return r.Overall.PerClass[k].P99ResponseSec
			}
			return 0
		}
		fmt.Fprintf(&b, "%-26s %7d  %9d  %12d  %13.2f  %11.2f  %12.2f\n",
			r.Name, f.RowJobs[i], completed, r.Overall.PeakInFlightJobs,
			r.Overall.GoodputJobsPerSec, p99(0), p99(1))
	}
	return b.String()
}

// Scenarios returns the federation-wide rollups (with the wall-clock
// throughput and peak in-flight fields set), the rows the benchmark
// report aggregates.
func (f *ScaleFigure) Scenarios() []metrics.ScenarioResult {
	out := make([]metrics.ScenarioResult, len(f.Rows))
	for i, r := range f.Rows {
		out[i] = r.Overall
	}
	return out
}

// ScaleThroughput runs the streaming scale grid: arrival process x job
// count x routing policy on an 8-cluster federation at 70% nominal
// load, every cell on the bounded-memory path end to end.
func ScaleThroughput(scale Scale) (*ScaleFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	variants, rates, err := fedWorkload(scale, scaleMembers, scaleUtilization)
	if err != nil {
		return nil, err
	}
	members := homogeneousMembers(scaleMembers)
	scaled := scaleRates(rates, capacityFactor(members))
	counts := scaleJobCounts(scale.Jobs)
	var scs []fedScenario
	var jobsPerRow []int
	for _, p := range scaleProcesses() {
		for _, r := range scaleRoutingSet() {
			for _, n := range counts {
				cellScale := scale
				cellScale.Jobs = n
				scs = append(scs, fedScenario{
					name:        fmt.Sprintf("%s/%s/%d", p.name, r.name, n),
					members:     members,
					policy:      r,
					rates:       scaled,
					variants:    variants,
					scale:       cellScale,
					arrivals:    p.make,
					bounded:     true,
					measureWall: true,
				})
				jobsPerRow = append(jobsPerRow, n)
			}
		}
	}
	rows, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &ScaleFigure{
		Title: fmt.Sprintf(
			"Streaming scale: arrival process x job count x routing (%d clusters, %.0f%% per-cluster load, bounded memory)",
			scaleMembers, 100*scaleUtilization),
		Rows:    rows,
		RowJobs: jobsPerRow,
	}, nil
}
