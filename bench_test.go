// Package dias_test hosts the full benchmark harness: one benchmark per
// table and figure of the paper's evaluation, regenerating the data the
// paper plots (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers). Run with
//
//	go test -bench=. -benchmem
//
// Each iteration regenerates the complete figure at QuickScale; the CLI
// cmd/dias-experiments produces the larger FullScale numbers.
package dias_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dias"
	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/experiments"
	"dias/internal/federation"
	"dias/internal/model"
	"dias/internal/phdist"
	"dias/internal/runner"
	"dias/internal/simtime"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// benchScale keeps per-iteration work bounded for testing.B; -short
// shrinks the arrival count further for the CI fast lane.
func benchScale() experiments.Scale {
	s := experiments.Scale{Jobs: 120, WarmupFraction: 0.1, Seed: 1}
	if testing.Short() {
		s.Jobs = 40
	}
	return s
}

// skipIfShort drops the graph-backed benchmarks from the -short lane;
// their jobs are ~10x heavier per arrival than the text figures.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy graph figure; run without -short")
	}
}

// BenchmarkFigureSetRunner is the runner-backed path: it regenerates a
// representative figure set as one concurrent grid through internal/runner.
// Each figure runs its inner grid on a single worker so the cross-figure
// pool is the only source of parallelism — total concurrency stays at
// min(figures, cores) rather than oversubscribing every core per figure.
func BenchmarkFigureSetRunner(b *testing.B) {
	sc := benchScale()
	sc.Workers = 1
	tasks := []runner.Task[fmt.Stringer]{
		func(context.Context) (fmt.Stringer, error) { return experiments.Motivation(sc) },
		func(context.Context) (fmt.Stringer, error) { return experiments.Figure7(sc) },
		func(context.Context) (fmt.Stringer, error) { return experiments.Figure9(sc) },
		func(context.Context) (fmt.Stringer, error) { return experiments.ExtensionVariableSizes(sc) },
	}
	pool := runner.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Map(context.Background(), pool, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelChurn isolates the simulation spine from the analytics
// compute: a single no-op-stage job template re-executed through the full
// scheduler/engine/simtime path. It is the benchmark to watch when
// touching the event queue, dispatch, or buffer management — figure
// benchmarks also carry per-record workload compute.
func BenchmarkKernelChurn(b *testing.B) {
	input := make(engine.Dataset, 40)
	for p := range input {
		input[p] = engine.Partition{{Key: "k", Value: 1.0}}
	}
	job := &engine.Job{
		Name:      "churn",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 10},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(2), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 200; j++ {
			stack.SubmitAt(float64(j), j%2, job)
		}
		stack.Run()
		if got := len(stack.Records()); got != 200 {
			b.Fatalf("completed %d jobs, want 200", got)
		}
	}
}

// BenchmarkKernelChurnTraced is the same spine with the telemetry layer
// armed: every lifecycle hook fires into a collector and the run is
// driven through the gauge sampler. Compare against BenchmarkKernelChurn
// to read the enabled-telemetry overhead; BENCHMARKING.md gates it at
// <10% wall-clock (the disabled case is gated at zero added allocations
// by BenchmarkKernelChurn itself — tracer hooks are nil-guarded).
func BenchmarkKernelChurnTraced(b *testing.B) {
	input := make(engine.Dataset, 40)
	for p := range input {
		input[p] = engine.Partition{{Key: "k", Value: 1.0}}
	}
	job := &engine.Job{
		Name:      "churn",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 10},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := telemetry.NewCollector(telemetry.Config{Seed: 1})
		stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(2), Seed: 1, Telemetry: col})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 200; j++ {
			stack.SubmitAt(float64(j), j%2, job)
		}
		stack.Run()
		if got := len(stack.Records()); got != 200 {
			b.Fatalf("completed %d jobs, want 200", got)
		}
		if col.SeenJobs() != 200 {
			b.Fatalf("traced %d jobs, want 200", col.SeenJobs())
		}
	}
}

// BenchmarkEngineTextJob runs one warm 50-partition word-popularity job
// per iteration straight through engine.Submit on each execution plane:
// payload (the submitter reads JobResult.Output, so map output is bucketed
// and the reduce stage computes) and count-only (nobody reads it, so both
// stages carry record counts). The simulated job is identical on both —
// internal/engine's oracle test holds that line — so the ns/op and
// allocs/op gap is exactly what the count-only plane saves per job. The
// third case is what every cell of every figure and every federation
// member pays first: a fresh stack (simulation, cluster, engine) running a
// template some other engine already filled. The stage memo belongs to the
// template, so it reports 0 compute-calls/op.
func BenchmarkEngineTextJob(b *testing.B) {
	corpus, err := workload.SynthesizeCorpus(rand.New(rand.NewSource(1)), workload.DefaultCorpusConfig())
	if err != nil {
		b.Fatal(err)
	}
	job := analytics.WordPopularityJob("text", corpus, 10, 1<<28)
	computeCalls := 0
	for si := range job.Stages {
		if inner := job.Stages[si].Compute; inner != nil {
			job.Stages[si].Compute = func(in []engine.Record) []engine.Record {
				computeCalls++
				return inner(in)
			}
		}
	}
	// runOn submits the template once on a fresh stack and returns a
	// function that submits it again on the same stack.
	runOn := func(b *testing.B, opts engine.SubmitOptions) func() {
		sim := simtime.New()
		clu, err := cluster.New(sim, cluster.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), 1)
		if err != nil {
			b.Fatal(err)
		}
		run := func() {
			if _, err := eng.Submit(job, opts); err != nil {
				b.Fatal(err)
			}
			sim.Run()
		}
		run()
		return run
	}
	planes := []struct {
		name    string
		discard bool
	}{{"payload", false}, {"count-only", true}}
	for _, plane := range planes {
		b.Run(plane.name, func(b *testing.B) {
			completed := 0
			run := runOn(b, engine.SubmitOptions{
				DiscardOutput: plane.discard,
				OnComplete:    func(engine.JobResult) { completed++ },
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			if completed != b.N+1 {
				b.Fatalf("completed %d jobs, want %d", completed, b.N+1)
			}
		})
	}
	b.Run("fresh-engine-warm-template", func(b *testing.B) {
		completed := 0
		opts := engine.SubmitOptions{
			DiscardOutput: true,
			OnComplete:    func(engine.JobResult) { completed++ },
		}
		runOn(b, opts) // some engine, once: the template is warm from here on
		b.ReportAllocs()
		b.ResetTimer()
		before := computeCalls
		for i := 0; i < b.N; i++ {
			runOn(b, opts)
		}
		b.ReportMetric(float64(computeCalls-before)/float64(b.N), "compute-calls/op")
		if completed != b.N+1 {
			b.Fatalf("completed %d jobs, want %d", completed, b.N+1)
		}
	})
}

// warmTriangleJob returns a function that runs one θ = 0.1 triangle-count
// job over a 300-node Barabási–Albert graph (100 partitions, 100 buckets,
// count-only: the shape of the benchmark of record's stack-graph
// workload) on one engine, after running it once so the template memo and
// the pooled scratch are warm, and the number of jobs completed so far.
func warmTriangleJob(tb testing.TB) (run func(), completed *int) {
	edges, err := workload.SynthesizeGraph(rand.New(rand.NewSource(1)), workload.GraphConfig{Nodes: 300, EdgesPerNode: 3})
	if err != nil {
		tb.Fatal(err)
	}
	job := analytics.TriangleCountJob("tc", analytics.EdgeDataset(edges, 100), 100, 750<<20)
	sim := simtime.New()
	clu, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	completed = new(int)
	opts := engine.SubmitOptions{
		DropRatios:    []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		DiscardOutput: true,
		OnComplete:    func(engine.JobResult) { *completed++ },
	}
	run = func() {
		if _, err := eng.Submit(job, opts); err != nil {
			tb.Fatal(err)
		}
		sim.Run()
	}
	run()
	return run, completed
}

// BenchmarkTriangleStages runs one warm triangle-count job per iteration
// (see warmTriangleJob). Stage 0 is served from the template memo, so
// ns/op and allocs/op are the dedup, adjacency, wedges and join stages
// plus shuffle bucketing: the per-job allocation count of the graph data
// plane, tracked per commit.
func BenchmarkTriangleStages(b *testing.B) {
	run, completed := warmTriangleJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if *completed != b.N+1 {
		b.Fatalf("completed %d jobs, want %d", *completed, b.N+1)
	}
}

// TestTriangleJobAllocations gates BenchmarkTriangleStages's job: a warm
// triangle-count job allocates at most 420 times (382 when the gate was
// set, about four per task), so an allocation per record in any stage
// fails it.
func TestTriangleJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	run, completed := warmTriangleJob(t)
	// The shuffle buckets and pooled scratch reach their working sizes
	// over the first few jobs.
	for range 10 {
		run()
	}
	const ceiling = 420
	if got := testing.AllocsPerRun(20, run); got > ceiling {
		t.Errorf("one warm triangle-count job: %v allocations, ceiling %d", got, ceiling)
	}
	if *completed != 32 {
		t.Fatalf("completed %d jobs, want 32", *completed)
	}
}

// BenchmarkSynthesizeCorpus builds the default text corpus (50 partitions
// of 60 twelve-word posts) per iteration: the input every text figure
// synthesizes cold. allocs/op is one box per post plus a few per
// partition; nothing is allocated per word.
func BenchmarkSynthesizeCorpus(b *testing.B) {
	cfg := workload.DefaultCorpusConfig()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.SynthesizeCorpus(rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Partitions*cfg.PostsPerPartition), "ns/post")
}

// BenchmarkWaveLevelProcessingTime assembles the §4.2 wave-level PH of a
// Figure 4 text job (20 slots, 50 map tasks at θ = 0.2, 10 reducers,
// fitted setup, shuffle and wave times) and takes its mean: the model
// layer's cold cost per predicted point.
func BenchmarkWaveLevelProcessingTime(b *testing.B) {
	fit := func(mean, scv float64) *phdist.PH {
		p, err := phdist.FitMeanSCV(mean, scv)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	mapWave, redWave := fit(8.5, 0.02), fit(1.5, 0.02)
	cfg := model.WaveLevelConfig{
		Slots:       20,
		MapTasks:    model.FixedTasks(50),
		ReduceTasks: model.FixedTasks(10),
		ThetaMap:    0.2,
		Setup:       fit(5, 0.05),
		Shuffle:     fit(1.2, 0.05),
		MapWave:     func(int) *phdist.PH { return mapWave },
		ReduceWave:  func(int) *phdist.PH { return redWave },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ph, err := cfg.ProcessingTime()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ph.Mean(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatcherRouting isolates the federation dispatch hot path:
// 10k routing decisions across an 8-cluster federation per policy, with
// member backlogs populated so backlog/budget scans do real work. Routing
// sits on every arrival, so like the PR 2 hot paths it must stay
// allocation-free (-benchmem).
func BenchmarkDispatcherRouting(b *testing.B) {
	fed, err := dias.NewFederation(dias.FederationConfig{
		Clusters: make([]cluster.Config, 8), // zero-value entries: default testbed
		Policy:   core.PolicyNP(2),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	members := fed.Members()
	input := make(engine.Dataset, 8)
	for p := range input {
		input[p] = engine.Partition{{Key: "k", Value: 1.0}}
	}
	job := &engine.Job{
		Name:      "route",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 4},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
	// Uneven backlogs so argmin scans cannot shortcut on the first member.
	for i, m := range members {
		for j := 0; j < 1+i%3; j++ {
			if err := m.Scheduler.Arrive(j%2, job); err != nil {
				b.Fatal(err)
			}
		}
	}
	arr := federation.Arrival{Class: 1, Job: job, Home: 3}
	policies := []federation.RoutingPolicy{
		federation.NewRandom(1),
		federation.NewRoundRobin(),
		federation.NewJoinShortestQueue(),
		federation.NewLeastLoaded(),
		federation.NewSprintAware(),
		federation.NewDataLocal(4),
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 10000; j++ {
					if idx := p.Route(arr, members); idx < 0 || idx >= len(members) {
						b.Fatalf("routed out of range: %d", idx)
					}
				}
			}
		})
	}
}

// BenchmarkFederationChurnRouting measures the routing hot path while
// the federation churns underneath it: member-level outages alternate
// the candidate set between the full member slice and the
// outage-filtered one, and elastic commission/decommission of nodes
// moves the utilization and power state the scans read. Allocations are
// reported here (-benchmem) and asserted to be zero in
// federation.TestLoadIndexMatchesRecompute.
func BenchmarkFederationChurnRouting(b *testing.B) {
	fed, err := dias.NewFederation(dias.FederationConfig{
		Clusters: make([]cluster.Config, 8),
		Policy:   core.PolicyNP(2),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	members := fed.Members()
	input := make(engine.Dataset, 8)
	for p := range input {
		input[p] = engine.Partition{{Key: "k", Value: 1.0}}
	}
	job := &engine.Job{
		Name:      "churn-route",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 4},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
	for i, m := range members {
		for j := 0; j < 1+i%3; j++ {
			if err := m.Scheduler.Arrive(j%2, job); err != nil {
				b.Fatal(err)
			}
		}
	}
	arr := federation.Arrival{Class: 1, Job: job, Home: 3}
	// churn flips one member in and out of an outage and one node in and
	// out of service, refreshing the filtered candidate set the way the
	// dispatcher would.
	down := false
	avail := make([]*federation.Member, 0, len(members))
	churn := func() []*federation.Member {
		if down {
			if err := fed.SetMemberDown(2, false); err != nil {
				b.Fatal(err)
			}
			if err := members[5].Engine.CommissionNode(0); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := fed.SetMemberDown(2, true); err != nil {
				b.Fatal(err)
			}
			if err := members[5].Engine.DecommissionNode(0); err != nil {
				b.Fatal(err)
			}
		}
		down = !down
		avail = avail[:0]
		for _, m := range members {
			if m.Available() {
				avail = append(avail, m)
			}
		}
		return avail
	}
	policies := []federation.RoutingPolicy{
		federation.NewRandom(1),
		federation.NewRoundRobin(),
		federation.NewJoinShortestQueue(),
		federation.NewLeastLoaded(),
		federation.NewSprintAware(),
		federation.NewDataLocal(4),
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for batch := 0; batch < 4; batch++ {
					cands := churn()
					for j := 0; j < 2500; j++ {
						if idx := p.Route(arr, cands); idx < 0 || idx >= len(cands) {
							b.Fatalf("routed out of range: %d", idx)
						}
					}
				}
			}
		})
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(experiments.Figure8EqualSizes, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(experiments.Figure8MoreHigh, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(experiments.Figure8HalfLoad, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	skipIfShort(b)
	sc := benchScale()
	sc.Jobs = 80
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11a(b *testing.B) {
	skipIfShort(b)
	sc := benchScale()
	sc.Jobs = 80
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(sc)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Limited.String()
	}
}

func BenchmarkFigure11b(b *testing.B) {
	skipIfShort(b)
	sc := benchScale()
	sc.Jobs = 80
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(sc)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Unlimited.String()
	}
}

func BenchmarkFigure11c(b *testing.B) {
	skipIfShort(b)
	sc := benchScale()
	sc.Jobs = 80
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(sc)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.EnergyTable()
	}
}

func BenchmarkTable2(b *testing.B) {
	skipIfShort(b)
	sc := benchScale()
	sc.Jobs = 80
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(sc)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Table2()
	}
}

func BenchmarkAblationSprintTimeout(b *testing.B) {
	skipIfShort(b)
	sc := benchScale()
	sc.Jobs = 80
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSprintTimeout(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEvictionResume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEvictionResume(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDropTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDropTiming(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationModelLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationModelLevel(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionBursty(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 90
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionBursty(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionFailures(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 90
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionFailures(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionVariableSizes(b *testing.B) {
	sc := benchScale()
	sc.Jobs = 90
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionVariableSizes(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Motivation(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionAdaptive(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}
