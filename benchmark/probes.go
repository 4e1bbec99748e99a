package main

// Isolated per-layer probes. Each one times calls into one layer's public
// functions from outside, in a loop that lasts its slice of the probe
// budget, so the traced run's lump of "spine" self time can be apportioned
// and a change to one layer has a number of its own to move.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"time"

	"dias"
	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/federation"
	"dias/internal/metrics"
	"dias/internal/model"
	"dias/internal/phdist"
	"dias/internal/queueing"
	"dias/internal/runner"
	"dias/internal/simtime"
	"dias/internal/stats"
	"dias/internal/telemetry"
	"dias/internal/trace"
	"dias/internal/workload"
)

// probeOut is one probe reading and how many operations it averaged.
type probeOut struct {
	name, unit string
	value      float64
	n          int
}

// probeCtx is what every probe gets: its time slice and the seed.
type probeCtx struct {
	slice time.Duration
	seed  int64
}

// loop calls fn, which performs ops operations, until the slice is spent
// and returns nanoseconds per operation and the operation count. fn must
// batch enough work that reading the clock per call is free.
func (c probeCtx) loop(ops int, fn func()) (nsPerOp float64, n int) {
	start := time.Now()
	calls := 0
	for {
		fn()
		calls++
		if el := time.Since(start); el >= c.slice {
			return float64(el.Nanoseconds()) / float64(calls*ops), calls * ops
		}
	}
}

// probes lists the isolated probes in layer order.
var probes = []func(probeCtx) ([]probeOut, error){
	probeAnalyticsText,
	probeAnalyticsTriangle,
	probeEngine,
	probeEngineKill,
	probeSimtime,
	probeCore,
	probeCluster,
	probeFederation,
	probeDFS,
	probeWorkload,
	probeMetrics,
	probeTrace,
	probeTelemetry,
	probeAdmission,
	probeFaults,
	probeRunner,
	probeModel,
}

// addProbes runs every probe inside the budget and adds its readings.
func addProbes(rep *report, opt options) error {
	budget := time.Duration(opt.seconds * float64(time.Second))
	slice := budget / time.Duration(2*len(probes))
	if opt.smoke || slice < 5*time.Millisecond {
		slice = 5 * time.Millisecond
	}
	ctx := probeCtx{slice: slice, seed: opt.seed}
	for _, p := range probes {
		outs, err := p(ctx)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		for _, o := range outs {
			rep.set(o.name, counted(o.value, o.unit, o.n))
		}
	}
	return nil
}

func bucketOfKey(key string, buckets int) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32() % uint32(buckets))
}

// probeAnalyticsText times the word-popularity map and reduce Compute
// functions on the low template's own partitions.
func probeAnalyticsText(c probeCtx) ([]probeOut, error) {
	job, err := textTemplate("probe-text", c.seed+901, lowPosts, lowSizeBytes)
	if err != nil {
		return nil, err
	}
	mapFn, reduceFn := job.Stages[0].Compute, job.Stages[1].Compute
	records := job.Input.Records()
	var reduceIn []engine.Record
	for _, part := range job.Input {
		for _, r := range mapFn(part) {
			if bucketOfKey(r.Key, textReducers) == 0 {
				reduceIn = append(reduceIn, r)
			}
		}
	}
	var keep []engine.Record
	mapNs, mapN := c.loop(records, func() {
		for _, part := range job.Input {
			keep = mapFn(part)
		}
	})
	reduceNs, reduceN := c.loop(len(reduceIn), func() { keep = reduceFn(reduceIn) })
	runtime.KeepAlive(keep)
	return []probeOut{
		{"analytics.map.ns_per_record", "ns/rec", mapNs, mapN},
		{"analytics.reduce.ns_per_record", "ns/rec", reduceNs, reduceN},
	}, nil
}

// probeAnalyticsTriangle runs the seven triangle-count Compute functions
// over the benchmark's graph with a hand-rolled shuffle between them and
// times only the Compute calls.
func probeAnalyticsTriangle(c probeCtx) ([]probeOut, error) {
	job, _, err := triangleTemplate("probe-tc", c.seed+902)
	if err != nil {
		return nil, err
	}
	var computeNs int64
	records := 0
	start := time.Now()
	for time.Since(start) < c.slice {
		cur := [][]engine.Record(nil)
		for _, part := range job.Input {
			cur = append(cur, part)
		}
		for _, st := range job.Stages {
			var next [][]engine.Record
			if st.Kind == engine.ShuffleMap {
				next = make([][]engine.Record, st.OutPartitions)
			}
			for _, part := range cur {
				t0 := time.Now()
				out := st.Compute(part)
				computeNs += int64(time.Since(t0))
				records += len(part)
				for _, r := range out {
					if next != nil {
						b := bucketOfKey(r.Key, len(next))
						next[b] = append(next[b], r)
					}
				}
			}
			cur = next
		}
	}
	return []probeOut{{"analytics.triangle.ns_per_record", "ns/rec", float64(computeNs) / float64(records), records}}, nil
}

// soloEngine is an idle default cluster with an engine on it.
func soloEngine(seed int64) (*simtime.Simulation, *cluster.Cluster, *engine.Engine, error) {
	sim := simtime.New()
	clu, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return sim, clu, eng, nil
}

// shuffleTemplate moves records distinct-keyed records through an
// identity map stage into 10 buckets and an identity result stage.
func shuffleTemplate(records int) *engine.Job {
	job := spineTemplate()
	job.Name = "shuffle"
	per := records / len(job.Input)
	input := make(engine.Dataset, len(job.Input))
	for p := range input {
		input[p] = make(engine.Partition, per)
		for i := range input[p] {
			input[p][i] = engine.Record{Key: fmt.Sprintf("k%d-%d", p, i), Value: 1.0}
		}
	}
	job.Input = input
	return job
}

// probeEngine drives Submit/OnComplete directly, no scheduler: the no-op
// template for per-task dispatch cost and allocations, and an identity
// shuffle whose extra time over the no-op job is bucketing.
func probeEngine(c probeCtx) ([]probeOut, error) {
	const batch = 100
	sim, _, eng, err := soloEngine(c.seed)
	if err != nil {
		return nil, err
	}
	noop := spineTemplate()
	tasksPerJob := describeTemplate(noop).totalTasks
	var submitErr error
	opts := engine.SubmitOptions{OnComplete: func(engine.JobResult) {}}
	submitBatch := func(job *engine.Job, jobs int) func() {
		return func() {
			for i := 0; i < jobs; i++ {
				if _, err := eng.Submit(job, opts); err != nil {
					submitErr = err
				}
				sim.Run()
			}
		}
	}
	submitBatch(noop, batch)() // fill the task and execution pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	taskNs, tasks := c.loop(batch*tasksPerJob, submitBatch(noop, batch))
	runtime.ReadMemStats(&after)
	jobs := tasks / tasksPerJob

	const shuffleRecords = 10000
	shuffle := shuffleTemplate(shuffleRecords)
	submitBatch(shuffle, 2)()
	shuffleJobNs, shuffleJobs := c.loop(4, submitBatch(shuffle, 4))
	if submitErr != nil {
		return nil, submitErr
	}
	perRecord := (shuffleJobNs - taskNs*float64(tasksPerJob)) / shuffleRecords
	return []probeOut{
		{"engine.noop_task.ns", "ns", taskNs, tasks},
		{"engine.noop_job.allocs", "allocs", float64(after.Mallocs-before.Mallocs) / float64(jobs), jobs},
		{"engine.shuffle.ns_per_record", "ns/rec", perRecord, shuffleJobs * shuffleRecords},
	}, nil
}

// probeEngineKill times the eviction path: submit, let the first wave
// start, Kill, and resubmit.
func probeEngineKill(c probeCtx) ([]probeOut, error) {
	const batch = 200
	sim, _, eng, err := soloEngine(c.seed)
	if err != nil {
		return nil, err
	}
	job := spineTemplate()
	var cycleErr error
	ns, n := c.loop(batch, func() {
		for i := 0; i < batch; i++ {
			id, err := eng.Submit(job, engine.SubmitOptions{})
			if err != nil {
				cycleErr = err
				return
			}
			// Past the 4 s setup stage, inside the first task wave.
			sim.RunFor(4.1)
			if _, err := eng.Kill(id); err != nil {
				cycleErr = err
				return
			}
		}
	})
	if cycleErr != nil {
		return nil, cycleErr
	}
	return []probeOut{{"engine.kill_resubmit.ns", "ns", ns, n}}, nil
}

// probeSimtime times the event kernel with about 1 k events pending.
func probeSimtime(c probeCtx) ([]probeOut, error) {
	const pending, batch = 1000, 100000
	rng := rand.New(rand.NewSource(c.seed))
	sim := simtime.New()
	remaining := 0
	var fire func()
	fire = func() {
		if remaining > 0 {
			remaining--
			sim.After(simtime.Duration(rng.Float64()*1000), fire)
		}
	}
	fireBatch := func() {
		remaining = batch
		for i := 0; i < pending; i++ {
			sim.After(simtime.Duration(rng.Float64()*1000), fire)
		}
		sim.Run()
	}
	fireBatch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fireNs, fired := c.loop(batch+pending, fireBatch)
	runtime.ReadMemStats(&after)

	ids := make([]simtime.EventID, pending)
	for i := range ids {
		ids[i] = sim.After(simtime.Duration(1+rng.Float64()*1000), func() {})
	}
	now := sim.Now()
	moveNs, moved := c.loop(10000, func() {
		for i := 0; i < 10000; i++ {
			sim.Reschedule(ids[i%pending], now.Add(simtime.Duration(1+rng.Float64()*1000)))
		}
	})

	timer := simtime.NewTimer(sim)
	noop := func() {}
	resetNs, resets := c.loop(10000, func() {
		for i := 0; i < 10000; i++ {
			timer.Reset(simtime.Duration(1+i%7), noop)
		}
	})
	return []probeOut{
		{"simtime.schedule_fire.ns", "ns", fireNs, fired},
		{"simtime.allocs_per_event", "allocs", float64(after.Mallocs-before.Mallocs) / float64(fired), fired},
		{"simtime.reschedule.ns", "ns", moveNs, moved},
		{"simtime.timer_reset.ns", "ns", resetNs, resets},
	}, nil
}

// probeCore times Scheduler.Arrive while the engine is busy, so every
// arrival after the first is buffered.
func probeCore(c probeCtx) ([]probeOut, error) {
	const batch = 5000
	job := spineTemplate()
	var arriveNs int64
	arrivals := 0
	start := time.Now()
	for time.Since(start) < c.slice {
		stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(2), Seed: c.seed})
		if err != nil {
			return nil, err
		}
		var arriveErr error
		stack.Sim.At(0, func() {
			if arriveErr = stack.Scheduler.Arrive(0, job); arriveErr != nil {
				return
			}
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				if err := stack.Scheduler.Arrive(i%2, job); err != nil {
					arriveErr = err
				}
			}
			arriveNs += int64(time.Since(t0))
		})
		stack.Sim.RunUntil(0)
		if arriveErr != nil {
			return nil, arriveErr
		}
		arrivals += batch
	}
	return []probeOut{{"core.arrive_buffered.ns", "ns", float64(arriveNs) / float64(arrivals), arrivals}}, nil
}

func probeCluster(c probeCtx) ([]probeOut, error) {
	clu, err := cluster.New(simtime.New(), cluster.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ns, n := c.loop(10000, func() {
		for i := 0; i < 10000; i++ {
			if s, ok := clu.Acquire(); ok {
				clu.Release(s)
			}
		}
	})
	return []probeOut{{"cluster.acquire_release.ns", "ns", ns, n}}, nil
}

// probeFederation times every routing policy on 8 members with uneven
// backlogs, and JSQ's filtered-slice fallback while one member is down.
func probeFederation(c probeCtx) ([]probeOut, error) {
	fed, err := federation.New(federation.Config{
		Members: make([]federation.MemberSpec, fedMembers),
		Policy:  core.PolicyNP(2),
		Routing: federation.NewJoinShortestQueue(),
		Seed:    c.seed,
	})
	if err != nil {
		return nil, err
	}
	members := fed.Members()
	job := spineTemplate()
	for i, m := range members {
		for j := 0; j < 1+i%3; j++ {
			if err := m.Scheduler.Arrive(j%2, job); err != nil {
				return nil, err
			}
		}
	}
	arr := federation.Arrival{Class: 1, Job: job, Home: 3}
	policies := []struct {
		name   string
		policy federation.RoutingPolicy
	}{
		{"random", federation.NewRandom(c.seed)},
		{"round-robin", federation.NewRoundRobin()},
		{"jsq", federation.NewJoinShortestQueue()},
		{"least-loaded", federation.NewLeastLoaded()},
		{"sprint-aware", federation.NewSprintAware()},
		{"data-local", federation.NewDataLocal(4)},
	}
	sinkIdx := 0
	route := func(p federation.RoutingPolicy, candidates []*federation.Member) func() {
		return func() {
			for i := 0; i < 10000; i++ {
				sinkIdx += p.Route(arr, candidates)
			}
		}
	}
	// Each policy gets a share of the slice so the probe stays in budget.
	sub := probeCtx{slice: c.slice / time.Duration(len(policies)+1), seed: c.seed}
	var outs []probeOut
	for _, p := range policies {
		ns, n := sub.loop(10000, route(p.policy, members))
		outs = append(outs, probeOut{"federation.route." + p.name + ".ns", "ns", ns, n})
	}
	if err := fed.SetMemberDown(2, true); err != nil {
		return nil, err
	}
	var up []*federation.Member
	for _, m := range members {
		if m.Available() {
			up = append(up, m)
		}
	}
	ns, n := sub.loop(10000, route(federation.NewJoinShortestQueue(), up))
	outs = append(outs, probeOut{"federation.route_outage.jsq.ns", "ns", ns, n})
	runtime.KeepAlive(sinkIdx)
	return outs, nil
}

func probeDFS(c probeCtx) ([]probeOut, error) {
	fs, err := dfs.New(dfs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := fs.Create("/probe", 64*dfs.DefaultBlockSize); err != nil {
		return nil, err
	}
	blocks, err := fs.Blocks("/probe")
	if err != nil {
		return nil, err
	}
	var total simtime.Duration
	ns, n := c.loop(100*len(blocks), func() {
		for node := 0; node < 100; node++ {
			for _, b := range blocks {
				total += fs.ReadTime(b, node%10)
			}
		}
	})
	runtime.KeepAlive(total)
	return []probeOut{{"dfs.read_time.ns", "ns", ns, n}}, nil
}

func probeWorkload(c probeCtx) ([]probeOut, error) {
	rates := []float64{0.9, 0.1}
	poisson, err := workload.NewPoissonMix(rates)
	if err != nil {
		return nil, err
	}
	gamma, err := workload.NewGamma(rates, 3.5)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	var gaps float64
	draw := func(p workload.Process) func() {
		return func() {
			for i := 0; i < 10000; i++ {
				gap, _ := p.Next(rng)
				gaps += gap
			}
		}
	}
	poissonNs, poissonN := c.loop(10000, draw(poisson))
	gammaNs, gammaN := c.loop(10000, draw(gamma))
	cfg := workload.DefaultCorpusConfig()
	cfg.PostsPerPartition = lowPosts
	cfg.VocabSize = 800
	cfg.TopicVocab = 40
	var synthErr error
	postNs, posts := c.loop(cfg.Partitions*cfg.PostsPerPartition, func() {
		if _, err := workload.SynthesizeCorpus(rng, cfg); err != nil {
			synthErr = err
		}
	})
	if synthErr != nil {
		return nil, synthErr
	}
	runtime.KeepAlive(gaps)
	return []probeOut{
		{"workload.next.poisson.ns", "ns", poissonNs, poissonN},
		{"workload.next.gamma.ns", "ns", gammaNs, gammaN},
		{"workload.corpus_synth.ns_per_post", "ns/post", postNs, posts},
	}, nil
}

func probeMetrics(c probeCtx) ([]probeOut, error) {
	acc := metrics.NewBoundedAccumulator(2, 1<<40, 0)
	rng := rand.New(rand.NewSource(c.seed))
	recs := make([]core.JobRecord, 1024)
	for i := range recs {
		resp := 1 + 100*rng.Float64()
		recs[i] = core.JobRecord{Class: i % 2, ResponseSec: resp, ExecSec: resp / 2, QueueSec: resp / 2}
	}
	addNs, adds := c.loop(10*len(recs), func() {
		for r := 0; r < 10; r++ {
			for i := range recs {
				acc.Add(recs[i])
			}
		}
	})
	hist, err := stats.NewLogHistogram(1e-3, 1e6, 480)
	if err != nil {
		return nil, err
	}
	histNs, histN := c.loop(10*len(recs), func() {
		for r := 0; r < 10; r++ {
			for i := range recs {
				hist.Add(recs[i].ResponseSec)
			}
		}
	})
	var q float64
	quantNs, quantN := c.loop(1000, func() {
		for i := 0; i < 1000; i++ {
			q += hist.Quantile(0.99)
		}
	})
	runtime.KeepAlive(q)
	return []probeOut{
		{"metrics.add.ns", "ns", addNs, adds},
		{"stats.loghist_add.ns", "ns", histNs, histN},
		{"stats.loghist_quantile.ns", "ns", quantNs, quantN},
	}, nil
}

func probeTrace(c probeCtx) ([]probeOut, error) {
	const recs = 10000
	var buf bytes.Buffer
	var ioErr error
	writeNs, written := c.loop(recs, func() {
		buf.Reset()
		sw, err := trace.NewStreamWriter(&buf)
		if err != nil {
			ioErr = err
			return
		}
		for i := 0; i < recs; i++ {
			if err := sw.Write(trace.Rec{At: float64(i) * 0.37, Class: i % 2, SizeBytes: 1 << 20, Home: i % 8}); err != nil {
				ioErr = err
			}
		}
		if err := sw.Flush(); err != nil {
			ioErr = err
		}
	})
	data := append([]byte(nil), buf.Bytes()...)
	readNs, read := c.loop(recs, func() {
		sr, err := trace.NewStreamReader(bytes.NewReader(data))
		if err != nil {
			ioErr = err
			return
		}
		for {
			if _, err := sr.Next(); err != nil {
				if err != io.EOF {
					ioErr = err
				}
				return
			}
		}
	})
	if ioErr != nil {
		return nil, ioErr
	}
	return []probeOut{
		{"trace.stream_write.ns_per_rec", "ns/rec", writeNs, written},
		{"trace.stream_read.ns_per_rec", "ns/rec", readNs, read},
	}, nil
}

// lineCounter counts newline-terminated events an exporter writes.
type lineCounter struct{ lines int }

func (w *lineCounter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// probeTelemetry compares the no-op spine with StackConfig.Telemetry on
// and off (the zero-cost-off rule's other half), and times the JSONL
// exporter per event.
func probeTelemetry(c probeCtx) ([]probeOut, error) {
	const jobs = 5000
	job := spineTemplate()
	rates, err := calibrateRates([]*engine.Job{job, job}, engine.DefaultCostModel(), []float64{9, 1}, 0.8, c.seed)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry(telemetry.Config{Seed: c.seed})
	runOnce := func(col *telemetry.Collector) (time.Duration, error) {
		policy := core.PolicyNP(2)
		policy.DiscardRecords = true
		start := time.Now()
		stack, err := dias.NewStack(dias.StackConfig{Policy: policy, Seed: c.seed, Telemetry: col})
		if err != nil {
			return 0, err
		}
		proc, err := workload.NewPoissonMix(rates)
		if err != nil {
			return 0, err
		}
		if err := stack.SubmitStream(proc, workload.FixedJobs{job, job}, jobs, c.seed+7); err != nil {
			return 0, err
		}
		stack.Run()
		return time.Since(start), nil
	}
	var off, on time.Duration
	rounds := 0
	start := time.Now()
	for rounds == 0 || time.Since(start) < c.slice {
		d, err := runOnce(nil)
		if err != nil {
			return nil, err
		}
		off += d
		if d, err = runOnce(reg.Collector(fmt.Sprintf("probe-%d", rounds))); err != nil {
			return nil, err
		}
		on += d
		rounds++
	}
	var lines lineCounter
	exportStart := time.Now()
	if err := reg.WriteEventsJSONL(&lines); err != nil {
		return nil, err
	}
	export := time.Since(exportStart)
	if lines.lines == 0 {
		return nil, fmt.Errorf("telemetry exporter wrote no events")
	}
	return []probeOut{
		{"telemetry.traced_job.overhead_pct", "%", 100 * float64(on-off) / float64(off), rounds * jobs},
		{"telemetry.export.ns_per_event", "ns/event", float64(export.Nanoseconds()) / float64(lines.lines), lines.lines},
	}, nil
}

func probeAdmission(c probeCtx) ([]probeOut, error) {
	stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(2), Seed: c.seed})
	if err != nil {
		return nil, err
	}
	bucket, err := admission.NewTokenBucket(admission.TokenBucketConfig{Rate: []float64{50, 50}, Burst: []float64{10, 10}})
	if err != nil {
		return nil, err
	}
	slo, err := admission.NewSLOBudget(admission.SLOBudgetConfig{BudgetSec: []float64{120, 60}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ {
		slo.Observe(i%2, 10+float64(i%7), 0)
	}
	info := admission.JobInfo{Name: "probe", Class: 1, SizeBytes: 1 << 20}
	accepted := 0
	admit := func(p admission.Policy) func() {
		now := simtime.Time(0)
		return func() {
			for i := 0; i < 10000; i++ {
				now = now.Add(0.01)
				if p.Admit(now, info, stack.Scheduler) == admission.Accept {
					accepted++
				}
			}
		}
	}
	bucketNs, bucketN := c.loop(10000, admit(bucket))
	sloNs, sloN := c.loop(10000, admit(slo))
	runtime.KeepAlive(accepted)
	return []probeOut{
		{"admission.admit.token-bucket.ns", "ns", bucketNs, bucketN},
		{"admission.admit.slo-budget.ns", "ns", sloNs, sloN},
	}, nil
}

func probeFaults(c probeCtx) ([]probeOut, error) {
	sim, _, eng, err := soloEngine(c.seed)
	if err != nil {
		return nil, err
	}
	inj, err := faults.Attach(sim, eng, faults.Config{
		Tasks: &faults.TaskFaultConfig{FailProb: 0.05, MaxAttempts: 4, StragglerProb: 0.05, StragglerFactor: 3},
		Seed:  c.seed,
	})
	if err != nil {
		return nil, err
	}
	var slow float64
	ns, n := c.loop(10000, func() {
		for i := 0; i < 10000; i++ {
			slow += inj.TaskStarted("probe", 0, i%50, 0).Slowdown
		}
	})
	runtime.KeepAlive(slow)
	return []probeOut{{"faults.task_started.ns", "ns", ns, n}}, nil
}

func probeRunner(c probeCtx) ([]probeOut, error) {
	pool := runner.New(benchWorkers)
	tasks := make([]runner.Task[int], 1000)
	for i := range tasks {
		tasks[i] = func(context.Context) (int, error) { return i, nil }
	}
	var mapErr error
	ns, n := c.loop(len(tasks), func() {
		if _, err := runner.Map(context.Background(), pool, tasks); err != nil {
			mapErr = err
		}
	})
	if mapErr != nil {
		return nil, mapErr
	}
	return []probeOut{{"runner.map.us_per_task", "us", ns / 1e3, n}}, nil
}

// probeModel times the analytic side figure 5 leans on: the wave-level
// processing-time PH plus the M[K]/PH[K]/1 prediction, the priority-queue
// formulas alone, and the two-moment PH fit.
func probeModel(c probeCtx) ([]probeOut, error) {
	fit := phdist.FitMeanSCV
	var fitErr error
	fitNs, fits := c.loop(2000, func() {
		for i := 0; i < 1000; i++ {
			if _, err := fit(10, 0.4); err != nil {
				fitErr = err
			}
			if _, err := fit(10, 2.5); err != nil {
				fitErr = err
			}
		}
	})
	if fitErr != nil {
		return nil, fitErr
	}
	processing := func(mapTasks int, theta float64) (*phdist.PH, error) {
		setup, err := fit(5, 0.05)
		if err != nil {
			return nil, err
		}
		shuffle, err := fit(1.2, 0.05)
		if err != nil {
			return nil, err
		}
		mapWave, err := fit(8.5, 0.02)
		if err != nil {
			return nil, err
		}
		redWave, err := fit(1.5, 0.02)
		if err != nil {
			return nil, err
		}
		return model.WaveLevelConfig{
			Slots:       20,
			MapTasks:    model.FixedTasks(mapTasks),
			ReduceTasks: model.FixedTasks(textReducers),
			ThetaMap:    theta,
			Setup:       setup,
			Shuffle:     shuffle,
			MapWave:     func(int) *phdist.PH { return mapWave },
			ReduceWave:  func(int) *phdist.PH { return redWave },
		}.ProcessingTime()
	}
	var predictErr error
	var lowPH, highPH *phdist.PH
	predictNs, predicts := c.loop(1, func() {
		var err error
		if lowPH, err = processing(50, 0.2); err != nil {
			predictErr = err
			return
		}
		if highPH, err = processing(50, 0); err != nil {
			predictErr = err
			return
		}
		if _, err := model.PredictMeanResponse([]model.ClassModel{
			{Rate: 0.018, Processing: lowPH}, {Rate: 0.002, Processing: highPH},
		}, queueing.NonPreemptive); err != nil {
			predictErr = err
		}
	})
	if predictErr != nil {
		return nil, predictErr
	}
	low, err := queueing.FromPH(0.018, lowPH)
	if err != nil {
		return nil, err
	}
	high, err := queueing.FromPH(0.002, highPH)
	if err != nil {
		return nil, err
	}
	classes := []queueing.Class{low, high}
	var queueErr error
	queueNs, queues := c.loop(1000, func() {
		for i := 0; i < 1000; i++ {
			if _, err := queueing.MeanResponseTimes(classes, queueing.NonPreemptive); err != nil {
				queueErr = err
			}
		}
	})
	if queueErr != nil {
		return nil, queueErr
	}
	return []probeOut{
		{"model.predict_mean_response.ms", "ms", predictNs / 1e6, predicts},
		{"queueing.mean_response_times.us", "us", queueNs / 1e3, queues},
		{"phdist.fit_mean_scv.us", "us", fitNs / 1e3, fits},
	}, nil
}
