package main

// The five workloads. Each prepare function builds its inputs from the
// seed (set-up: generation, load calibration, accuracy pass with payload
// oracles) and returns a run function that simulates n jobs to drain on a
// fresh deployment — a closed loop of one client on the host side, with
// open-loop Poisson arrivals inside the simulation.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dias"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/experiments"
	"dias/internal/federation"
	"dias/internal/metrics"
	"dias/internal/workload"
)

// warmupFraction of each repetition's completions is excluded from the
// simulated response statistics as transient.
const warmupFraction = 0.1

// workloadSpec names a workload and sizes its repetitions.
type workloadSpec struct {
	name string
	// jobs simulated per timed repetition, per warm-up repetition and in
	// -smoke mode. On figure-set these are experiments.Scale.Jobs.
	jobs, warmJobs, smokeJobs int
	prepare                   func(seed int64) (*prepared, error)
}

// prepared is a workload after set-up.
type prepared struct {
	// accuracyLossPct is the accuracy pass's result (0 where no job result
	// is read).
	accuracyLossPct float64
	// run simulates n jobs on a fresh deployment; a non-nil tracer makes it
	// the traced repetition.
	run func(n int, tr *tracer) (repResult, error)
}

var workloads = []workloadSpec{
	{name: "fed8-text", jobs: 5000, warmJobs: 1000, smokeJobs: 300, prepare: prepareFedText},
	{name: "stack-spine", jobs: 250000, warmJobs: 50000, smokeJobs: 300, prepare: prepareSpine},
	{name: "stack-evict", jobs: 220000, warmJobs: 50000, smokeJobs: 300, prepare: prepareEvict},
	{name: "stack-graph", jobs: 900, warmJobs: 200, smokeJobs: 300, prepare: prepareGraph},
	{name: "figure-set", jobs: 100, warmJobs: 0, smokeJobs: 10, prepare: prepareFigureSet},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// simStats is the paper's triad as one repetition simulated it.
type simStats struct {
	lowMeanSec, highMeanSec, highP95Sec float64
	highSamples                         int
	wastePct                            float64
	energyKJPerJob                      float64
}

// repResult is one repetition: what was attempted, what the simulation
// reported, and the counts taken at the layer boundaries.
type repResult struct {
	digest string
	// ops attempted and failed (jobs submitted; drivers on figure-set).
	attempted, failed int
	// jobs is the denominator of the per-job host metrics (equals
	// attempted except on figure-set, where it is the post-warm-up job
	// count of the drivers' scenarios).
	jobs int
	sim  simStats

	wallSec    float64
	mallocs    uint64
	allocBytes uint64

	tasksExecuted, tasksDropped int
	stage0Executed              int
	evictions                   int
	wastedSlotSec, busySlotSec  float64
	utilizationPct              float64
	spills, peakInFlight        int
	figWallSec                  map[string]float64
}

// templateInfo is what the sink needs to turn a record's effective drop
// ratio back into task counts.
type templateInfo struct {
	totalTasks  int
	hasCompute0 bool
}

func describeTemplate(job *engine.Job) templateInfo {
	info := templateInfo{hasCompute0: job.Stages[0].Compute != nil}
	for _, st := range job.Stages {
		if len(st.Deps) == 0 {
			info.totalTasks += len(job.Input)
		} else {
			info.totalTasks += job.Stages[st.Deps[0]].OutPartitions
		}
	}
	return info
}

// sink is the benchmark's own record consumer: conservation counts, the
// response statistics of the triad, task counts, and — as a real run's
// sink would — a bounded metrics accumulator.
type sink struct {
	acc     *metrics.Accumulator
	addSpan *span
	skip    int
	seen    int

	completed, failed, rejected int
	classJobs                   []int
	classSum                    []float64
	highResp                    []float64

	info                        map[string]templateInfo
	stage0Kept                  []int
	tasksExecuted, tasksDropped int
	stage0Executed, evictions   int
}

func newSink(n int, classes [][]*engine.Job, drops [][]float64, tr *tracer) *sink {
	k := len(classes)
	s := &sink{
		acc:        metrics.NewBoundedAccumulator(k, n, warmupFraction),
		skip:       int(float64(n) * warmupFraction),
		classJobs:  make([]int, k),
		classSum:   make([]float64, k),
		highResp:   make([]float64, 0, n/2+1),
		info:       make(map[string]templateInfo),
		stage0Kept: make([]int, k),
	}
	if tr != nil {
		s.addSpan = tr.span(spanAdd, spanDrive)
	}
	for c, variants := range classes {
		for _, job := range variants {
			s.info[job.Name] = describeTemplate(job)
		}
		theta := 0.0
		if c < len(drops) && len(drops[c]) > 0 {
			theta = drops[c][0]
		}
		// The engine's own rounding decides how many stage-0 tasks survive.
		s.stage0Kept[c] = len(engine.FindMissingPartitions(rand.New(rand.NewSource(1)), len(variants[0].Input), theta))
	}
	return s
}

func (s *sink) add(rec core.JobRecord) {
	if s.addSpan != nil {
		start := time.Now()
		s.acc.Add(rec)
		s.addSpan.add(time.Since(start))
	} else {
		s.acc.Add(rec)
	}
	s.seen++
	switch {
	case rec.Rejected:
		s.rejected++
		return
	case rec.Failed:
		s.failed++
		return
	}
	s.completed++
	s.evictions += rec.Evictions
	if info, ok := s.info[rec.Name]; ok {
		executed := int(math.Round(float64(info.totalTasks) * (1 - rec.EffectiveDropRatio)))
		s.tasksExecuted += executed
		s.tasksDropped += info.totalTasks - executed
		if info.hasCompute0 && rec.Class < len(s.stage0Kept) {
			s.stage0Executed += s.stage0Kept[rec.Class]
		}
	}
	if s.seen <= s.skip || rec.Class >= len(s.classJobs) {
		return
	}
	s.classJobs[rec.Class]++
	s.classSum[rec.Class] += rec.ResponseSec
	if rec.Class == len(s.classJobs)-1 {
		s.highResp = append(s.highResp, rec.ResponseSec)
	}
}

func (s *sink) addMember(_ int, rec core.JobRecord) { s.add(rec) }

// stats finalizes the response part of the triad: class 0 is low, the top
// class high; p95 is exact over the retained high-class samples.
func (s *sink) stats() simStats {
	var st simStats
	top := len(s.classJobs) - 1
	if s.classJobs[0] > 0 {
		st.lowMeanSec = s.classSum[0] / float64(s.classJobs[0])
	}
	if s.classJobs[top] > 0 {
		st.highMeanSec = s.classSum[top] / float64(s.classJobs[top])
	}
	st.highSamples = len(s.highResp)
	if st.highSamples > 0 {
		sorted := append([]float64(nil), s.highResp...)
		sort.Float64s(sorted)
		st.highP95Sec = sorted[int(math.Ceil(0.95*float64(len(sorted))))-1]
	}
	return st
}

// digestOf hashes everything a repetition must reproduce exactly.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// classDigest renders the accumulator's per-class (count, mean, p95).
func classDigest(stats []metrics.ClassStats) string {
	var b strings.Builder
	for _, c := range stats {
		fmt.Fprintf(&b, "%d:%d:%v:%v:%d:%d;", c.Class, c.Jobs, c.MeanResponseSec, c.P95ResponseSec, c.FailedJobs, c.RejectedJobs)
	}
	return b.String()
}

// conservation fails the repetition when a submitted job has no record.
func (s *sink) conservation(n int) int {
	if s.completed+s.failed+s.rejected == n && s.seen == n {
		return 0
	}
	return n
}

// arrivals builds a repetition's Poisson process and variant source,
// timed when the repetition is traced.
func arrivals(rates []float64, classes [][]*engine.Job, tr *tracer) (workload.Process, workload.JobSource, error) {
	poisson, err := workload.NewPoissonMix(rates)
	if err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return poisson, variantSource(classes), nil
	}
	return tr.process(poisson), tr.source(variantSource(classes)), nil
}

// account derives the slot and energy figures once busySlotSec and
// wastedSlotSec are summed over the deployment's clusters.
func (r *repResult) account(slots int, makespan, energyJoules float64) {
	if r.busySlotSec > 0 {
		r.sim.wastePct = 100 * r.wastedSlotSec / r.busySlotSec
	}
	if capacity := float64(slots) * makespan; capacity > 0 {
		r.utilizationPct = 100 * r.busySlotSec / capacity
	}
	r.sim.energyKJPerJob = energyJoules / 1e3 / float64(r.attempted)
}

// --- single-stack workloads ----------------------------------------------

// stackPlan is a calibrated single-cluster workload.
type stackPlan struct {
	cost      engine.CostModel
	policy    func() core.Config
	templates [][]*engine.Job
	rates     []float64
	seed      int64
}

func (p *stackPlan) run(n int, tr *tracer) (repResult, error) {
	classes := p.templates
	if tr != nil {
		classes = tr.wrapTemplates(classes)
	}
	policy := p.policy()
	snk := newSink(n, classes, policy.DropRatios, tr)
	policy.OnRecord = snk.add
	policy.DiscardRecords = true

	start := time.Now()
	stack, err := dias.NewStack(dias.StackConfig{Cost: p.cost, Policy: policy, Seed: p.seed})
	if err != nil {
		return repResult{}, err
	}
	proc, source, err := arrivals(p.rates, classes, tr)
	if err != nil {
		return repResult{}, err
	}
	if err := stack.SubmitStream(proc, source, n, p.seed+7); err != nil {
		return repResult{}, err
	}
	stack.Run()
	wall := time.Since(start)

	makespan := stack.Sim.Now().Seconds()
	busy := stack.Cluster.BusySlotSeconds()
	wasted := stack.Engine.WastedSlotSeconds()
	res := repResult{
		attempted: n, jobs: n, failed: snk.conservation(n),
		sim:           snk.stats(),
		wallSec:       wall.Seconds(),
		tasksExecuted: snk.tasksExecuted, tasksDropped: snk.tasksDropped,
		stage0Executed: snk.stage0Executed,
		evictions:      stack.Engine.Evictions(),
		wastedSlotSec:  wasted, busySlotSec: busy,
	}
	energy := stack.Cluster.EnergyJoules()
	res.account(stack.Cluster.Slots(), makespan, energy)
	res.digest = digestOf(classDigest(snk.acc.Classes()), res.sim, makespan, energy, wasted, busy, snk.evictions)
	return res, nil
}

// prepareSpine: one default cluster, DiAS policy, the no-op template for
// both classes, Poisson 9:1 at 80% load.
func prepareSpine(seed int64) (*prepared, error) {
	return prepareNoop(seed, diasPolicy, []float64{9, 1})
}

// prepareEvict: the same template under the preemptive baseline P with a
// 1:1 class mix, so about a quarter of the jobs are evicted and re-run.
func prepareEvict(seed int64) (*prepared, error) {
	return prepareNoop(seed, func() core.Config { return core.PolicyP(2) }, []float64{1, 1})
}

func prepareNoop(seed int64, policy func() core.Config, ratio []float64) (*prepared, error) {
	job := spineTemplate()
	cost := engine.DefaultCostModel()
	rates, err := calibrateRates([]*engine.Job{job, job}, cost, ratio, 0.8, seed+3)
	if err != nil {
		return nil, err
	}
	plan := &stackPlan{
		cost: cost, policy: policy, rates: rates, seed: seed,
		templates: [][]*engine.Job{{job}, {job}},
	}
	return &prepared{run: plan.run}, nil
}

// prepareGraph: one default cluster, the triangle-count job over the
// benchmark's own Barabási–Albert graphs, DA with θ=0.1 on all six shuffle
// stages for the low class, 9:1 Poisson at 80% load. Every arrival draws
// one of graphVariants graphs: a job's cost follows its graph's wedge
// count, and one graph per seed would make every per-job metric swing
// ±10% between seeds.
func prepareGraph(seed int64) (*prepared, error) {
	const theta = 0.1
	cost := graphCost()
	jobs := make([]*engine.Job, graphVariants)
	var execSec, loss float64
	for v := range jobs {
		job, edges, err := triangleTemplate(fmt.Sprintf("tc-%d", v), seed+51+1000*int64(v))
		if err != nil {
			return nil, err
		}
		jobs[v] = job
		sec, err := meanSoloSec(job, nil, cost, seed+52+int64(v))
		if err != nil {
			return nil, err
		}
		execSec += sec / graphVariants
		l, err := triangleAccuracyLossPct(job, edges, theta, graphAccuracyRuns, seed+53+int64(v))
		if err != nil {
			return nil, err
		}
		loss += l / graphVariants
	}
	rates, err := ratesForLoad([]float64{execSec, execSec}, []float64{9, 1}, 0.8)
	if err != nil {
		return nil, err
	}
	plan := &stackPlan{
		cost: cost, rates: rates, seed: seed,
		policy: func() core.Config {
			return core.Config{Classes: 2, DropRatios: [][]float64{sixStageDrops(theta), nil}}
		},
		templates: [][]*engine.Job{jobs, jobs},
	}
	return &prepared{accuracyLossPct: loss, run: plan.run}, nil
}

// --- fed8-text -------------------------------------------------------------

const (
	fedMembers = 8
	fedUtil    = 0.7
)

type fedPlan struct {
	variants [][]*engine.Job
	rates    []float64
	seed     int64
}

// prepareFedText: 8 default clusters behind JSQ with the dfs data model,
// the two-class text templates in 8 data-home variants each, Poisson at
// 70% per-cluster load.
func prepareFedText(seed int64) (*prepared, error) {
	low, err := textTemplate("low", seed+161, lowPosts, lowSizeBytes)
	if err != nil {
		return nil, err
	}
	high, err := textTemplate("high", seed+162, highPosts, highSizeBytes)
	if err != nil {
		return nil, err
	}
	rates, err := calibrateRates([]*engine.Job{low, high}, textCost(), []float64{9, 1}, fedUtil, seed+163)
	if err != nil {
		return nil, err
	}
	loss, err := textAccuracyLossPct(low, diasPolicy().DropRatios[0][0], accuracyRuns, seed+165)
	if err != nil {
		return nil, err
	}
	plan := &fedPlan{
		variants: [][]*engine.Job{dataHomeVariants(low, fedMembers), dataHomeVariants(high, fedMembers)},
		rates:    scaleRates(rates, fedMembers),
		seed:     seed,
	}
	return &prepared{accuracyLossPct: loss, run: plan.run}, nil
}

func (p *fedPlan) run(n int, tr *tracer) (repResult, error) {
	classes := p.variants
	var routing federation.RoutingPolicy = federation.NewJoinShortestQueue()
	if tr != nil {
		classes = tr.wrapTemplates(classes)
		routing = tr.routing(routing)
	}
	policy := diasPolicy()
	snk := newSink(n, classes, policy.DropRatios, tr)
	members := make([]federation.MemberSpec, fedMembers)
	for i := range members {
		members[i] = federation.MemberSpec{Cost: textCost()}
	}
	data := dfs.DefaultConfig()

	start := time.Now()
	fed, err := federation.New(federation.Config{
		Members:        members,
		Policy:         policy,
		Routing:        routing,
		Data:           &data,
		Seed:           p.seed,
		OnRecord:       snk.addMember,
		DiscardRecords: true,
	})
	if err != nil {
		return repResult{}, err
	}
	for _, variants := range classes {
		for v, job := range variants {
			if err := fed.RegisterInput(job, v%fedMembers); err != nil {
				return repResult{}, err
			}
		}
	}
	proc, source, err := arrivals(p.rates, classes, tr)
	if err != nil {
		return repResult{}, err
	}
	if err := fed.SubmitStream(proc, source, n, p.seed+7); err != nil {
		return repResult{}, err
	}
	fed.Run()
	wall := time.Since(start)

	makespan := fed.Sim().Now().Seconds()
	res := repResult{
		attempted: n, jobs: n, failed: snk.conservation(n),
		sim:           snk.stats(),
		wallSec:       wall.Seconds(),
		tasksExecuted: snk.tasksExecuted, tasksDropped: snk.tasksDropped,
		stage0Executed: snk.stage0Executed,
		spills:         fed.Spilled(), peakInFlight: fed.PeakInFlight(),
	}
	var energy float64
	slots := 0
	for _, m := range fed.Members() {
		res.busySlotSec += m.Cluster.BusySlotSeconds()
		res.wastedSlotSec += m.Engine.WastedSlotSeconds()
		res.evictions += m.Engine.Evictions()
		energy += m.Cluster.EnergyJoules()
		slots += m.Cluster.Slots()
	}
	res.account(slots, makespan, energy)
	routed := fed.Routed()
	sum := 0
	for _, r := range routed {
		sum += r
	}
	if sum != n {
		res.failed = n
	}
	res.digest = digestOf(classDigest(snk.acc.Classes()), res.sim, makespan, energy,
		res.wastedSlotSec, res.busySlotSec, res.peakInFlight, routed)
	return res, nil
}

// --- figure-set ------------------------------------------------------------

// figureDrivers is the figure set, in run order. Figures 10, 11 and
// ablations are left out because their graph input is not reproducible
// across processes today; extensions, scale and parallel-kernel because
// the roadmap slates them for deletion or decision.
var figureDrivers = []string{
	"motivation", "4", "5", "6", "7", "8", "9",
	"faults", "elasticity", "overload", "federation-scaleout",
}

// simSourceDriver and simSourceScenario name the scenario the simulated
// triad is read from on figure-set.
const (
	simSourceDriver   = "7"
	simSourceScenario = "DA(0,20)"
)

// benchProcs pins GOMAXPROCS (see run in main.go); benchWorkers pins
// experiments.Scale.Workers, so figure-set still goes through the runner's
// pool the way the CLI does on this two-core box.
const (
	benchProcs   = 1
	benchWorkers = 2
)

// prepareFigureSet resolves the drivers and runs the accuracy pass of the
// DA(0,20) reference low template, whose scenario the triad is read from.
func prepareFigureSet(seed int64) (*prepared, error) {
	drivers := make([]experiments.Driver, len(figureDrivers))
	for i, name := range figureDrivers {
		d, ok := experiments.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("figure driver %q is not registered", name)
		}
		drivers[i] = d
	}
	low, err := textTemplate("low", seed+21, lowPosts, lowSizeBytes)
	if err != nil {
		return nil, err
	}
	loss, err := textAccuracyLossPct(low, 0.2, accuracyRuns, seed+25)
	if err != nil {
		return nil, err
	}
	run := func(n int, tr *tracer) (repResult, error) {
		return runFigureSet(drivers, n, seed, tr)
	}
	return &prepared{accuracyLossPct: loss, run: run}, nil
}

// runFigureSet regenerates every figure back to back, cold: calibration,
// solo profiling and memo fill are part of what a figure run costs.
func runFigureSet(drivers []experiments.Driver, jobs int, seed int64, tr *tracer) (repResult, error) {
	res := repResult{attempted: len(drivers), figWallSec: make(map[string]float64, len(drivers))}
	scale := experiments.Scale{Jobs: jobs, WarmupFraction: warmupFraction, Seed: seed, Workers: benchWorkers}
	var text strings.Builder
	foundSim := false
	start := time.Now()
	for _, d := range drivers {
		figStart := time.Now()
		out, err := d.Run(d.Scaled(scale))
		elapsed := time.Since(figStart)
		res.figWallSec[d.Name] = elapsed.Seconds()
		if tr != nil {
			tr.span(spanFig+d.Name, spanDrive).add(elapsed)
		}
		if err != nil {
			return repResult{}, fmt.Errorf("figure %s: %w", d.Name, err)
		}
		// Lines are sorted before hashing: figure 4 renders a map by ranging
		// over it, so its line order changes from run to run (README,
		// Follow-ups) while its content does not.
		lines := strings.Split(out.Text.String(), "\n")
		sort.Strings(lines)
		fmt.Fprintf(&text, "== %s ==\n%s\n", d.Name, strings.Join(lines, "\n"))
		submitted := d.Scaled(scale).Jobs
		for _, sc := range out.Scenarios {
			counted := 0
			for _, c := range sc.PerClass {
				counted += c.Jobs + c.FailedJobs + c.RejectedJobs
			}
			if counted <= 0 || counted > submitted {
				res.failed++
				break
			}
			res.jobs += counted
			if d.Name == simSourceDriver && sc.Name == simSourceScenario && len(sc.PerClass) >= 2 {
				top := sc.PerClass[len(sc.PerClass)-1]
				res.sim = simStats{
					lowMeanSec:     sc.PerClass[0].MeanResponseSec,
					highMeanSec:    top.MeanResponseSec,
					highP95Sec:     top.P95ResponseSec,
					highSamples:    top.Jobs,
					wastePct:       sc.ResourceWastePct,
					energyKJPerJob: sc.EnergyJoules / 1e3 / float64(submitted),
				}
				foundSim = true
			}
		}
	}
	res.wallSec = time.Since(start).Seconds()
	if !foundSim {
		return repResult{}, fmt.Errorf("figure %s returned no %s scenario", simSourceDriver, simSourceScenario)
	}
	res.digest = digestOf(text.String())
	return res, nil
}
