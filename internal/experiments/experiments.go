// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.3 validation and §5): each FigureN function configures
// the workload, runs the simulated stack under the paper's policies, and
// returns the rows/series the paper plots. DESIGN.md maps each experiment
// to its modules; EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"dias"
	"dias/internal/admission"
	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/metrics"
	"dias/internal/runner"
	"dias/internal/simtime"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// Scale sizes an experiment run. Quick keeps benchmarks fast; Full is for
// the dias-experiments CLI.
type Scale struct {
	// Jobs is the number of arrivals per scenario.
	Jobs int
	// WarmupFraction of completions excluded from statistics.
	WarmupFraction float64
	// Seed drives every RNG in the experiment.
	Seed int64
	// Workers bounds the concurrency of the independent simulation runs
	// inside one figure; 0 uses one worker per CPU core. Results are
	// bit-identical at any worker count because every run seeds its own
	// RNGs and owns its whole simulated stack.
	Workers int
	// Telemetry, when non-nil, traces every scenario in the figure: each
	// run gets a collector named after the scenario (spans, routing
	// decisions, periodic gauges). Tracing is observational only — figure
	// results are byte-identical with or without it.
	Telemetry *telemetry.Registry
}

// QuickScale is sized for go test / benchmarks.
func QuickScale() Scale { return Scale{Jobs: 200, WarmupFraction: 0.1, Seed: 1} }

// FullScale is sized for the CLI and EXPERIMENTS.md numbers.
func FullScale() Scale { return Scale{Jobs: 900, WarmupFraction: 0.1, Seed: 1} }

func (s Scale) validate() error {
	if s.Jobs < 10 {
		return fmt.Errorf("experiments: %d jobs is too few", s.Jobs)
	}
	if s.WarmupFraction < 0 || s.WarmupFraction >= 1 {
		return fmt.Errorf("experiments: warmup fraction %g", s.WarmupFraction)
	}
	if s.Workers < 0 {
		return fmt.Errorf("experiments: %d workers", s.Workers)
	}
	return nil
}

// pool builds the worker pool a figure uses to fan out its run grid.
func (s Scale) pool() *runner.Pool { return runner.New(s.Workers) }

// textCostModel calibrates the cost model so text jobs land in the tens of
// seconds at base frequency, paper-like shape: map-heavy stages, size-
// dependent setup overhead, small serial shuffle.
func textCostModel() engine.CostModel {
	return engine.CostModel{
		TaskOverheadSec:     0.3,
		PerRecordSec:        0.1, // map stage: per post parsed
		SetupBaseSec:        2,
		SetupPerByte:        3e-9,
		ShuffleBaseSec:      1,
		ShufflePerRecordSec: 1e-4,
		NoiseSigma:          0.06,
	}
}

// reducePerRecordSec prices reduce-stage records (word-count pairs).
const reducePerRecordSec = 0.002

// graphCostModel calibrates triangle-count jobs.
func graphCostModel() engine.CostModel {
	return engine.CostModel{
		TaskOverheadSec:     0.25,
		PerRecordSec:        0.004,
		SetupBaseSec:        2,
		SetupPerByte:        3e-9,
		ShuffleBaseSec:      0.5,
		ShufflePerRecordSec: 2e-5,
		NoiseSigma:          0.06,
	}
}

// textJob builds a word-popularity job over a synthetic corpus.
func textJob(name string, seed int64, posts int, sizeBytes int64) (*engine.Job, error) {
	cfg := workload.DefaultCorpusConfig()
	cfg.PostsPerPartition = posts
	cfg.VocabSize = 800
	cfg.TopicVocab = 40
	rng := rand.New(rand.NewSource(seed))
	corpus, err := workload.SynthesizeCorpus(rng, cfg)
	if err != nil {
		return nil, err
	}
	job := wordJobFromCorpus(name, corpus, sizeBytes)
	return job, nil
}

// wordJobFromCorpus wires the analytics word-count stages with stage-
// specific per-record costs.
func wordJobFromCorpus(name string, corpus engine.Dataset, sizeBytes int64) *engine.Job {
	job := analytics.WordPopularityJob(name, corpus, 10, sizeBytes)
	job.Stages[1].PerRecordSec = reducePerRecordSec
	return job
}

// scenario is one policy run over one workload.
type scenario struct {
	name    string
	policy  core.Config
	rates   []float64     // per-class Poisson rates (when proc is nil)
	jobs    []*engine.Job // per-class job template (when source is nil)
	cost    engine.CostModel
	cluster cluster.Config
	scale   Scale
	// proc overrides the default Poisson mix built from rates (e.g. an
	// MMPP for bursty traffic or a trace replay).
	proc workload.Process
	// source overrides the fixed per-class templates (e.g. variable task
	// counts per arrival).
	source workload.JobSource
	// faultPlan, when non-nil, arms the internal/faults injection layer:
	// node churn (stochastic or trace-driven), per-task failures with
	// bounded retries, stragglers. A zero stochastic-churn horizon is
	// filled from the arrival window; a zero seed derives from the
	// scenario seed.
	faultPlan *faults.Config
	// autoscale, when non-nil, drives elastic capacity through a
	// core.Autoscaler (a zero horizon is filled from the arrival window).
	autoscale *core.AutoscalerConfig
	// deflator, when non-nil, builds a dynamic deflator bound to the
	// scenario's simulation and installs it into the policy (the policy
	// must then carry no static DropRatios).
	deflator dias.DeflatorFactory
	// observe, when non-nil, receives every completed-job record as it
	// streams out of the scheduler — the hook for analyses beyond the
	// standard aggregates (e.g. slowdown accumulators). The scheduler
	// never materializes a record slice.
	observe func(core.JobRecord)
	// admit, when non-nil, builds a fresh admission policy for this run
	// (policies are stateful, so scenarios never share instances) and
	// installs it into the policy config. Deferred arrivals degrade to
	// rejections on a single stack — there is nowhere to re-route.
	admit func() admission.Policy
}

// run executes the scenario to completion on a dias.NewStack deployment,
// streaming completed-job records into per-class accumulators. No
// per-job record slice is ever materialized: scheduler memory stays
// O(classes) plus the retained response-time samples needed for
// percentiles.
func (sc scenario) run() (metrics.ScenarioResult, error) {
	if err := sc.scale.validate(); err != nil {
		return metrics.ScenarioResult{}, err
	}
	if sc.proc == nil && len(sc.rates) != sc.policy.Classes {
		return metrics.ScenarioResult{}, errors.New("experiments: rate/class count mismatch")
	}
	if sc.source == nil && len(sc.jobs) != sc.policy.Classes {
		return metrics.ScenarioResult{}, errors.New("experiments: job/class count mismatch")
	}
	proc := sc.proc
	if proc == nil {
		pm, err := workload.NewPoissonMix(sc.rates)
		if err != nil {
			return metrics.ScenarioResult{}, err
		}
		proc = pm
	}
	source := sc.source
	if source == nil {
		source = workload.FixedJobs(sc.jobs)
	}
	arrRng := rand.New(rand.NewSource(sc.scale.Seed + 7))
	jobRng := rand.New(rand.NewSource(sc.scale.Seed + 13))
	arrivals := workload.StreamOf(proc, arrRng, sc.scale.Jobs)
	// The injection/scaling horizon covers the whole arrival window plus
	// drain slack, so the event queue always drains.
	horizon := arrivals[len(arrivals)-1].At*1.1 + 300
	cfg := dias.StackConfig{
		Cluster:   sc.cluster,
		Cost:      sc.cost,
		Policy:    sc.policy,
		Deflation: sc.deflator,
		Seed:      sc.scale.Seed,
	}
	// Stream records straight into the accumulator (every arrival
	// completes or fails, so the expected record count is the arrival
	// count). The autoscaler, when armed, taps the same stream.
	acc := metrics.NewAccumulator(sc.policy.Classes, sc.scale.Jobs, sc.scale.WarmupFraction)
	obs := sc.observe
	cfg.Policy.DiscardRecords = true
	cfg.Policy.OnRecord = func(r core.JobRecord) {
		acc.Add(r)
		if obs != nil {
			obs(r)
		}
	}
	if sc.admit != nil {
		cfg.Admission = sc.admit()
	}
	if sc.faultPlan != nil {
		fp := *sc.faultPlan
		if fp.Seed == 0 {
			fp.Seed = sc.scale.Seed + 31
		}
		if fp.Churn != nil && len(fp.Churn.Outages) == 0 && fp.Churn.HorizonSec == 0 {
			ch := *fp.Churn
			ch.HorizonSec = horizon
			fp.Churn = &ch
		}
		cfg.Faults = &fp
	}
	if sc.autoscale != nil {
		ac := *sc.autoscale
		if ac.HorizonSec == 0 {
			ac.HorizonSec = horizon
		}
		cfg.Scaling = &ac
	}
	if sc.scale.Telemetry != nil {
		cfg.Telemetry = sc.scale.Telemetry.Collector(sc.name)
	}
	stack, err := dias.NewStack(cfg)
	if err != nil {
		return metrics.ScenarioResult{}, err
	}
	var arriveErr error
	for _, a := range arrivals {
		a := a
		job, err := source.Job(jobRng, a.Class)
		if err != nil {
			return metrics.ScenarioResult{}, fmt.Errorf("building class-%d job: %w", a.Class, err)
		}
		stack.Sim.At(simtime.Time(a.At), func() {
			if err := stack.Scheduler.Arrive(a.Class, job); err != nil && arriveErr == nil {
				arriveErr = err
			}
		})
	}
	stack.Run()
	if arriveErr != nil {
		return metrics.ScenarioResult{}, arriveErr
	}
	clu, eng := stack.Cluster, stack.Engine
	res := metrics.ScenarioResult{
		Name:         sc.name,
		PerClass:     acc.Classes(),
		EnergyJoules: clu.EnergyJoules(),
		MakespanSec:  stack.Sim.Now().Seconds(),
		FailedJobs:   eng.FailedJobs(),
		TasksRetried: eng.TasksRetried(),
	}
	useful := clu.BusySlotSeconds() - eng.WastedSlotSeconds()
	if total := useful + eng.WastedSlotSeconds(); total > 0 {
		res.ResourceWastePct = 100 * eng.WastedSlotSeconds() / total
		res.FailureWastePct = 100 * eng.FailureLostSlotSeconds() / total
	}
	if res.MakespanSec > 0 {
		res.MeanPoweredNodes = clu.PoweredNodeSeconds() / res.MakespanSec
	}
	res.FillOverload()
	return res, nil
}

// collectorOwners resolves each traced run's collector before fan-out. A
// telemetry.Collector has no lock, so two runs of one grid that resolve
// to the same collector (two scenarios under one name in one namespace)
// would race on it; the grid is rejected instead.
type collectorOwners map[*telemetry.Collector]bool

func (o collectorOwners) claim(reg *telemetry.Registry, name string) error {
	if reg == nil {
		return nil
	}
	col := reg.Collector(name)
	if o[col] {
		return fmt.Errorf("experiments: two runs share the telemetry collector %q", name)
	}
	o[col] = true
	return nil
}

// runScenarios executes independent scenarios concurrently on the scale's
// worker pool, returning results in input order. Scenarios share only
// immutable state (job templates, policy configs, cost models), so the
// concurrent results are bit-identical to a serial loop.
func runScenarios(scs []scenario) ([]metrics.ScenarioResult, error) {
	if len(scs) == 0 {
		return nil, nil
	}
	owners := make(collectorOwners)
	tasks := make([]runner.Task[metrics.ScenarioResult], len(scs))
	for i := range scs {
		sc := scs[i]
		if err := owners.claim(sc.scale.Telemetry, sc.name); err != nil {
			return nil, err
		}
		tasks[i] = func(context.Context) (metrics.ScenarioResult, error) {
			res, err := sc.run()
			if err != nil {
				return metrics.ScenarioResult{}, fmt.Errorf("%s: %w", sc.name, err)
			}
			return res, nil
		}
	}
	return runner.Map(context.Background(), scs[0].scale.pool(), tasks)
}

// profileSolo measures the solo execution time of a job under given drop
// ratios: it runs `runs` copies back to back on an idle stack and returns
// per-run durations plus the last run's result (stage stats). Profiling
// reads durations only, so the runs carry counts, not records.
func profileSolo(job *engine.Job, drops []float64, cost engine.CostModel, cluCfg cluster.Config, runs int, seed int64) ([]float64, engine.JobResult, error) {
	return soloRuns(job, drops, cost, cluCfg, runs, seed, false)
}

// soloRuns is profileSolo with the choice of plane: keepOutput additionally
// delivers the last run's JobResult.Output.
func soloRuns(job *engine.Job, drops []float64, cost engine.CostModel, cluCfg cluster.Config, runs int, seed int64, keepOutput bool) ([]float64, engine.JobResult, error) {
	sim := simtime.New()
	clu, err := cluster.New(sim, cluCfg)
	if err != nil {
		return nil, engine.JobResult{}, err
	}
	eng, err := engine.New(sim, clu, nil, cost, seed)
	if err != nil {
		return nil, engine.JobResult{}, err
	}
	durations := make([]float64, 0, runs)
	var last engine.JobResult
	for i := 0; i < runs; i++ {
		start := sim.Now()
		done := false
		_, err := eng.Submit(job, engine.SubmitOptions{
			DropRatios:    drops,
			DiscardOutput: !keepOutput,
			OnComplete: func(r engine.JobResult) {
				durations = append(durations, r.FinishedAt.Sub(start).Seconds())
				last = r
				done = true
			},
		})
		if err != nil {
			return nil, engine.JobResult{}, err
		}
		sim.Run()
		if !done {
			return nil, engine.JobResult{}, errors.New("experiments: profiling job did not complete")
		}
	}
	return durations, last, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// calibratedMix is the workload prologue every figure driver shares
// (§5.2.1): per-class job templates, their profiled mean solo seconds on
// an idle default cluster, and the arrival ratio. A driver's differences
// from the paper's reference workload are data: templates, seeds, ratio
// and the target utilisation handed to rates.
type calibratedMix struct {
	jobs  []*engine.Job
	solo  []float64
	ratio []float64
}

// profileMix profiles class k's template `runs` times at soloSeed+k. A
// template repeated from the previous class (the graph figures run one
// job in both classes) reuses that class's profile.
func profileMix(jobs []*engine.Job, ratio []float64, cost engine.CostModel, runs int, soloSeed int64) (*calibratedMix, error) {
	m := &calibratedMix{jobs: jobs, solo: make([]float64, len(jobs)), ratio: ratio}
	for k, job := range jobs {
		if k > 0 && job == jobs[k-1] {
			m.solo[k] = m.solo[k-1]
			continue
		}
		durs, _, err := profileSolo(job, nil, cost, cluster.DefaultConfig(), runs, soloSeed+int64(k))
		if err != nil {
			return nil, err
		}
		m.solo[k] = mean(durs)
	}
	return m, nil
}

// referenceMix builds a two-class text setup's templates, "low" at seed+1
// and "high" at seed+2, and profiles them at seed+3 and seed+4.
func referenceMix(seed int64, setup twoClassSetup) (*calibratedMix, error) {
	low, err := textJob("low", seed+1, setup.lowPosts, setup.lowSize)
	if err != nil {
		return nil, err
	}
	high, err := textJob("high", seed+2, setup.highPosts, setup.highSize)
	if err != nil {
		return nil, err
	}
	return profileMix([]*engine.Job{low, high}, setup.ratio, textCostModel(), 3, seed+3)
}

// totalRate is the total arrival rate that loads one default cluster to
// util. The calibrator takes the ratio normalised to fractions.
func (m *calibratedMix) totalRate(util float64) (float64, error) {
	var sum float64
	for _, w := range m.ratio {
		sum += w
	}
	frac := make([]float64, len(m.ratio))
	for k, w := range m.ratio {
		frac[k] = w / sum
	}
	return workload.CalibrateTotalRate(m.solo, frac, util)
}

// rates splits totalRate(util) across the classes by the arrival ratio.
func (m *calibratedMix) rates(util float64) ([]float64, error) {
	total, err := m.totalRate(util)
	if err != nil {
		return nil, err
	}
	return workload.MixFromRatio(m.ratio, total)
}

// namedPolicy is one row of a comparison figure.
type namedPolicy struct {
	name   string
	policy core.Config
}

// compare runs base once per policy, concurrently, and renders the first
// policy as the baseline the others are diffed against.
func compare(title string, base scenario, policies []namedPolicy) (*ComparisonFigure, error) {
	scs := make([]scenario, len(policies))
	for i, p := range policies {
		scs[i] = base
		scs[i].name = p.name
		scs[i].policy = p.policy
	}
	results, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &ComparisonFigure{Title: title, Baseline: results[0], Others: results[1:]}, nil
}

// ComparisonFigure is the common output shape of Figures 7-11: a
// preemptive baseline in absolute terms plus relative differences.
type ComparisonFigure struct {
	Title    string
	Baseline metrics.ScenarioResult
	Others   []metrics.ScenarioResult
}

// String renders the figure as the paper lays it out.
func (f *ComparisonFigure) String() string {
	return f.Title + "\n" + metrics.FormatComparisonTable(f.Baseline, f.Others...)
}

// Comparisons returns the relative-difference rows.
func (f *ComparisonFigure) Comparisons() []metrics.Comparison {
	return metrics.Compare(f.Baseline, f.Others...)
}
