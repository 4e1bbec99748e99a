package experiments

// Extensions beyond the paper's evaluation: the paper's traces exhibit
// time-varying arrival intensities (§2.2) and random job sizes (§4's
// pm(t)), but its experiments use stationary Poisson arrivals and fixed
// per-class templates. The experiments here exercise those two
// generalizations end to end, plus the §4 model-level comparison DESIGN.md
// lists as an ablation.

import (
	"fmt"
	"math/rand"

	"dias"
	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/model"
	"dias/internal/simtime"
	"dias/internal/workload"
)

// ExtensionBurstyResult compares the two-class policies under stationary
// Poisson arrivals and under a bursty two-state MMPP with the same mean
// rates.
type ExtensionBurstyResult struct {
	Poisson *ComparisonFigure
	Bursty  *ComparisonFigure
}

// String renders both comparisons.
func (r *ExtensionBurstyResult) String() string {
	return r.Poisson.String() + "\n" + r.Bursty.String()
}

// burstyProcess builds a two-state MMPP whose stationary per-class rates
// equal the given Poisson rates: a calm phase at 0.4x and a burst phase
// at 2.5x, visited 5/7 and 2/7 of the time (5/7*0.4 + 2/7*2.5 = 1
// exactly). The mean sojourns are 40 and 16 mean gaps, so bursts last
// dozens of arrivals and pile up queues.
func burstyProcess(rates []float64) (workload.Process, error) {
	var total float64
	for _, r := range rates {
		total += r
	}
	m, err := workload.NewMMPP(rates, 2.5, [2]float64{40 / total, 16 / total})
	if err != nil {
		return nil, fmt.Errorf("building MMPP: %w", err)
	}
	return m, nil
}

// ExtensionBursty runs P, NP and DA(0,20) on the reference two-class text
// workload under Poisson and under bursty arrivals with identical mean
// rates. The expected shape: burstiness inflates every queue, and DA's
// latency advantage over P/NP persists (and typically widens in absolute
// terms) because shorter low-priority jobs drain backlogs faster.
func ExtensionBursty(scale Scale) (*ExtensionBurstyResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	setup := referenceSetup()
	mix, err := referenceMix(scale.Seed+100, setup)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(setup.util)
	if err != nil {
		return nil, err
	}
	policies := []namedPolicy{
		{"P", core.PolicyP(2)},
		{"NP", core.PolicyNP(2)},
		{"DA(0,20)", core.PolicyDA([]float64{0.2, 0})},
	}
	runSet := func(title string, bursty bool) (*ComparisonFigure, error) {
		scs := make([]scenario, len(policies))
		for pi, p := range policies {
			scs[pi] = scenario{
				name: p.name, policy: p.policy, rates: rates, jobs: mix.jobs,
				cost: textCostModel(), cluster: cluster.DefaultConfig(), scale: scale,
			}
			if bursty {
				// A fresh process per policy: the MMPP's phase is state.
				proc, err := burstyProcess(rates)
				if err != nil {
					return nil, err
				}
				scs[pi].proc = proc
			}
		}
		results, err := runScenarios(scs)
		if err != nil {
			return nil, err
		}
		return &ComparisonFigure{Title: title, Baseline: results[0], Others: results[1:]}, nil
	}
	poisson, err := runSet("Extension: Poisson arrivals (reference)", false)
	if err != nil {
		return nil, err
	}
	bursty, err := runSet("Extension: bursty MMPP2 arrivals, same mean rates", true)
	if err != nil {
		return nil, err
	}
	return &ExtensionBurstyResult{Poisson: poisson, Bursty: bursty}, nil
}

// ExtensionVariableSizes runs the two-class comparison with per-arrival
// random task counts for the low class (uniform over [half, full]) — the
// pm(t) of §4 realised in the generator — confirming DA's gains survive
// heterogeneous job sizes.
func ExtensionVariableSizes(scale Scale) (*ComparisonFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	setup := referenceSetup()
	lowJob, err := textJob("low", scale.Seed+111, setup.lowPosts, setup.lowSize)
	if err != nil {
		return nil, err
	}
	highJob, err := textJob("high", scale.Seed+112, setup.highPosts, setup.highSize)
	if err != nil {
		return nil, err
	}
	parts := len(lowJob.Input)
	counts, err := workload.NewUniformCount(parts/2, parts)
	if err != nil {
		return nil, err
	}
	source, err := workload.NewVariableJobs(
		[]*engine.Job{lowJob, highJob},
		[]workload.TaskCountDist{counts, workload.FixedCount(len(highJob.Input))},
	)
	if err != nil {
		return nil, err
	}
	// Calibrate the arrival rate on the mean-size low job (3/4 of full).
	meanLow, err := workload.SubJob(lowJob, (parts/2+parts)/2)
	if err != nil {
		return nil, err
	}
	mix, err := profileMix([]*engine.Job{meanLow, highJob}, setup.ratio, cost, 3, scale.Seed+113)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(setup.util)
	if err != nil {
		return nil, err
	}
	return compare("Extension: variable low-priority job sizes (uniform task counts)", scenario{
		rates: rates, source: source, scale: scale,
		cost: cost, cluster: cluster.DefaultConfig(),
	}, []namedPolicy{
		{"P", core.PolicyP(2)},
		{"NP", core.PolicyNP(2)},
		{"DA(0,10)", core.PolicyDA([]float64{0.1, 0})},
		{"DA(0,20)", core.PolicyDA([]float64{0.2, 0})},
	})
}

// ExtensionFailures runs the two-class reference workload under DA(0,20)
// with and without random node failures (fail/repair cycles across the
// run), exercising the engine's task re-execution path end to end. The
// expected shape: failures inflate latencies (capacity loss + re-executed
// work) but every job still completes with correct output, and the
// non-preemptive DA policy keeps its advantage over P.
func ExtensionFailures(scale Scale) (*ComparisonFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	mix, err := referenceMix(scale.Seed+140, referenceSetup())
	if err != nil {
		return nil, err
	}
	// Run at 70% nominal load: failures shave capacity, and the paper-like
	// 80% would push the faulty runs into saturation.
	rates, err := mix.rates(0.7)
	if err != nil {
		return nil, err
	}
	// One node down at a time on average ~1/6 of the time:
	// 10 nodes x (MTTR 60 / MTTF 3600).
	churn := &faults.Config{Churn: &faults.ChurnConfig{MTTFSec: 3600, MTTRSec: 60}, Seed: scale.Seed + 145}
	variants := []struct {
		name   string
		policy core.Config
		plan   *faults.Config
	}{
		{"P", core.PolicyP(2), nil},
		{"P-faulty", core.PolicyP(2), churn},
		{"DA(0,20)", core.PolicyDA([]float64{0.2, 0}), nil},
		{"DA(0,20)-faulty", core.PolicyDA([]float64{0.2, 0}), churn},
	}
	scs := make([]scenario, len(variants))
	for i, v := range variants {
		scs[i] = scenario{
			name: v.name, policy: v.policy, rates: rates, jobs: mix.jobs,
			cost: textCostModel(), cluster: cluster.DefaultConfig(), scale: scale,
			faultPlan: v.plan,
		}
	}
	results, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &ComparisonFigure{
		Title:    "Extension: node failures (MTTF 1h, MTTR 60s per node)",
		Baseline: results[0],
		Others:   results[1:],
	}, nil
}

// AdaptiveRow summarises one policy of the adaptive-deflation comparison.
type AdaptiveRow struct {
	Name string
	// LowMeanSec / LowP95Sec are the low class's response statistics.
	LowMeanSec, LowP95Sec float64
	// HighMeanSec is the high class's mean response.
	HighMeanSec float64
	// MeanDrop is the average realised drop ratio of low-priority jobs —
	// the accuracy price actually paid.
	MeanDrop float64
}

// AdaptiveResult compares static deflation against the closed-loop
// controller on a workload with a load step.
type AdaptiveResult struct {
	Rows []AdaptiveRow
	// ThetaDecisions is the number of controller adjustments.
	ThetaDecisions int
}

// String renders the comparison.
func (r *AdaptiveResult) String() string {
	s := "Extension: adaptive deflation under a load step (calm -> overload)\n"
	s += fmt.Sprintf("%-12s %12s %12s %12s %10s\n", "policy", "low mean[s]", "low p95[s]", "high mean[s]", "mean drop")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%-12s %12.1f %12.1f %12.1f %9.1f%%\n",
			row.Name, row.LowMeanSec, row.LowP95Sec, row.HighMeanSec, 100*row.MeanDrop)
	}
	s += fmt.Sprintf("controller decisions: %d\n", r.ThetaDecisions)
	return s
}

// ExtensionAdaptive evaluates the closed-loop deflator (core.
// AdaptiveDeflator) on a two-class stream whose arrival rate steps from
// 60% to ~110% nominal load halfway through — the "workload change" for
// which the paper's §5.3 procedure would require a fresh offline search.
// Expected shape: static NP saturates during the overload; static DA(0,20)
// holds latency but pays its full accuracy price from the first job; the
// controller pays (almost) nothing during the calm phase and ramps θ only
// when the step hits, landing between the two on mean drop while tracking
// DA's latency.
func ExtensionAdaptive(scale Scale) (*AdaptiveResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	mix, err := referenceMix(scale.Seed+150, referenceSetup())
	if err != nil {
		return nil, err
	}
	// Build the stepped stream: calm 60% load for the first 60% of
	// arrivals, then ~110% for the rest.
	calmRate, err := mix.totalRate(0.6)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(scale.Seed + 155))
	calmRates, err := workload.MixFromRatio(mix.ratio, calmRate)
	if err != nil {
		return nil, err
	}
	calmPM, err := workload.NewPoissonMix(calmRates)
	if err != nil {
		return nil, err
	}
	nCalm := scale.Jobs * 6 / 10
	arrivals := calmPM.Stream(rng, nCalm)
	hotRates, err := workload.MixFromRatio(mix.ratio, calmRate*110.0/60.0)
	if err != nil {
		return nil, err
	}
	hotPM, err := workload.NewPoissonMix(hotRates)
	if err != nil {
		return nil, err
	}
	offset := 0.0
	if len(arrivals) > 0 {
		offset = arrivals[len(arrivals)-1].At
	}
	for _, a := range hotPM.Stream(rng, scale.Jobs-nCalm) {
		arrivals = append(arrivals, workload.Arrival{At: offset + a.At, Class: a.Class})
	}
	// Target: keep low-priority mean response within 3x its solo
	// execution; ceiling 0.4 (the paper's 32%-error operating point).
	target := 3 * mix.solo[0]
	var lastCtl *core.AdaptiveDeflator
	mkAdaptive := func(sim *simtime.Simulation) (core.Deflator, error) {
		ctl, err := core.NewAdaptiveDeflator(sim, core.AdaptiveConfig{
			TargetResponseSec: []float64{target, 0},
			MaxTheta:          []float64{0.4, 0},
			Window:            8,
			Step:              0.05,
			Hysteresis:        0.6,
		})
		if err != nil {
			return nil, err
		}
		lastCtl = ctl
		return ctl, nil
	}
	variants := []struct {
		name     string
		policy   core.Config
		deflator dias.DeflatorFactory
	}{
		{"NP", core.PolicyNP(2), nil},
		{"DA(0,20)", core.PolicyDA([]float64{0.2, 0}), nil},
		{"Adaptive", core.PolicyNP(2), mkAdaptive},
	}
	scs := make([]scenario, len(variants))
	for i, v := range variants {
		// A fresh replay per scenario: Replay is stateful.
		rp, err := workload.NewReplay(arrivals)
		if err != nil {
			return nil, err
		}
		scs[i] = scenario{
			name: v.name, policy: v.policy, jobs: mix.jobs,
			cost: textCostModel(), cluster: cluster.DefaultConfig(), scale: scale,
			proc: rp, deflator: v.deflator,
		}
	}
	results, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	out := &AdaptiveResult{}
	for i, v := range variants {
		res := results[i]
		out.Rows = append(out.Rows, AdaptiveRow{
			Name:        v.name,
			LowMeanSec:  res.PerClass[0].MeanResponseSec,
			LowP95Sec:   res.PerClass[0].P95ResponseSec,
			HighMeanSec: res.PerClass[1].MeanResponseSec,
			MeanDrop:    res.PerClass[0].MeanEffectiveDrop,
		})
	}
	if lastCtl != nil {
		out.ThetaDecisions = len(lastCtl.History())
	}
	return out, nil
}

// --- Ablation: task-level vs wave-level model ------------------------------

// ModelLevelRow is one θ point of the model comparison.
type ModelLevelRow struct {
	Theta        float64
	ObservedSec  float64
	TaskLevelSec float64
	WaveLevelSec float64
}

// ModelLevelResult compares the §4.1 task-level CTMC and the §4.2
// wave-level PH against observed processing times.
type ModelLevelResult struct {
	Rows []ModelLevelRow
	// TaskMAPE and WaveMAPE are mean absolute percent errors over Rows.
	TaskMAPE, WaveMAPE float64
}

// String renders the comparison table.
func (r *ModelLevelResult) String() string {
	s := "Ablation: task-level vs wave-level §4 models\n"
	s += fmt.Sprintf("%6s %12s %12s %12s\n", "theta", "observed[s]", "task[s]", "wave[s]")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%6.2f %12.2f %12.2f %12.2f\n",
			row.Theta, row.ObservedSec, row.TaskLevelSec, row.WaveLevelSec)
	}
	s += fmt.Sprintf("MAPE: task-level %.1f%%, wave-level %.1f%%\n", r.TaskMAPE, r.WaveMAPE)
	return s
}

// AblationModelLevel parameterizes both §4 models from the same profiling
// run of a text job and compares their predicted mean processing times to
// observation across drop ratios. The expected shape: the wave-level model
// tracks observation more closely because the task-level model's
// exponential per-task assumption overweights stragglers.
func AblationModelLevel(scale Scale) (*ModelLevelResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	cluCfg := cluster.DefaultConfig()
	job, err := textJob("model-level", scale.Seed+121, 60, 900<<20)
	if err != nil {
		return nil, err
	}
	wm, err := profileWaveModel(job, cost, cluCfg, scale.Seed+122)
	if err != nil {
		return nil, err
	}
	out := &ModelLevelResult{}
	var taskErr, waveErr float64
	thetas := []float64{0, 0.2, 0.4, 0.6, 0.8}
	for ti, theta := range thetas {
		var drops []float64
		if theta > 0 {
			drops = []float64{theta}
		}
		durs, _, err := profileSolo(job, drops, cost, cluCfg, 5, scale.Seed+130+int64(ti))
		if err != nil {
			return nil, err
		}
		obs := mean(durs)
		// Task-level: exponential tasks at the profiled per-wave rates;
		// setup and shuffle become single exponential stages.
		tl := model.TaskLevelConfig{
			Slots:       wm.slots,
			MapTasks:    model.FixedTasks(wm.mapTasks),
			ReduceTasks: model.FixedTasks(wm.redTasks),
			MuMap:       1 / wm.mapWaveSec,
			MuReduce:    1 / wm.redWaveSec,
			MuSetup:     1 / wm.overhead.At(theta),
			MuShuffle:   1 / wm.shuffleSec,
			ThetaMap:    theta,
		}
		taskMean, err := tl.MeanProcessingTime()
		if err != nil {
			return nil, fmt.Errorf("task-level model at θ=%g: %w", theta, err)
		}
		ph, err := wm.processingPH(theta)
		if err != nil {
			return nil, fmt.Errorf("wave-level model at θ=%g: %w", theta, err)
		}
		waveMean, err := ph.Mean()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ModelLevelRow{
			Theta: theta, ObservedSec: obs,
			TaskLevelSec: taskMean, WaveLevelSec: waveMean,
		})
		taskErr += abs(analytics.RelativeErrorPct(obs, taskMean))
		waveErr += abs(analytics.RelativeErrorPct(obs, waveMean))
	}
	out.TaskMAPE = taskErr / float64(len(thetas))
	out.WaveMAPE = waveErr / float64(len(thetas))
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
