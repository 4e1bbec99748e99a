package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/model"
	"dias/internal/phdist"
	"dias/internal/queueing"
	"dias/internal/runner"
	"dias/internal/stats"
	"dias/internal/workload"
)

// --- Figure 4: processing-time model validation ---------------------------

// Figure4Row is one (dataset, drop ratio) point: observed vs predicted
// mean job processing time.
type Figure4Row struct {
	Dataset      string
	Theta        float64
	ObservedSec  float64
	PredictedSec float64
	ErrPct       float64
}

// Figure4Result reproduces Figure 4: wave-level model predictions against
// engine-observed processing times across drop ratios, for two datasets
// (the paper's StackExchange sites "126" and "147").
type Figure4Result struct {
	Rows       []Figure4Row
	MeanErrPct map[string]float64
}

// String renders the figure data.
func (f *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: job processing time vs drop ratio (model vs observed)\n")
	b.WriteString("dataset  theta   observed[s]  predicted[s]  err[%]\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-8s %5.2f   %10.2f   %10.2f   %6.1f\n",
			r.Dataset, r.Theta, r.ObservedSec, r.PredictedSec, r.ErrPct)
	}
	// Datasets in the order their rows appear, never in map order, so the
	// rendering is byte-stable from run to run.
	var rendered []string
	for _, r := range f.Rows {
		if e, ok := f.MeanErrPct[r.Dataset]; ok && !slices.Contains(rendered, r.Dataset) {
			rendered = append(rendered, r.Dataset)
			fmt.Fprintf(&b, "mean error %s: %.1f%%\n", r.Dataset, e)
		}
	}
	return b.String()
}

// waveModelFromProfile parameterizes the §4.2 wave-level model from one
// profiled run (§4.3): per-stage mean task times and windows give wave
// times; setup overheads at θ=0 and θ=0.9 anchor the linear interpolation.
type waveModelFromProfile struct {
	slots              int
	mapTasks, redTasks int
	mapWaveSec         float64
	redWaveSec         float64
	shuffleSec         float64
	overhead           model.OverheadModel
	waveSCV            float64
}

func profileWaveModel(job *engine.Job, cost engine.CostModel, cluCfg cluster.Config, seed int64) (*waveModelFromProfile, error) {
	slots := cluCfg.Nodes * cluCfg.CoresPerNode
	durs0, res0, err := profileSolo(job, nil, cost, cluCfg, 3, seed)
	if err != nil {
		return nil, err
	}
	_, res9, err := profileSolo(job, []float64{0.9}, cost, cluCfg, 3, seed+1)
	if err != nil {
		return nil, err
	}
	ms, rs := res0.Stages[0], res0.Stages[1]
	mapWaves := ms.Waves(slots)
	redWaves := rs.Waves(slots)
	if mapWaves == 0 || redWaves == 0 {
		return nil, fmt.Errorf("experiments: profiling saw %d/%d waves", mapWaves, redWaves)
	}
	// Sample variance of repeated runs parameterizes the wave SCV.
	var s stats.Stream
	for _, d := range durs0 {
		s.Add(d)
	}
	// Floor the SCV so fitted waves stay low-order PH (see FitMeanSCV).
	scv := 0.02
	if m := s.Mean(); m > 0 && s.Variance() > 0 {
		if v := s.Variance() / (m * m); v > scv {
			scv = v
		}
	}
	return &waveModelFromProfile{
		slots:      slots,
		mapTasks:   ms.TasksExecuted + ms.TasksDropped,
		redTasks:   rs.TasksExecuted + rs.TasksDropped,
		mapWaveSec: ms.EndedAt.Sub(ms.StartedAt).Seconds() / float64(mapWaves),
		redWaveSec: rs.EndedAt.Sub(rs.StartedAt).Seconds() / float64(redWaves),
		shuffleSec: rs.StartedAt.Sub(ms.EndedAt).Seconds(),
		overhead: model.OverheadModel{
			ThetaLo: 0, OverheadLo: res0.Stages[0].StartedAt.Sub(res0.StartedAt).Seconds(),
			ThetaHi: 0.9, OverheadHi: res9.Stages[0].StartedAt.Sub(res9.StartedAt).Seconds(),
		},
		waveSCV: scv,
	}, nil
}

// processingPH builds the wave-level PH at drop ratio theta (map stage
// only, as the paper's text experiments drop map tasks).
func (w *waveModelFromProfile) processingPH(theta float64) (*phdist.PH, error) {
	setup, err := phdist.FitMeanSCV(w.overhead.At(theta), 0.05)
	if err != nil {
		return nil, err
	}
	shuffle, err := phdist.FitMeanSCV(w.shuffleSec, 0.05)
	if err != nil {
		return nil, err
	}
	mapWave, err := phdist.FitMeanSCV(w.mapWaveSec, w.waveSCV)
	if err != nil {
		return nil, err
	}
	redWave, err := phdist.FitMeanSCV(w.redWaveSec, w.waveSCV)
	if err != nil {
		return nil, err
	}
	cfg := model.WaveLevelConfig{
		Slots:       w.slots,
		MapTasks:    model.FixedTasks(w.mapTasks),
		ReduceTasks: model.FixedTasks(w.redTasks),
		ThetaMap:    theta,
		Setup:       setup,
		Shuffle:     shuffle,
		MapWave:     func(int) *phdist.PH { return mapWave },
		ReduceWave:  func(int) *phdist.PH { return redWave },
	}
	return cfg.ProcessingTime()
}

// Figure4 runs the validation. The per-dataset profiling runs and the
// (dataset × theta) observation runs are two independent grids, each fanned
// out on the scale's worker pool.
func Figure4(scale Scale) (*Figure4Result, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	cluCfg := cluster.DefaultConfig()
	datasets := []struct {
		label string
		posts int
		size  int64
	}{
		{"126", 40, 473 << 20},
		{"147", 80, 1117 << 20},
	}
	pool := scale.pool()
	type dsProfile struct {
		job *engine.Job
		wm  *waveModelFromProfile
	}
	profTasks := make([]runner.Task[dsProfile], len(datasets))
	for di := range datasets {
		di, ds := di, datasets[di]
		profTasks[di] = func(context.Context) (dsProfile, error) {
			job, err := textJob("fig4-"+ds.label, scale.Seed+int64(di)*100, ds.posts, ds.size)
			if err != nil {
				return dsProfile{}, err
			}
			wm, err := profileWaveModel(job, cost, cluCfg, scale.Seed+int64(di)*1000)
			if err != nil {
				return dsProfile{}, err
			}
			return dsProfile{job: job, wm: wm}, nil
		}
	}
	profiles, err := runner.Map(context.Background(), pool, profTasks)
	if err != nil {
		return nil, err
	}
	thetas := []float64{0, 0.2, 0.4, 0.6, 0.8}
	type cell struct{ di, ti int }
	cells := make([]cell, 0, len(datasets)*len(thetas))
	for di := range datasets {
		for ti := range thetas {
			cells = append(cells, cell{di, ti})
		}
	}
	rowTasks := make([]runner.Task[Figure4Row], len(cells))
	for i := range cells {
		c := cells[i]
		rowTasks[i] = func(context.Context) (Figure4Row, error) {
			theta := thetas[c.ti]
			var drops []float64
			if theta > 0 {
				drops = []float64{theta}
			}
			durs, _, err := profileSolo(profiles[c.di].job, drops, cost, cluCfg, 5,
				scale.Seed+int64(c.di)*1000+int64(theta*100))
			if err != nil {
				return Figure4Row{}, err
			}
			obs := mean(durs)
			ph, err := profiles[c.di].wm.processingPH(theta)
			if err != nil {
				return Figure4Row{}, err
			}
			pred, err := ph.Mean()
			if err != nil {
				return Figure4Row{}, err
			}
			return Figure4Row{
				Dataset: datasets[c.di].label, Theta: theta,
				ObservedSec: obs, PredictedSec: pred,
				ErrPct: analytics.RelativeErrorPct(obs, pred),
			}, nil
		}
	}
	rows, err := runner.Map(context.Background(), pool, rowTasks)
	if err != nil {
		return nil, err
	}
	out := &Figure4Result{Rows: rows, MeanErrPct: make(map[string]float64)}
	for di, ds := range datasets {
		var errSum float64
		for ti := range thetas {
			errSum += rows[di*len(thetas)+ti].ErrPct
		}
		out.MeanErrPct[ds.label] = errSum / float64(len(thetas))
	}
	return out, nil
}

// --- Figure 5: response-time model validation ------------------------------

// Figure5Row is one (theta, class) point of observed vs predicted mean
// response time under non-preemptive 2-class priority at 80% load.
type Figure5Row struct {
	Theta        float64
	Class        string
	ObservedSec  float64
	PredictedSec float64
}

// Figure5Result reproduces Figure 5.
type Figure5Result struct {
	Rows       []Figure5Row
	MeanErrPct float64
}

// String renders the figure data.
func (f *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: mean response time vs drop ratio (model vs observed, 80% load)\n")
	b.WriteString("theta  class  observed[s]  predicted[s]\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%5.2f  %-5s  %10.2f  %10.2f\n", r.Theta, r.Class, r.ObservedSec, r.PredictedSec)
	}
	fmt.Fprintf(&b, "mean error: %.1f%%\n", f.MeanErrPct)
	return b.String()
}

// Figure5 runs the validation: low-priority jobs 2.36x larger, 9:1
// low:high ratio, 80% utilization, drop ratio θ applied to low-priority
// map tasks.
func Figure5(scale Scale) (*Figure5Result, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	cluCfg := cluster.DefaultConfig()
	setup := referenceSetup()
	lowJob, err := textJob("fig5-low", scale.Seed+11, setup.lowPosts, setup.lowSize)
	if err != nil {
		return nil, err
	}
	highJob, err := textJob("fig5-high", scale.Seed+12, setup.highPosts, setup.highSize)
	if err != nil {
		return nil, err
	}
	mix, err := profileMix([]*engine.Job{lowJob, highJob}, setup.ratio, cost, 3, scale.Seed+13)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(setup.util)
	if err != nil {
		return nil, err
	}
	lowModel, err := profileWaveModel(lowJob, cost, cluCfg, scale.Seed+15)
	if err != nil {
		return nil, err
	}
	highModel, err := profileWaveModel(highJob, cost, cluCfg, scale.Seed+16)
	if err != nil {
		return nil, err
	}
	// One queueing scenario per theta; the runs are independent, so the
	// whole sweep fans out on the worker pool.
	thetas := []float64{0, 0.2, 0.4, 0.6, 0.8}
	scs := make([]scenario, len(thetas))
	for i, theta := range thetas {
		scs[i] = scenario{
			name:    fmt.Sprintf("DA(0,%.0f)", theta*100),
			policy:  core.PolicyDA([]float64{theta, 0}),
			rates:   rates,
			jobs:    mix.jobs,
			cost:    cost,
			cluster: cluCfg,
			scale:   scale,
		}
	}
	observed, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	out := &Figure5Result{}
	var errSum float64
	var n int
	for ti, theta := range thetas {
		obs := observed[ti]
		lowPH, err := lowModel.processingPH(theta)
		if err != nil {
			return nil, err
		}
		highPH, err := highModel.processingPH(0)
		if err != nil {
			return nil, err
		}
		pred, err := model.PredictMeanResponse([]model.ClassModel{
			{Rate: rates[0], Processing: lowPH},
			{Rate: rates[1], Processing: highPH},
		}, queueing.NonPreemptive)
		if err != nil {
			return nil, err
		}
		for k, label := range []string{"low", "high"} {
			out.Rows = append(out.Rows, Figure5Row{
				Theta: theta, Class: label,
				ObservedSec:  obs.PerClass[k].MeanResponseSec,
				PredictedSec: pred[k],
			})
			errSum += analytics.RelativeErrorPct(obs.PerClass[k].MeanResponseSec, pred[k])
			n++
		}
	}
	out.MeanErrPct = errSum / float64(n)
	return out, nil
}

// --- Figure 6: accuracy loss vs drop ratio ---------------------------------

// Figure6Row is one drop-ratio point of the accuracy-loss curve.
type Figure6Row struct {
	Theta   float64
	MAPEPct float64
}

// Figure6Result reproduces Figure 6: mean absolute percentage error of
// estimator-corrected word counts against the exact result, growing
// sub-linearly with the map-task drop ratio.
type Figure6Result struct {
	Rows []Figure6Row
}

// String renders the curve.
func (f *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: accuracy loss vs map drop ratio\n")
	b.WriteString("theta   MAPE[%]\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%5.2f   %6.1f\n", r.Theta, r.MAPEPct)
	}
	return b.String()
}

// Curve returns the result as an AccuracyCurve for the deflator, linearly
// interpolating between measured points.
func (f *Figure6Result) Curve() core.AccuracyCurve {
	rows := f.Rows
	return func(theta float64) float64 {
		if theta <= 0 || len(rows) == 0 {
			return 0
		}
		prevT, prevE := 0.0, 0.0
		for _, r := range rows {
			if theta <= r.Theta {
				return stats.Interpolate(prevT, prevE, r.Theta, r.MAPEPct, theta)
			}
			prevT, prevE = r.Theta, r.MAPEPct
		}
		return prevE
	}
}

// Figure6 measures accuracy loss across drop ratios, averaged over several
// synthetic topic datasets (the paper averages across StackExchange sites).
func Figure6(scale Scale) (*Figure6Result, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	cost.NoiseSigma = 0 // accuracy, not latency, is measured here
	cluCfg := cluster.DefaultConfig()
	const datasets = 4
	thetas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	pool := scale.pool()
	// Phase 1: per-dataset exact counts from a no-drop run.
	type exactRun struct {
		job   *engine.Job
		exact map[string]float64
	}
	exactTasks := make([]runner.Task[exactRun], datasets)
	for d := 0; d < datasets; d++ {
		d := d
		exactTasks[d] = func(context.Context) (exactRun, error) {
			cfg := workload.DefaultCorpusConfig()
			cfg.PostsPerPartition = 50
			rng := rand.New(rand.NewSource(scale.Seed + int64(d)*31))
			corpus, err := workload.SynthesizeCorpus(rng, cfg)
			if err != nil {
				return exactRun{}, err
			}
			job := wordJobFromCorpus(fmt.Sprintf("fig6-%d", d), corpus, 512<<20)
			exact, err := wordCountsForDrop(job, nil, cost, cluCfg, scale.Seed)
			if err != nil {
				return exactRun{}, err
			}
			return exactRun{job: job, exact: exact}, nil
		}
	}
	exacts, err := runner.Map(context.Background(), pool, exactTasks)
	if err != nil {
		return nil, err
	}
	// Phase 2: the dataset × theta grid of approximate runs.
	type cell struct{ d, ti int }
	cells := make([]cell, 0, datasets*len(thetas))
	for d := 0; d < datasets; d++ {
		for ti := range thetas {
			cells = append(cells, cell{d, ti})
		}
	}
	mapeTasks := make([]runner.Task[float64], len(cells))
	for i := range cells {
		c := cells[i]
		mapeTasks[i] = func(context.Context) (float64, error) {
			theta := thetas[c.ti]
			approx, err := wordCountsForDrop(exacts[c.d].job, []float64{theta}, cost, cluCfg, scale.Seed+int64(c.ti))
			if err != nil {
				return 0, err
			}
			scaled := analytics.ScaleCounts(approx, 1-theta)
			return analytics.WordAccuracyMAPE(exacts[c.d].exact, scaled, 100)
		}
	}
	mapes, err := runner.Map(context.Background(), pool, mapeTasks)
	if err != nil {
		return nil, err
	}
	// Accumulate in dataset-major order so sums stay bit-identical to the
	// old serial loop.
	sums := make([]float64, len(thetas))
	for i, c := range cells {
		sums[c.ti] += mapes[i]
	}
	out := &Figure6Result{}
	for ti, theta := range thetas {
		out.Rows = append(out.Rows, Figure6Row{Theta: theta, MAPEPct: sums[ti] / datasets})
	}
	return out, nil
}

func wordCountsForDrop(job *engine.Job, drops []float64, cost engine.CostModel, cluCfg cluster.Config, seed int64) (map[string]float64, error) {
	_, res, err := soloRuns(job, drops, cost, cluCfg, 1, seed, true)
	if err != nil {
		return nil, err
	}
	return analytics.WordCounts(res.Output), nil
}

// --- Figures 7-9: differential approximation -------------------------------

// twoClassSetup parameterizes the reference text workload (§5.2.1) and its
// sensitivity variants (§5.2.2).
type twoClassSetup struct {
	lowPosts, highPosts int
	lowSize, highSize   int64
	ratio               []float64 // arrival ratio low:high
	util                float64
}

// referenceSetup mirrors the paper: sizes 1117 MB / 473 MB (2.36x), 9:1
// low:high arrivals, 80% load.
func referenceSetup() twoClassSetup {
	return twoClassSetup{
		lowPosts: 80, highPosts: 34,
		lowSize: 1117 << 20, highSize: 473 << 20,
		ratio: []float64{9, 1},
		util:  0.8,
	}
}

// runTwoClass runs P, NP, DA(0,10), DA(0,20) on a two-class setup.
func runTwoClass(title string, setup twoClassSetup, scale Scale) (*ComparisonFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	mix, err := referenceMix(scale.Seed+20, setup)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(setup.util)
	if err != nil {
		return nil, err
	}
	return compare(title, scenario{
		rates: rates, jobs: mix.jobs, scale: scale,
		cost: textCostModel(), cluster: cluster.DefaultConfig(),
	}, []namedPolicy{
		{"P", core.PolicyP(2)},
		{"NP", core.PolicyNP(2)},
		{"DA(0,10)", core.PolicyDA([]float64{0.1, 0})},
		{"DA(0,20)", core.PolicyDA([]float64{0.2, 0})},
	})
}

// Figure7 is the two-priority reference comparison (§5.2.1).
func Figure7(scale Scale) (*ComparisonFigure, error) {
	return runTwoClass("Figure 7: two-priority reference setup", referenceSetup(), scale)
}

// Figure8Variant names a sensitivity scenario of §5.2.2.
type Figure8Variant string

// The three §5.2.2 variants.
const (
	Figure8EqualSizes Figure8Variant = "a-equal-sizes"
	Figure8MoreHigh   Figure8Variant = "b-more-high-priority"
	Figure8HalfLoad   Figure8Variant = "c-50pct-load"
)

// Figure8 runs one sensitivity variant.
func Figure8(variant Figure8Variant, scale Scale) (*ComparisonFigure, error) {
	setup := referenceSetup()
	switch variant {
	case Figure8EqualSizes:
		setup.highPosts = setup.lowPosts
		setup.highSize = setup.lowSize
	case Figure8MoreHigh:
		setup.ratio = []float64{1, 9}
	case Figure8HalfLoad:
		setup.util = 0.5
	default:
		return nil, fmt.Errorf("experiments: unknown Figure 8 variant %q", variant)
	}
	return runTwoClass("Figure 8"+string(variant), setup, scale)
}

// Figure9 is the three-priority comparison (§5.2.3): arrival ratio
// high-medium-low = 1-4-5 at 80% load, with DA(0,10,20) and DA(0,20,40).
func Figure9(scale Scale) (*ComparisonFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	lowJob, err := textJob("low", scale.Seed+31, 80, 1117<<20)
	if err != nil {
		return nil, err
	}
	midJob, err := textJob("mid", scale.Seed+32, 55, 760<<20)
	if err != nil {
		return nil, err
	}
	highJob, err := textJob("high", scale.Seed+33, 34, 473<<20)
	if err != nil {
		return nil, err
	}
	// Ratio low-mid-high = 5-4-1.
	mix, err := profileMix([]*engine.Job{lowJob, midJob, highJob}, []float64{5, 4, 1}, cost, 3, scale.Seed+40)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(0.8)
	if err != nil {
		return nil, err
	}
	return compare("Figure 9: three-priority system", scenario{
		rates: rates, jobs: mix.jobs, scale: scale,
		cost: cost, cluster: cluster.DefaultConfig(),
	}, []namedPolicy{
		{"P", core.PolicyP(3)},
		{"NP", core.PolicyNP(3)},
		{"DA(0,10,20)", core.PolicyDA([]float64{0.2, 0.1, 0})},
		{"DA(0,20,40)", core.PolicyDA([]float64{0.4, 0.2, 0})},
	})
}
