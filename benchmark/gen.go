package main

// Deterministic input generators owned by the benchmark. Everything the
// program under test sees is built here from -seed: corpora and their
// data-home variants, the no-op spine template, the Barabási–Albert graph
// and the arrival rates that load a cluster to a target utilization. The
// generators deliberately do not reuse internal/experiments' private
// builders (they are not importable) nor workload.SynthesizeGraph (it
// ranges over a Go map, so its output differs between processes at the
// same seed; see README.md, "Follow-ups").

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/simtime"
	"dias/internal/workload"
)

// Reference two-class text workload of the paper's §5.2.1 as this repo
// sizes it: 80/34 posts per partition, 1117/473 MiB logical input, 10
// reducers, low:high = 9:1.
const (
	lowPosts       = 80
	highPosts      = 34
	lowSizeBytes   = 1117 << 20
	highSizeBytes  = 473 << 20
	textReducers   = 10
	reducePerRecS  = 0.002
	graphNodes     = 300
	graphEdgesPerN = 3
	graphParts     = 100
	graphBuckets   = 100
	graphSizeBytes = 750 << 20
	graphVariants  = 8
	spineMapParts  = 40
	spineReducers  = 10
	spineSizeBytes = 1 << 20
	accuracyRuns   = 20
	// Solo submissions per graph in the accuracy pass: the relative error
	// of one approximate triangle count ranges over 0-90%, so the mean needs
	// more samples than the text workloads' 20 to hold still across seeds.
	graphAccuracyRuns = 6
	calibrateRuns     = 3
	accuracyTopN      = 100
)

// textCost prices text jobs in the tens of simulated seconds: map-heavy
// stages, size-dependent setup, a small serial shuffle.
func textCost() engine.CostModel {
	return engine.CostModel{
		TaskOverheadSec:     0.3,
		PerRecordSec:        0.1,
		SetupBaseSec:        2,
		SetupPerByte:        3e-9,
		ShuffleBaseSec:      1,
		ShufflePerRecordSec: 1e-4,
		NoiseSigma:          0.06,
	}
}

// graphCost prices triangle-count jobs: 0.25 s task overhead, 4 ms/record.
func graphCost() engine.CostModel {
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

// diasPolicy is the per-member discipline of the text workloads: DA with
// θ_low = 0.2 plus sprinting under a 22 kJ budget drained at 900 W and
// replenished at 90 W.
func diasPolicy() core.Config {
	return core.PolicyDiAS([]float64{0.2, 0}, core.SprintPolicy{
		TimeoutSec:     []float64{60, 0},
		BudgetJoules:   22e3,
		DrainWatts:     900,
		ReplenishWatts: 90,
	})
}

// textTemplate synthesizes a corpus and wires the word-popularity job
// over it with the stage-specific reduce cost.
func textTemplate(name string, seed int64, posts int, sizeBytes int64) (*engine.Job, error) {
	cfg := workload.DefaultCorpusConfig()
	cfg.PostsPerPartition = posts
	cfg.VocabSize = 800
	cfg.TopicVocab = 40
	corpus, err := workload.SynthesizeCorpus(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, fmt.Errorf("synthesizing corpus %s: %w", name, err)
	}
	job := analytics.WordPopularityJob(name, corpus, textReducers, sizeBytes)
	job.Stages[1].PerRecordSec = reducePerRecS
	return job, nil
}

// dataHomeVariants shallow-clones a template into n variants with their
// own name and dfs path, so each can be homed on a different member.
func dataHomeVariants(base *engine.Job, n int) []*engine.Job {
	out := make([]*engine.Job, n)
	for v := range out {
		clone := *base
		clone.Name = fmt.Sprintf("%s-%d", base.Name, v)
		clone.InputPath = fmt.Sprintf("/bench/%s-%d", base.Name, v)
		out[v] = &clone
	}
	return out
}

// variantSource serves a uniformly random variant of the class template
// per arrival; index = class.
type variantSource [][]*engine.Job

func (s variantSource) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	if class < 0 || class >= len(s) {
		return nil, fmt.Errorf("class %d out of range %d", class, len(s))
	}
	v := s[class]
	return v[rng.Intn(len(v))], nil
}

func (s variantSource) Classes() int { return len(s) }

// spineTemplate is the no-op two-stage job: 40 single-record map
// partitions shuffled to 10 reducers, no Compute anywhere, so simtime,
// engine dispatch, core and cluster do all the host work.
func spineTemplate() *engine.Job {
	input := make(engine.Dataset, spineMapParts)
	for p := range input {
		input[p] = engine.Partition{{Key: fmt.Sprintf("k%d", p), Value: 1.0}}
	}
	return &engine.Job{
		Name:      "spine",
		Input:     input,
		SizeBytes: spineSizeBytes,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: spineReducers},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
}

// barabasiAlbert grows a preferential-attachment graph: a clique on m+1
// vertices, then every new vertex attaches m edges to distinct existing
// vertices drawn in proportion to degree. Targets are kept in selection
// order in a slice, never in a map, so the edge list is a pure function
// of the RNG stream in every process.
func barabasiAlbert(rng *rand.Rand, nodes, m int) ([]analytics.Edge, error) {
	if nodes < 3 || m < 1 || m >= nodes {
		return nil, fmt.Errorf("graph with %d nodes and %d edges per node is invalid", nodes, m)
	}
	edges := make([]analytics.Edge, 0, nodes*m)
	endpoints := make([]int64, 0, 2*nodes*m)
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, analytics.Edge{U: int64(u), V: int64(v)})
			endpoints = append(endpoints, int64(u), int64(v))
		}
	}
	targets := make([]int64, 0, m)
	for v := int64(m + 1); v < int64(nodes); v++ {
		targets = targets[:0]
		for len(targets) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != v && !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			edges = append(edges, analytics.Edge{U: v, V: t})
			endpoints = append(endpoints, v, t)
		}
	}
	return edges, nil
}

// triangleTemplate builds the 7-stage triangle-count job over a seeded
// Barabási–Albert graph and returns the edge list for the exact oracle.
func triangleTemplate(name string, seed int64) (*engine.Job, []analytics.Edge, error) {
	edges, err := barabasiAlbert(rand.New(rand.NewSource(seed)), graphNodes, graphEdgesPerN)
	if err != nil {
		return nil, nil, err
	}
	job := analytics.TriangleCountJob(name, analytics.EdgeDataset(edges, graphParts), graphBuckets, graphSizeBytes)
	return job, edges, nil
}

// sixStageDrops applies theta to every ShuffleMap stage of the triangle
// job and none to its Result stage.
func sixStageDrops(theta float64) []float64 {
	return []float64{theta, theta, theta, theta, theta, theta}
}

// soloRuns executes the job `runs` times back to back on an idle default
// cluster through engine.Submit and returns every result in order.
func soloRuns(job *engine.Job, drops []float64, cost engine.CostModel, runs int, seed int64) ([]engine.JobResult, error) {
	sim := simtime.New()
	clu, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(sim, clu, nil, cost, seed)
	if err != nil {
		return nil, err
	}
	out := make([]engine.JobResult, 0, runs)
	for i := 0; i < runs; i++ {
		done := false
		_, err := eng.Submit(job, engine.SubmitOptions{
			DropRatios: drops,
			OnComplete: func(r engine.JobResult) {
				out = append(out, r)
				done = true
			},
		})
		if err != nil {
			return nil, fmt.Errorf("solo run of %s: %w", job.Name, err)
		}
		sim.Run()
		if !done {
			return nil, fmt.Errorf("solo run of %s did not complete", job.Name)
		}
	}
	return out, nil
}

// meanSoloSec solo-profiles a template and returns its mean simulated
// execution time.
func meanSoloSec(job *engine.Job, drops []float64, cost engine.CostModel, seed int64) (float64, error) {
	results, err := soloRuns(job, drops, cost, calibrateRuns, seed)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range results {
		sum += r.FinishedAt.Sub(r.StartedAt).Seconds()
	}
	return sum / float64(len(results)), nil
}

// calibrateRates solo-profiles one template per class and returns the
// per-class Poisson rates that load ONE default cluster to util at the
// given priority ratio (index = class).
func calibrateRates(templates []*engine.Job, cost engine.CostModel, ratio []float64, util float64, seed int64) ([]float64, error) {
	if len(templates) != len(ratio) {
		return nil, errors.New("one template per class required")
	}
	execs := make([]float64, len(templates))
	for k, job := range templates {
		sec, err := meanSoloSec(job, nil, cost, seed+int64(k))
		if err != nil {
			return nil, err
		}
		execs[k] = sec
	}
	return ratesForLoad(execs, ratio, util)
}

// ratesForLoad turns per-class mean solo execution times and a priority
// ratio into the per-class rates that keep a one-job-at-a-time engine
// busy a share util of the time.
func ratesForLoad(execSec, ratio []float64, util float64) ([]float64, error) {
	var ratioSum float64
	for _, r := range ratio {
		ratioSum += r
	}
	mix := make([]float64, len(ratio))
	for k, r := range ratio {
		mix[k] = r / ratioSum
	}
	total, err := workload.CalibrateTotalRate(execSec, mix, util)
	if err != nil {
		return nil, err
	}
	return workload.MixFromRatio(ratio, total)
}

// scaleRates multiplies per-class rates by a capacity factor.
func scaleRates(rates []float64, factor float64) []float64 {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r * factor
	}
	return out
}

// directWordCounts counts the corpus without the engine: the oracle the
// θ=0 word-popularity result must equal.
func directWordCounts(corpus engine.Dataset) map[string]float64 {
	counts := make(map[string]float64)
	for _, part := range corpus {
		for _, rec := range part {
			body, ok := rec.Value.(string)
			if !ok {
				continue
			}
			for _, w := range strings.Fields(body) {
				counts[w]++
			}
		}
	}
	return counts
}

// textAccuracyLossPct is the accuracy pass of the text workloads: the θ=0
// result must equal a direct count of the corpus, and the loss is the
// mean top-100 word MAPE of `runs` solo submissions at theta after the
// inverse-sampling correction.
func textAccuracyLossPct(job *engine.Job, theta float64, runs int, seed int64) (float64, error) {
	cost := textCost()
	cost.NoiseSigma = 0
	exactRes, err := soloRuns(job, nil, cost, 1, seed)
	if err != nil {
		return 0, err
	}
	exact := analytics.WordCounts(exactRes[0].Output)
	if want := directWordCounts(job.Input); !maps.Equal(exact, want) {
		return 0, fmt.Errorf("payload oracle: θ=0 word counts of %s differ from a direct count of the corpus", job.Name)
	}
	approx, err := soloRuns(job, []float64{theta}, cost, runs, seed+1)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range approx {
		kept := float64(r.Stages[0].TasksExecuted) / float64(r.Stages[0].TasksExecuted+r.Stages[0].TasksDropped)
		mape, err := analytics.WordAccuracyMAPE(exact, analytics.ScaleCounts(analytics.WordCounts(r.Output), kept), accuracyTopN)
		if err != nil {
			return 0, err
		}
		sum += mape
	}
	return sum / float64(len(approx)), nil
}

// triangleAccuracyLossPct is the accuracy pass of the graph workload: the
// θ=0 estimate must equal analytics.ExactTriangles, and the loss is the
// mean relative error of `runs` solo submissions at theta on all six
// shuffle stages after the inverse-sampling correction.
func triangleAccuracyLossPct(job *engine.Job, edges []analytics.Edge, theta float64, runs int, seed int64) (float64, error) {
	cost := graphCost()
	cost.NoiseSigma = 0
	exactRes, err := soloRuns(job, nil, cost, 1, seed)
	if err != nil {
		return 0, err
	}
	exact, err := analytics.TriangleCount(exactRes[0].Output)
	if err != nil {
		return 0, err
	}
	if want := float64(analytics.ExactTriangles(edges)); exact != want {
		return 0, fmt.Errorf("payload oracle: θ=0 triangle estimate %g differs from the exact count %g", exact, want)
	}
	drops := sixStageDrops(theta)
	approx, err := soloRuns(job, drops, cost, runs, seed+1)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range approx {
		raw, err := analytics.TriangleCount(r.Output)
		if err != nil {
			return 0, err
		}
		sum += analytics.RelativeErrorPct(exact, analytics.ScaleTriangleEstimate(raw, drops))
	}
	return sum / float64(len(approx)), nil
}
