package experiments

import (
	"context"

	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/metrics"
	"dias/internal/runner"
)

// Ablations isolate the design choices DESIGN.md calls out. Each returns a
// small comparison the bench harness prints.

// AblationSprintTimeout compares sprint-timeout policies under the limited
// budget: immediate sprinting versus the paper's timeout-based policy
// versus no sprinting, on the Figure 11 workload.
func AblationSprintTimeout(scale Scale) (*ComparisonFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := graphCostModel()
	cluCfg := cluster.DefaultConfig()
	job, err := graphJob("tc", scale.Seed+71, 300, 3, 60, 60, 600<<20)
	if err != nil {
		return nil, err
	}
	mix, err := profileMix([]*engine.Job{job, job}, []float64{7, 3}, cost, 2, scale.Seed+72)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(0.8)
	if err != nil {
		return nil, err
	}
	mk := func(timeout float64) core.Config {
		cfg := core.PolicyNP(2)
		cfg.Sprint = limitedSprintPolicy(timeout)
		return cfg
	}
	return compare("Ablation: sprint-timeout policy under a limited budget", scenario{
		rates: rates, jobs: mix.jobs, cost: cost, cluster: cluCfg, scale: scale,
	}, []namedPolicy{
		{"NP-nosprint", core.PolicyNP(2)},
		{"NPS-immediate", mk(0)},
		{"NPS-timeout", mk(0.65 * mix.solo[1])},
	})
}

// AblationEvictionResume compares the paper's preemptive-repeat eviction
// (re-execution from scratch) with hypothetical suspend/resume, isolating
// how much of P's resource waste comes from repeating work. The simulated
// engine cannot checkpoint jobs, so resume is approximated at the queue
// level by the queueing package; here we quantify repeat's waste directly.
func AblationEvictionResume(scale Scale) (metrics.ScenarioResult, error) {
	if err := scale.validate(); err != nil {
		return metrics.ScenarioResult{}, err
	}
	setup := referenceSetup()
	mix, err := referenceMix(scale.Seed+80, setup)
	if err != nil {
		return metrics.ScenarioResult{}, err
	}
	rates, err := mix.rates(setup.util)
	if err != nil {
		return metrics.ScenarioResult{}, err
	}
	sc := scenario{
		name:   "P-repeat",
		policy: core.PolicyP(2),
		rates:  rates,
		jobs:   mix.jobs,
		cost:   textCostModel(), cluster: cluster.DefaultConfig(), scale: scale,
	}
	return sc.run()
}

// AblationDropTiming quantifies early dropping's fetch savings: the same
// job with dfs-backed input at θ=0.5, where dropped stage-0 tasks skip
// their block reads, versus θ=0 (the full fetch volume).
type AblationDropTimingResult struct {
	FullExecSec, DroppedExecSec float64
}

// AblationDropTiming runs the comparison.
func AblationDropTiming(scale Scale) (*AblationDropTimingResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := textCostModel()
	cluCfg := cluster.DefaultConfig()
	job, err := textJob("drop-timing", scale.Seed+91, 60, 900<<20)
	if err != nil {
		return nil, err
	}
	// The full and dropped profiles are independent runs over the same
	// immutable job; fan them out as a two-task grid.
	profiles := []struct {
		drops []float64
		seed  int64
	}{
		{nil, scale.Seed + 92},
		{[]float64{0.5}, scale.Seed + 93},
	}
	tasks := make([]runner.Task[float64], len(profiles))
	for i := range profiles {
		p := profiles[i]
		tasks[i] = func(context.Context) (float64, error) {
			durs, _, err := profileSolo(job, p.drops, cost, cluCfg, 3, p.seed)
			if err != nil {
				return 0, err
			}
			return mean(durs), nil
		}
	}
	execs, err := runner.Map(context.Background(), scale.pool(), tasks)
	if err != nil {
		return nil, err
	}
	return &AblationDropTimingResult{
		FullExecSec:    execs[0],
		DroppedExecSec: execs[1],
	}, nil
}
