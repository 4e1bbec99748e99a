package experiments

import (
	"fmt"

	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/metrics"
)

// The paper's motivation (§1, §2.1) rests on two trace observations about
// preemptive priority scheduling: low-priority jobs suffer ~3x the latency
// slowdown of high-priority ones, and re-executing evicted jobs wastes a
// substantial share of machine time, growing with load. Motivation
// regenerates both observations on the simulated stack by sweeping the
// system load under policy P and reporting slowdown ratios and waste.

// MotivationRow is one load point of the sweep.
type MotivationRow struct {
	Util float64
	// LowSlowdown / HighSlowdown are mean response/exec ratios.
	LowSlowdown, HighSlowdown float64
	// Ratio = LowSlowdown / HighSlowdown (the paper's ~3x headline).
	Ratio float64
	// WastePct is machine time re-executing evicted jobs, in percent.
	WastePct float64
	// Evictions counts preemptions suffered by low-priority jobs.
	Evictions int
}

// MotivationResult is the §2.1 reproduction.
type MotivationResult struct {
	Rows []MotivationRow
}

// String renders the sweep.
func (r *MotivationResult) String() string {
	s := "Motivation (§2.1): preemptive priority P across system loads\n"
	s += fmt.Sprintf("%6s %14s %14s %8s %9s %10s\n",
		"util", "low slowdown", "high slowdown", "ratio", "waste[%]", "evictions")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%6.2f %13.2fx %13.2fx %8.2f %9.1f %10d\n",
			row.Util, row.LowSlowdown, row.HighSlowdown, row.Ratio, row.WastePct, row.Evictions)
	}
	return s
}

// Motivation sweeps the system load under policy P on the reference
// two-class text workload. Expected shape: the slowdown ratio and the
// resource waste both grow with load — at high load the low class's
// slowdown is several times the high class's, the paper's trace-derived
// motivation for abandoning eviction.
func Motivation(scale Scale) (*MotivationResult, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	mix, err := referenceMix(scale.Seed+160, referenceSetup())
	if err != nil {
		return nil, err
	}
	// One scenario per load point; the sweep fans out on the worker pool.
	// Each load point streams its records into a slowdown accumulator, so
	// no per-job record slice is ever materialized.
	utils := []float64{0.5, 0.7, 0.8, 0.9}
	scs := make([]scenario, len(utils))
	sds := make([]*metrics.SlowdownAccumulator, len(utils))
	for i, util := range utils {
		rates, err := mix.rates(util)
		if err != nil {
			return nil, err
		}
		sds[i] = metrics.NewSlowdownAccumulator(2, scale.Jobs, scale.WarmupFraction)
		scs[i] = scenario{
			name: fmt.Sprintf("P@%.0f%%", 100*util), policy: core.PolicyP(2),
			rates: rates, jobs: mix.jobs,
			cost: textCostModel(), cluster: cluster.DefaultConfig(), scale: scale,
			observe: sds[i].Add,
		}
	}
	results, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	out := &MotivationResult{}
	for i, util := range utils {
		res := results[i]
		sd := sds[i].Classes()
		out.Rows = append(out.Rows, MotivationRow{
			Util:         util,
			LowSlowdown:  sd[0].MeanSlowdown,
			HighSlowdown: sd[1].MeanSlowdown,
			Ratio:        metrics.SlowdownRatio(sd),
			WastePct:     res.ResourceWastePct,
			Evictions:    res.PerClass[0].Evictions,
		})
	}
	return out, nil
}
