package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/metrics"
	"dias/internal/workload"
)

// graphJob builds a triangle-count job over a synthetic scale-free graph.
func graphJob(name string, seed int64, nodes, edgesPerNode, parts, buckets int, size int64) (*engine.Job, error) {
	rng := rand.New(rand.NewSource(seed))
	edges, err := workload.SynthesizeGraph(rng, workload.GraphConfig{Nodes: nodes, EdgesPerNode: edgesPerNode})
	if err != nil {
		return nil, err
	}
	return analytics.TriangleCountJob(name, analytics.EdgeDataset(edges, parts), buckets, size), nil
}

// perStageDrops builds the drop vector for triangle count: theta on every
// ShuffleMap stage, none on the Result stage (§5.2.4).
func perStageDrops(theta float64) []float64 {
	return []float64{theta, theta, theta, theta, theta, theta}
}

// limitedSprintPolicy is the §5.3 limited budget: the high class sprints
// after timeoutSec on 22 kJ drained at 900 W and replenished at 90 W; the
// low class never sprints.
func limitedSprintPolicy(timeoutSec float64) *core.SprintPolicy {
	return &core.SprintPolicy{
		TimeoutSec:     []float64{-1, timeoutSec},
		BudgetJoules:   22000,
		DrainWatts:     900,
		ReplenishWatts: 90,
	}
}

// --- Figure 10: differential approximation on triangle count ---------------

// Figure10 runs P, NP and DA with per-stage drop ratios {1,2,5,10,20}% on
// low-priority triangle-count jobs (§5.2.4). Both classes run the same
// graph; arrivals 9:1 low:high at 80% load.
func Figure10(scale Scale) (*ComparisonFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := graphCostModel()
	cluCfg := cluster.DefaultConfig()
	// 100 input partitions / shuffle buckets so a 1% stage drop removes a
	// task; the paper's graph is ~1000x larger with the same shape.
	job, err := graphJob("tc", scale.Seed+51, 300, 3, 100, 100, 750<<20)
	if err != nil {
		return nil, err
	}
	mix, err := profileMix([]*engine.Job{job, job}, []float64{9, 1}, cost, 2, scale.Seed+52)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(0.8)
	if err != nil {
		return nil, err
	}
	policies := []namedPolicy{
		{"P", core.PolicyP(2)},
		{"NP", core.PolicyNP(2)},
	}
	for _, pct := range []float64{1, 2, 5, 10, 20} {
		policies = append(policies, namedPolicy{
			name: fmt.Sprintf("DA(0,%g)", pct),
			policy: core.Config{
				Classes:    2,
				DropRatios: [][]float64{perStageDrops(pct / 100), nil},
			},
		})
	}
	return compare("Figure 10: differential approximation on triangle count", scenario{
		rates: rates, jobs: mix.jobs, cost: cost, cluster: cluCfg, scale: scale,
	}, policies)
}

// --- Figure 11 + Table 2: full DiAS -----------------------------------------

// Figure11Result bundles the full-DiAS evaluation (§5.3): latency under
// limited and unlimited sprinting budgets, the energy comparison, and the
// sprinted non-preemptive run used by Table 2.
type Figure11Result struct {
	// Limited holds P (baseline), DiAS(0,10) and DiAS(0,20) under the
	// limited (22 kJ) sprinting budget.
	Limited *ComparisonFigure
	// Unlimited holds the same policies with an unbounded budget.
	Unlimited *ComparisonFigure
	// NPS is sprinted non-preemptive scheduling without approximation.
	NPS metrics.ScenarioResult
}

// Table2 renders the paper's Table 2: queueing/execution decomposition of
// NPS, DiAS(0,10) and DiAS(0,20) under limited sprinting.
func (r *Figure11Result) Table2() string {
	rows := append([]metrics.ScenarioResult{r.NPS}, r.Limited.Others...)
	return "Table 2: queue/execution decomposition (limited sprinting)\n" +
		metrics.FormatDecompositionTable(rows...)
}

// EnergyTable renders Figure 11(c): energy relative to P.
func (r *Figure11Result) EnergyTable() string {
	out := "Figure 11c: energy vs P\n"
	for _, fig := range []*ComparisonFigure{r.Limited, r.Unlimited} {
		for _, c := range fig.Comparisons() {
			out += fmt.Sprintf("  %-22s %+6.1f%%\n", fig.Title+" "+c.Name, c.EnergyDiffPct)
		}
	}
	return out
}

// String renders all parts.
func (r *Figure11Result) String() string {
	return r.Limited.String() + "\n" + r.Unlimited.String() + "\n" + r.EnergyTable() + "\n" + r.Table2()
}

// Figure11 runs the complete DiAS design on triangle count: high and low
// priorities of the same job size at ratio 3:7, high-priority jobs
// sprinted (limited budget: after a timeout at 65% of solo execution,
// 22 kJ at 900 W drain, 90 W replenish; unlimited: from dispatch).
func Figure11(scale Scale) (*Figure11Result, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	cost := graphCostModel()
	cluCfg := cluster.DefaultConfig()
	job, err := graphJob("tc", scale.Seed+61, 300, 3, 60, 60, 600<<20)
	if err != nil {
		return nil, err
	}
	mix, err := profileMix([]*engine.Job{job, job}, []float64{7, 3}, cost, 2, scale.Seed+62)
	if err != nil {
		return nil, err
	}
	rates, err := mix.rates(0.8)
	if err != nil {
		return nil, err
	}
	timeout := 0.65 * mix.solo[1]
	unlimitedSprint := func() *core.SprintPolicy {
		return &core.SprintPolicy{
			TimeoutSec:   []float64{-1, 0},
			BudgetJoules: math.Inf(1),
		}
	}
	mkDiAS := func(theta float64, sprint *core.SprintPolicy) core.Config {
		cfg := core.PolicyDA([]float64{theta, 0})
		cfg.Sprint = sprint
		return cfg
	}

	npsCfg := core.PolicyNP(2)
	npsCfg.Sprint = limitedSprintPolicy(timeout)
	// All six runs (P, NPS, limited/unlimited DiAS at θ=0.1/0.2) are
	// independent; fan them out as one grid. Each scenario carries its own
	// SprintPolicy instance, so concurrent runs share no budget state. The
	// unlimited runs reuse the limited runs' names, so they trace into a
	// namespace of their own: concurrent runs never share a collector.
	unlimited := scale
	unlimited.Telemetry = scale.Telemetry.Namespace("unlimited")
	mk := func(name string, policy core.Config, sc Scale) scenario {
		return scenario{
			name: name, policy: policy, rates: rates,
			jobs: mix.jobs, cost: cost, cluster: cluCfg, scale: sc,
		}
	}
	results, err := runScenarios([]scenario{
		mk("P", core.PolicyP(2), scale),
		mk("NPS", npsCfg, scale),
		mk("DiAS(0,10)", mkDiAS(0.1, limitedSprintPolicy(timeout)), scale),
		mk("DiAS(0,20)", mkDiAS(0.2, limitedSprintPolicy(timeout)), scale),
		mk("DiAS(0,10)", mkDiAS(0.1, unlimitedSprint()), unlimited),
		mk("DiAS(0,20)", mkDiAS(0.2, unlimitedSprint()), unlimited),
	})
	if err != nil {
		return nil, err
	}
	baseline, nps := results[0], results[1]
	return &Figure11Result{
		Limited: &ComparisonFigure{
			Title:    "Figure 11a: full DiAS, limited sprinting",
			Baseline: baseline,
			Others:   []metrics.ScenarioResult{results[2], results[3]},
		},
		Unlimited: &ComparisonFigure{
			Title:    "Figure 11b: full DiAS, unlimited sprinting",
			Baseline: baseline,
			Others:   []metrics.ScenarioResult{results[4], results[5]},
		},
		NPS: nps,
	}, nil
}
