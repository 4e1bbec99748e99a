package dias_test

import (
	"math"
	"testing"

	"dias"
	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/simtime"
	"dias/internal/workload"
)

func stackJobs(t *testing.T) []*engine.Job {
	t.Helper()
	corpus := make(engine.Dataset, 10)
	for p := range corpus {
		corpus[p] = engine.Partition{{Key: "w", Value: "hello world"}}
	}
	low := analytics.WordPopularityJob("low", corpus, 4, 100<<20)
	high := analytics.WordPopularityJob("high", corpus, 4, 50<<20)
	return []*engine.Job{low, high}
}

func TestStackSubmitStream(t *testing.T) {
	stack, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyDA([]float64{0.2, 0}),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.05, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stackJobs(t)
	if err := stack.SubmitStream(mix, workload.FixedJobs(jobs), 30, 7); err != nil {
		t.Fatal(err)
	}
	stack.Run()
	recs := stack.Records()
	if len(recs) != 30 {
		t.Fatalf("%d records, want 30", len(recs))
	}
	var lowDropped bool
	for _, r := range recs {
		if r.Class == 0 && r.EffectiveDropRatio > 0 {
			lowDropped = true
		}
		if r.Class == 1 && r.EffectiveDropRatio > 0 {
			t.Fatal("high-priority job was deflated under DA(0,20)")
		}
	}
	if !lowDropped {
		t.Fatal("no low-priority job was deflated")
	}
	if stack.SubmitStream(nil, workload.FixedJobs(jobs), 1, 1) == nil {
		t.Fatal("nil process accepted")
	}
}

func TestStackInjectFailures(t *testing.T) {
	stack, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyNP(2),
		Faults: &faults.Config{
			Churn: &faults.ChurnConfig{MTTFSec: 200, MTTRSec: 30, HorizonSec: 2000},
			Seed:  5,
		},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.05, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := stack.SubmitStream(mix, workload.FixedJobs(stackJobs(t)), 40, 9); err != nil {
		t.Fatal(err)
	}
	stack.Run()
	if got := len(stack.Records()); got != 40 {
		t.Fatalf("%d records, want 40: failures must not lose jobs", got)
	}
	if stack.Cluster.DownNodes() != 0 {
		t.Fatal("nodes left down after drain")
	}
	// Bad config surfaces.
	if _, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyNP(2),
		Faults: &faults.Config{Churn: &faults.ChurnConfig{}},
	}); err == nil {
		t.Fatal("zero churn config accepted")
	}
}

func TestStackFaultsAndAutoscale(t *testing.T) {
	cluCfg := cluster.DefaultConfig()
	cluCfg.Nodes = 12
	stack, err := dias.NewStack(dias.StackConfig{
		Cluster: cluCfg,
		Policy:  core.PolicyDA([]float64{0.2, 0}),
		Faults: &faults.Config{
			Churn: &faults.ChurnConfig{MTTFSec: 400, MTTRSec: 40, HorizonSec: 2000},
			Tasks: &faults.TaskFaultConfig{FailProb: 0.1, MaxAttempts: 3},
			Seed:  3,
		},
		Scaling: &core.AutoscalerConfig{
			Policy:       core.BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 2},
			MinNodes:     4,
			MaxNodes:     12,
			InitialNodes: 6,
			IntervalSec:  20,
			HorizonSec:   2000,
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stack.Faults == nil || stack.Autoscaler == nil {
		t.Fatal("facade did not arm the injector/autoscaler")
	}
	mix, err := workload.NewPoissonMix([]float64{0.05, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := stack.SubmitStream(mix, workload.FixedJobs(stackJobs(t)), 40, 7); err != nil {
		t.Fatal(err)
	}
	stack.Run()
	recs := stack.Records()
	if len(recs) != 40 {
		t.Fatalf("conservation: %d records, want 40 (completed or failed)", len(recs))
	}
	if stack.Faults.TaskFailuresInjected() == 0 && stack.Faults.NodeFailures() == 0 {
		t.Fatal("no faults injected; test is vacuous")
	}
	if got := stack.Cluster.CommissionedNodes(); got < 4 || got > 12 {
		t.Fatalf("commissioned nodes %d outside autoscaler bounds", got)
	}
	// A bad fault plan must fail construction loudly.
	if _, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyNP(1),
		Faults: &faults.Config{Tasks: &faults.TaskFaultConfig{FailProb: 0.5}},
	}); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestStackClusterConfigUsedAsGiven checks that only the zero
// cluster.Config selects the default testbed: a partly filled one is
// validated as given instead of being replaced without an error.
func TestStackClusterConfigUsedAsGiven(t *testing.T) {
	policy := core.PolicyNP(2)
	partial := cluster.Config{CoresPerNode: 4, SprintSpeedup: 3}
	if _, err := dias.NewStack(dias.StackConfig{Cluster: partial, Policy: policy}); err == nil {
		t.Fatal("a cluster config without Nodes was accepted")
	}
	custom := cluster.DefaultConfig()
	custom.Nodes, custom.CoresPerNode, custom.SprintSpeedup = 3, 4, 3
	stack, err := dias.NewStack(dias.StackConfig{Cluster: custom, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if got := stack.Cluster.Config(); got != custom {
		t.Fatalf("stack cluster config %+v, want %+v", got, custom)
	}
	stack, err = dias.NewStack(dias.StackConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if got := stack.Cluster.Config(); got != cluster.DefaultConfig() {
		t.Fatalf("zero cluster config built %+v, want the testbed", got)
	}
}

// TestSprintPolicyNonFiniteRejected runs sprint policies through both
// constructors that validate them, core.New and dias.NewStack. A NaN in
// a timeout, the budget, the drain or the replenish rate used to pass
// validation and panic mid-run with a NaN timer instant; each must now be
// an error at construction. Negative timeouts ("never sprints") and an
// infinite budget stay legal, and those stacks run a stream to the end.
func TestSprintPolicyNonFiniteRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	valid := func() core.SprintPolicy {
		return core.SprintPolicy{TimeoutSec: []float64{5, 0}, BudgetJoules: 200, DrainWatts: 90, ReplenishWatts: 15}
	}
	cases := []struct {
		name  string
		edit  func(p *core.SprintPolicy)
		legal bool
	}{
		{"valid", func(*core.SprintPolicy) {}, true},
		{"negative timeout never sprints", func(p *core.SprintPolicy) { p.TimeoutSec[0] = -1 }, true},
		{"infinite budget", func(p *core.SprintPolicy) { p.BudgetJoules, p.DrainWatts = inf, 0 }, true},
		{"NaN timeout", func(p *core.SprintPolicy) { p.TimeoutSec[1] = nan }, false},
		{"NaN budget", func(p *core.SprintPolicy) { p.BudgetJoules = nan }, false},
		{"NaN drain", func(p *core.SprintPolicy) { p.DrainWatts = nan }, false},
		{"NaN replenish", func(p *core.SprintPolicy) { p.ReplenishWatts = nan }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sprint := valid()
			c.edit(&sprint)
			policy := core.PolicyDiAS([]float64{0.2, 0}, sprint)

			sim := simtime.New()
			clu, err := cluster.New(sim, cluster.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.New(sim, clu, eng, policy); (err == nil) != c.legal {
				t.Errorf("core.New: err = %v, legal = %v", err, c.legal)
			}

			stack, err := dias.NewStack(dias.StackConfig{Policy: policy, Seed: 1})
			if (err == nil) != c.legal {
				t.Fatalf("dias.NewStack: err = %v, legal = %v", err, c.legal)
			}
			if !c.legal {
				return
			}
			mix, err := workload.NewPoissonMix([]float64{0.02, 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if err := stack.SubmitStream(mix, workload.FixedJobs(stackJobs(t)), 20, 3); err != nil {
				t.Fatal(err)
			}
			stack.Run()
			if got := len(stack.Records()); got != 20 {
				t.Fatalf("%d records for 20 jobs", got)
			}
		})
	}
}
