//go:build !race

package engine_test

import (
	"math/rand"
	"testing"

	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/simtime"
	"dias/internal/workload"
)

// The gates below pin a warm job's whole lifecycle — arrival, admission,
// dispatch, setup and shuffle delays, sprint start and depletion, dfs block
// lookup, completion — to the one allocation that escapes by design, the
// JobResult.Stages slice. Each run pushes jobsPerRun jobs through, so the
// integer average AllocsPerRun reports resolves a tenth of an allocation
// per job. Like the package's other allocation assertions they are left
// out under the race detector, whose sync.Pool drops Puts at random: these
// paths take nothing from a pool today, but a pooled step added later
// would make them flaky there.
const jobsPerRun = 10

// diasPolicy is DiAS with DA θ_low = 0.2 and sprinting from dispatch under
// a budget small enough to deplete mid-job, so both sprint timers fire.
func diasPolicy() core.Config {
	cfg := core.PolicyDiAS([]float64{0.2, 0}, core.SprintPolicy{
		TimeoutSec:     []float64{0, 0},
		BudgetJoules:   2e3,
		DrainWatts:     900,
		ReplenishWatts: 90,
	})
	cfg.DiscardRecords = true
	return cfg
}

// TestWarmDiASJobAllocatesOnlyItsStages: a count-only two-stage job through
// core.Scheduler under PolicyDiAS allocates at most one object.
func TestWarmDiASJobAllocatesOnlyItsStages(t *testing.T) {
	sim := simtime.New()
	clu, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.New(sim, clu, eng, diasPolicy())
	if err != nil {
		t.Fatal(err)
	}
	input := make(engine.Dataset, 40)
	for p := range input {
		input[p] = engine.Partition{{Key: "k", Value: 1.0}}
	}
	job := &engine.Job{
		Name:  "spine",
		Input: input,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 10},
			{Name: "reduce", Kind: engine.Result, Deps: []int{0}},
		},
	}
	// Arrivals alternate classes, 30 s apart so the budget partly refills.
	class := 0
	arrive := func() {
		if err := sch.Arrive(class, job); err != nil {
			t.Error(err)
		}
		class = 1 - class
	}
	allocs := testing.AllocsPerRun(20, func() {
		for range jobsPerRun {
			sim.At(sim.Now().Add(30), arrive)
			sim.Run()
		}
	})
	if allocs > jobsPerRun {
		t.Errorf("a warm DiAS job allocates %.1f objects, want at most 1", allocs/jobsPerRun)
	}
}

// TestWarmFederatedTextJobAllocatesTwo: a dfs-backed text job routed to a
// federation member allocates at most two objects — its Stages and the
// SubmitAt arrival closure.
func TestWarmFederatedTextJobAllocatesTwo(t *testing.T) {
	data := dfs.DefaultConfig()
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{}, {}},
		Policy:  diasPolicy(),
		Routing: federation.NewJoinShortestQueue(),
		Data:    &data,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultCorpusConfig()
	cfg.Partitions, cfg.PostsPerPartition = 8, 10
	corpus, err := workload.SynthesizeCorpus(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := analytics.WordPopularityJob("text", corpus, 4, 8*dfs.DefaultBlockSize)
	job.InputPath = "/in/text"
	if err := fed.RegisterInput(job, 0); err != nil {
		t.Fatal(err)
	}
	sim := fed.Sim()
	allocs := testing.AllocsPerRun(20, func() {
		for i := range jobsPerRun {
			fed.SubmitAt(sim.Now().Add(30).Seconds(), i%2, job)
			fed.Run()
		}
	})
	if allocs > 2*jobsPerRun {
		t.Errorf("a warm federated text job allocates %.1f objects, want at most 2", allocs/jobsPerRun)
	}
}
