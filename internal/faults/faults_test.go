package faults

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/simtime"
)

// rig is a simulation + cluster + engine trio for injection tests; each
// test builds its own scheduler on top (an engine serves one scheduler).
type rig struct {
	sim *simtime.Simulation
	clu *cluster.Cluster
	eng *engine.Engine
}

func newRig(t *testing.T, nodes, cores int, taskSec float64) *rig {
	t.Helper()
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.CostModel{TaskOverheadSec: taskSec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: sim, clu: clu, eng: eng}
}

// job builds an n-task single-stage job.
func job(name string, tasks int) *engine.Job {
	in := make(engine.Dataset, tasks)
	for i := range in {
		in[i] = engine.Partition{{Key: strconv.Itoa(i), Value: 1.0}}
	}
	return &engine.Job{Name: name, Input: in, Stages: []engine.Stage{{Kind: engine.Result}}}
}

func TestValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	r := newRig(t, 4, 1, 1)
	bad := []Config{
		{},                                 // empty
		{Churn: &ChurnConfig{}},            // neither stochastic nor trace
		{Churn: &ChurnConfig{MTTFSec: 10}}, // missing MTTR
		{Churn: &ChurnConfig{MTTFSec: 10, MTTRSec: 1}},                                                                      // missing horizon
		{Churn: &ChurnConfig{Outages: []Outage{{Node: 9, AtSec: 1, DurationSec: 1}}}},                                       // node OOB
		{Churn: &ChurnConfig{Outages: []Outage{{Node: 1, AtSec: 1, DurationSec: 0}}}},                                       // zero duration
		{Churn: &ChurnConfig{Outages: []Outage{{Node: 1, AtSec: 1, DurationSec: 10}, {Node: 1, AtSec: 5, DurationSec: 1}}}}, // overlap
		{Tasks: &TaskFaultConfig{}},                                       // zero probabilities
		{Tasks: &TaskFaultConfig{FailProb: 0.1}},                          // missing attempt budget
		{Tasks: &TaskFaultConfig{StragglerProb: 0.1, StragglerFactor: 1}}, // factor <= 1
		// Non-finite input: NaN slips past <= 0 style checks.
		{Churn: &ChurnConfig{MTTFSec: nan, MTTRSec: 1, HorizonSec: 10}},
		{Churn: &ChurnConfig{MTTFSec: 10, MTTRSec: nan, HorizonSec: 10}},
		{Churn: &ChurnConfig{MTTFSec: 10, MTTRSec: inf, HorizonSec: 10}},
		{Churn: &ChurnConfig{MTTFSec: 10, MTTRSec: 1, HorizonSec: nan}},
		{Churn: &ChurnConfig{MTTFSec: 10, MTTRSec: 1, HorizonSec: inf}},
		{Churn: &ChurnConfig{Outages: []Outage{{Node: 1, AtSec: nan, DurationSec: 1}}}},
		{Churn: &ChurnConfig{Outages: []Outage{{Node: 1, AtSec: inf, DurationSec: 1}}}},
		{Churn: &ChurnConfig{Outages: []Outage{{Node: 1, AtSec: 1, DurationSec: nan}}}},
		{Tasks: &TaskFaultConfig{FailProb: nan, MaxAttempts: 2}},
		{Tasks: &TaskFaultConfig{StragglerProb: nan, StragglerFactor: 2}},
		{Tasks: &TaskFaultConfig{StragglerProb: 0.1, StragglerFactor: nan}},
		{Tasks: &TaskFaultConfig{StragglerProb: 0.1, StragglerFactor: inf}},
	}
	for i, cfg := range bad {
		if _, err := Attach(r.sim, r.eng, cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

func TestTraceDrivenChurnFiresExactly(t *testing.T) {
	r := newRig(t, 3, 1, 1)
	outages := []Outage{
		{Node: 0, AtSec: 10, DurationSec: 5},
		{Node: 2, AtSec: 12, DurationSec: 3},
		{Node: 0, AtSec: 30, DurationSec: 2},
	}
	inj, err := Attach(r.sim, r.eng, Config{Churn: &ChurnConfig{Outages: outages}})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// Probe node state at chosen instants (after the events at the same
	// timestamp have fired: At schedules FIFO per timestamp).
	type probe struct {
		at   float64
		node int
		down bool
	}
	probes := []probe{
		{9, 0, false}, {11, 0, true}, {13, 2, true}, {16, 0, false},
		{16, 2, false}, {31, 0, true}, {33, 0, false},
	}
	for _, p := range probes {
		p := p
		r.sim.At(simtime.Time(p.at), func() {
			if got := r.clu.NodeDown(p.node); got != p.down {
				t.Errorf("t=%g node %d down=%v, want %v", p.at, p.node, got, p.down)
			}
		})
	}
	r.sim.Run()
	if inj.NodeFailures() != 3 || inj.NodeRepairs() != 3 {
		t.Fatalf("failures/repairs = %d/%d, want 3/3", inj.NodeFailures(), inj.NodeRepairs())
	}
	if got := inj.DownSeconds(); got != 10 {
		t.Fatalf("DownSeconds = %g, want 10", got)
	}
}

// TestConservationUnderChurnAndTaskFaults is the acceptance property:
// under combined node churn, injected task failures and stragglers, every
// submitted job either completes or is reported failed with retries
// exhausted — none lost, none duplicated — and the cluster leaks no slots.
func TestConservationUnderChurnAndTaskFaults(t *testing.T) {
	const jobs = 40
	r := newRig(t, 4, 2, 5)
	cfg := Config{
		Churn: &ChurnConfig{MTTFSec: 300, MTTRSec: 40, HorizonSec: 4000},
		Tasks: &TaskFaultConfig{
			FailProb:        0.25,
			MaxAttempts:     2,
			StragglerProb:   0.05,
			StragglerFactor: 4,
		},
		Seed: 7,
	}
	inj, err := Attach(r.sim, r.eng, cfg)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	completed := map[string]int{}
	failed := map[string]int{}
	sch, err := core.New(r.sim, r.clu, r.eng, core.Config{
		Classes: 1,
		OnRecord: func(rec core.JobRecord) {
			if rec.Failed {
				failed[rec.Name]++
			} else {
				completed[rec.Name]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job-%02d", i)
		j := job(name, 6)
		at := simtime.Time(float64(i) * 60)
		r.sim.At(at, func() {
			if err := sch.Arrive(0, j); err != nil {
				t.Errorf("Arrive %s: %v", name, err)
			}
		})
	}
	r.sim.Run()
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job-%02d", i)
		c, f := completed[name], failed[name]
		if c+f != 1 {
			t.Errorf("%s: completed %d + failed %d, want exactly 1 outcome", name, c, f)
		}
	}
	if len(completed)+len(failed) != jobs {
		t.Fatalf("outcomes for %d jobs, want %d", len(completed)+len(failed), jobs)
	}
	// The run must actually have exercised the machinery.
	if inj.TaskFailuresInjected() == 0 {
		t.Fatal("no task failures injected; test is vacuous")
	}
	if inj.StragglersInjected() == 0 {
		t.Fatal("no stragglers injected; test is vacuous")
	}
	if inj.NodeFailures() == 0 {
		t.Fatal("no node churn injected; test is vacuous")
	}
	if len(failed) == 0 {
		t.Fatal("no job exhausted retries; tighten FailProb to cover the failure path")
	}
	if r.eng.FailedJobs() != len(failed) {
		t.Fatalf("engine FailedJobs = %d, records say %d", r.eng.FailedJobs(), len(failed))
	}
	if r.eng.FailureLostSlotSeconds() <= 0 {
		t.Fatal("failures destroyed no machine time?")
	}
	// All slots come home once churn and drain are over.
	if free, total := r.clu.FreeSlots(), r.clu.Slots(); free != total-r.clu.DownNodes()*2 {
		t.Fatalf("slot leak: free %d of %d (down nodes: %d)", free, total, r.clu.DownNodes())
	}
}

// TestDeterminismPerSeed re-runs an identical faulty workload and expects
// bit-identical outcomes and injection counts.
func TestDeterminismPerSeed(t *testing.T) {
	run := func() (string, int, int) {
		r := newRig(t, 3, 2, 4)
		inj, err := Attach(r.sim, r.eng, Config{
			Churn: &ChurnConfig{MTTFSec: 200, MTTRSec: 30, HorizonSec: 2000},
			Tasks: &TaskFaultConfig{FailProb: 0.1, MaxAttempts: 4, StragglerProb: 0.1, StragglerFactor: 3},
			Seed:  42,
		})
		if err != nil {
			t.Fatal(err)
		}
		var log string
		sch, err := core.New(r.sim, r.clu, r.eng, core.Config{
			Classes: 1,
			OnRecord: func(rec core.JobRecord) {
				log += fmt.Sprintf("%s %.9f %v %d\n", rec.Name, rec.ResponseSec, rec.Failed, rec.Retries)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			j := job(fmt.Sprintf("j%d", i), 5)
			r.sim.At(simtime.Time(float64(i)*50), func() {
				if err := sch.Arrive(0, j); err != nil {
					t.Errorf("Arrive: %v", err)
				}
			})
		}
		r.sim.Run()
		return log, inj.TaskFailuresInjected(), inj.NodeFailures()
	}
	log1, tf1, nf1 := run()
	log2, tf2, nf2 := run()
	if log1 != log2 {
		t.Fatal("per-seed run logs differ")
	}
	if tf1 != tf2 || nf1 != nf2 {
		t.Fatalf("injection counts differ: %d/%d vs %d/%d", tf1, nf1, tf2, nf2)
	}
}
