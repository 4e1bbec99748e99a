package core

import (
	"testing"

	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/simtime"
)

// scaleStack builds a stack on a provisioned-but-elastic cluster.
func scaleStack(t *testing.T, nodes int, taskSec float64) (*simtime.Simulation, *cluster.Cluster, *engine.Engine, *Scheduler) {
	t.Helper()
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = 1
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.CostModel{TaskOverheadSec: taskSec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := New(sim, clu, eng, Config{Classes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sim, clu, eng, sch
}

// oneTaskJob builds a single-partition, single-stage job.
func oneTaskJob(name string) *engine.Job {
	return &engine.Job{
		Name:   name,
		Input:  engine.Dataset{engine.Partition{}},
		Stages: []engine.Stage{{Kind: engine.Result}},
	}
}

func TestAutoscalerBacklogScalesOutAndIn(t *testing.T) {
	sim, clu, eng, sch := scaleStack(t, 8, 30)
	as, err := NewAutoscaler(sim, clu, eng, sch, AutoscalerConfig{
		Policy:       BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 2},
		MinNodes:     2,
		MaxNodes:     8,
		InitialNodes: 2,
		IntervalSec:  10,
		HorizonSec:   2000,
	})
	if err != nil {
		t.Fatalf("NewAutoscaler: %v", err)
	}
	if got := clu.CommissionedNodes(); got != 2 {
		t.Fatalf("initial commissioned = %d, want 2", got)
	}
	// Burst of arrivals at t=1 builds a backlog (the scheduler runs one
	// job at a time, so queued jobs pile up regardless of slots).
	for i := 0; i < 8; i++ {
		job := oneTaskJob("burst")
		sim.At(1, func() {
			if err := sch.Arrive(0, job); err != nil {
				t.Errorf("Arrive: %v", err)
			}
		})
	}
	// Every scaling action stays inside [MinNodes, MaxNodes]: probe the
	// commissioned count every 5 s up to the horizon.
	var probe func()
	probe = func() {
		if got := clu.CommissionedNodes(); got < 2 || got > 8 {
			t.Errorf("t=%g: %d nodes commissioned, outside [2, 8]", sim.Now().Seconds(), got)
		}
		if sim.Now() < 2000 {
			sim.After(5, probe)
		}
	}
	sim.At(0, probe)
	sim.Run()
	if as.ScaleOuts() == 0 {
		t.Fatal("backlog burst should have triggered scale-out")
	}
	if as.ScaleIns() == 0 {
		t.Fatal("drained queue should have triggered scale-in")
	}
	// After drain the commissioned count is back at the floor.
	if got := clu.CommissionedNodes(); got != 2 {
		t.Fatalf("commissioned after drain = %d, want 2", got)
	}
	// Elastic energy accounting: powered-node-seconds must be strictly
	// below the always-on equivalent.
	makespan := sim.Now().Seconds()
	if got, max := clu.PoweredNodeSeconds(), 8*makespan; got >= max {
		t.Fatalf("PoweredNodeSeconds = %g, want < %g (always-on)", got, max)
	}
}

func TestAutoscalerLatencyPolicy(t *testing.T) {
	sig := ScaleSignals{CommissionedNodes: 4, Completions: 5, EWMAResponseSec: 100}
	p := LatencyScalePolicy{TargetSec: 50, Headroom: 0.25, Step: 1}
	if got := p.TargetNodes(sig); got != 5 {
		t.Fatalf("over-target latency: target = %d, want 5", got)
	}
	sig.EWMAResponseSec = 20
	if got := p.TargetNodes(sig); got != 3 {
		t.Fatalf("under-target latency: target = %d, want 3", got)
	}
	sig.Sprinting = true
	if got := p.TargetNodes(sig); got != 4 {
		t.Fatalf("scale-in while sprinting must be refused: target = %d, want 4", got)
	}
	sig.Sprinting = false
	sig.Completions = 0
	if got := p.TargetNodes(sig); got != 4 {
		t.Fatalf("no completions yet: target = %d, want 4", got)
	}
}

func TestAutoscalerObserveEWMA(t *testing.T) {
	sim, clu, eng, sch := scaleStack(t, 2, 1)
	as, err := NewAutoscaler(sim, clu, eng, sch, AutoscalerConfig{
		Policy:      LatencyScalePolicy{TargetSec: 10, Headroom: 0.5, Step: 1},
		MinNodes:    1,
		MaxNodes:    2,
		IntervalSec: 5,
		HorizonSec:  10,
		EWMAAlpha:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	as.Observe(JobRecord{ResponseSec: 10})
	as.Observe(JobRecord{ResponseSec: 20})
	if got := as.EWMAResponseSec(); got != 15 {
		t.Fatalf("EWMA = %g, want 15", got)
	}
	// Failed jobs must not poison the latency signal.
	as.Observe(JobRecord{ResponseSec: 1e6, Failed: true})
	if got := as.EWMAResponseSec(); got != 15 {
		t.Fatalf("EWMA after failed record = %g, want 15", got)
	}
}

func TestAutoscalerConfigValidation(t *testing.T) {
	sim, clu, eng, sch := scaleStack(t, 4, 1)
	bad := []AutoscalerConfig{
		{},                             // no policy
		{Policy: BacklogScalePolicy{}}, // bad policy params
		{Policy: BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 1},
			MinNodes: 1, MaxNodes: 9, IntervalSec: 1, HorizonSec: 1}, // max > provisioned
		{Policy: BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 1},
			MinNodes: 0, MaxNodes: 4, IntervalSec: 1, HorizonSec: 1}, // min < 1
		{Policy: BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 1},
			MinNodes: 1, MaxNodes: 4, IntervalSec: 0, HorizonSec: 1}, // no interval
		{Policy: BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 1},
			MinNodes: 1, MaxNodes: 4, IntervalSec: 1}, // no horizon
	}
	for i, cfg := range bad {
		if _, err := NewAutoscaler(sim, clu, eng, sch, cfg); err == nil {
			t.Fatalf("config %d should have been rejected", i)
		}
	}
}
