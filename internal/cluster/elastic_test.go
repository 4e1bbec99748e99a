package cluster

import (
	"testing"

	"dias/internal/simtime"
)

// elasticCluster builds a small cluster for decommission tests.
func elasticCluster(t *testing.T, nodes, cores int) (*simtime.Simulation, *Cluster) {
	t.Helper()
	sim := simtime.New()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	c, err := New(sim, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sim, c
}

func TestDecommissionIdleNode(t *testing.T) {
	_, c := elasticCluster(t, 3, 2)
	if err := c.Decommission(2); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	if got := len(c.free); got != 4 {
		t.Fatalf("free slots after decommission = %d, want 4", got)
	}
	if got := c.CommissionedNodes(); got != 2 {
		t.Fatalf("commissioned nodes = %d, want 2", got)
	}
	if got := c.PoweredNodes(); got != 2 {
		t.Fatalf("powered nodes = %d, want 2 (idle node powers off immediately)", got)
	}
	if !c.NodeOffline(2) || c.NodeOffline(0) {
		t.Fatalf("NodeOffline flags wrong: node2=%v node0=%v", c.NodeOffline(2), c.NodeOffline(0))
	}
	if err := c.Decommission(2); err == nil {
		t.Fatal("double decommission should fail")
	}
	if err := c.Commission(2); err != nil {
		t.Fatalf("Commission: %v", err)
	}
	if got := len(c.free); got != 6 {
		t.Fatalf("free slots after commission = %d, want 6", got)
	}
	if got := c.PoweredNodes(); got != 3 {
		t.Fatalf("powered nodes after commission = %d, want 3", got)
	}
	if err := c.Commission(2); err == nil {
		t.Fatal("commissioning an online node should fail")
	}
}

func TestDecommissionDrainsGracefully(t *testing.T) {
	_, c := elasticCluster(t, 2, 2)
	// Occupy every slot, then decommission node 1: its two busy slots keep
	// running and the node stays powered until both release.
	var held []*Slot
	for {
		s, ok := c.Acquire()
		if !ok {
			break
		}
		held = append(held, s)
	}
	if len(held) != 4 {
		t.Fatalf("acquired %d slots, want 4", len(held))
	}
	if err := c.Decommission(1); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	if got := c.PoweredNodes(); got != 2 {
		t.Fatalf("powered nodes while draining = %d, want 2", got)
	}
	released := 0
	for _, s := range held {
		if s.Node == 1 {
			c.Release(s)
			released++
			want := 2
			if released == 2 {
				want = 1
			}
			if got := c.PoweredNodes(); got != want {
				t.Fatalf("powered nodes after %d drain releases = %d, want %d", released, got, want)
			}
		}
	}
	if got := len(c.free); got != 0 {
		t.Fatalf("drained slots rejoined the pool: free=%d", got)
	}
	// Node 0's slots still cycle normally.
	for _, s := range held {
		if s.Node == 0 {
			c.Release(s)
		}
	}
	if got := len(c.free); got != 2 {
		t.Fatalf("free slots = %d, want 2", got)
	}
}

func TestDecommissionFailedNodeInterplay(t *testing.T) {
	_, c := elasticCluster(t, 2, 1)
	if err := c.FailNode(1); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if got := c.PoweredNodes(); got != 1 {
		t.Fatalf("powered after failure = %d, want 1", got)
	}
	// Decommission while down: repair must not bring it back into service.
	if err := c.Decommission(1); err != nil {
		t.Fatalf("Decommission(down): %v", err)
	}
	if err := c.RepairNode(1); err != nil {
		t.Fatalf("RepairNode: %v", err)
	}
	if got, want := len(c.free), 1; got != want {
		t.Fatalf("free slots after repair of offline node = %d, want %d", got, want)
	}
	if got := c.PoweredNodes(); got != 1 {
		t.Fatalf("repaired offline node should stay unpowered: powered=%d", got)
	}
	if err := c.Commission(1); err != nil {
		t.Fatalf("Commission: %v", err)
	}
	if got, want := len(c.free), 2; got != want {
		t.Fatalf("free slots after commission = %d, want %d", got, want)
	}
	if got := c.PoweredNodes(); got != 2 {
		t.Fatalf("powered after commission = %d, want 2", got)
	}
}

func TestPoweredNodeSecondsAndEnergy(t *testing.T) {
	sim, c := elasticCluster(t, 2, 1)
	cfg := c.Config()
	// 100 s with both nodes idle, then decommission node 1 and run 100 s
	// with only node 0 powered.
	sim.After(100, func() {
		if err := c.Decommission(1); err != nil {
			t.Errorf("Decommission: %v", err)
		}
	})
	sim.After(200, func() {})
	sim.Run()
	wantNodeSec := 2*100.0 + 1*100.0
	if got := c.PoweredNodeSeconds(); got != wantNodeSec {
		t.Fatalf("PoweredNodeSeconds = %g, want %g", got, wantNodeSec)
	}
	wantJoules := wantNodeSec * cfg.IdleWatts
	if got := c.EnergyJoules(); got != wantJoules {
		t.Fatalf("EnergyJoules = %g, want %g", got, wantJoules)
	}
}
