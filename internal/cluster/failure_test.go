package cluster

import (
	"testing"

	"dias/internal/simtime"
)

func newFailTestCluster(t *testing.T, nodes, cores int) (*simtime.Simulation, *Cluster) {
	t.Helper()
	sim := simtime.New()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	c, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, c
}

func TestFailNodeRemovesIdleSlots(t *testing.T) {
	_, c := newFailTestCluster(t, 3, 2)
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if got := len(c.free); got != 4 {
		t.Fatalf("free %d after failing 1 of 3 nodes, want 4", got)
	}
	for i := 0; i < 4; i++ {
		s, ok := c.Acquire()
		if !ok {
			t.Fatalf("acquire %d failed", i)
		}
		if s.Node == 1 {
			t.Fatal("acquired a slot on the failed node")
		}
	}
	if _, ok := c.Acquire(); ok {
		t.Fatal("acquired a fifth slot with node 1 down")
	}
}

func TestReleaseOnDownNodeStaysOut(t *testing.T) {
	_, c := newFailTestCluster(t, 2, 1)
	s0, _ := c.Acquire()
	s1, _ := c.Acquire()
	target := s0
	if s1.Node == 0 {
		target = s1
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	// Release the task that was running on the failed node (engine does
	// this when aborting).
	if target.Node != 0 {
		target = s1
	}
	c.Release(target)
	if len(c.free) != 0 {
		t.Fatalf("free %d, want 0: released slot belongs to a down node", len(c.free))
	}
	if err := c.RepairNode(0); err != nil {
		t.Fatal(err)
	}
	if len(c.free) != 1 {
		t.Fatalf("free %d after repair, want 1", len(c.free))
	}
}

func TestRepairRestoresOnlyIdleSlots(t *testing.T) {
	_, c := newFailTestCluster(t, 2, 2)
	// Occupy one slot on node 0, then fail and repair node 0 while the
	// task keeps (hypothetically) running.
	var onNode0 *Slot
	for {
		s, ok := c.Acquire()
		if !ok {
			t.Fatal("no slot on node 0")
		}
		if s.Node == 0 {
			onNode0 = s
			break
		}
		defer c.Release(s)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RepairNode(0); err != nil {
		t.Fatal(err)
	}
	// The busy slot must not be duplicated into the free list.
	total := len(c.free) + c.BusySlots()
	if total != c.Slots() {
		t.Fatalf("free+busy = %d, want %d", total, c.Slots())
	}
	c.Release(onNode0)
	if len(c.free)+c.BusySlots() != c.Slots() {
		t.Fatal("accounting broken after release")
	}
}

func TestDownNodeDrawsNoPower(t *testing.T) {
	sim, c := newFailTestCluster(t, 2, 1)
	sim.After(simtime.Duration(100), func() {})
	sim.Run()
	idleBoth := c.EnergyJoules() // 2 nodes idle for 100s

	sim2 := simtime.New()
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.CoresPerNode = 1
	c2, err := New(sim2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.FailNode(1); err != nil {
		t.Fatal(err)
	}
	sim2.After(simtime.Duration(100), func() {})
	sim2.Run()
	idleOne := c2.EnergyJoules()

	if idleOne >= idleBoth {
		t.Fatalf("energy with a down node %g >= %g with both up", idleOne, idleBoth)
	}
	want := idleBoth / 2
	if diff := idleOne - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("down-node energy %g, want half of %g", idleOne, idleBoth)
	}
}

func TestNodeDownReporting(t *testing.T) {
	_, c := newFailTestCluster(t, 2, 1)
	if c.NodeDown(0) || c.NodeDown(1) {
		t.Fatal("fresh cluster reports down nodes")
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if !c.NodeDown(0) || c.NodeDown(1) {
		t.Fatal("failure not reported")
	}
	if c.NodeDown(-1) || c.NodeDown(99) {
		t.Fatal("out-of-range nodes report down")
	}
}
