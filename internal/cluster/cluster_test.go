package cluster

import (
	"math"
	"testing"

	"dias/internal/simtime"
)

func newTestCluster(t *testing.T, sim *simtime.Simulation) *Cluster {
	t.Helper()
	c, err := New(sim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 10 || cfg.CoresPerNode != 2 {
		t.Fatalf("default cluster %d nodes x %d cores, want 10x2", cfg.Nodes, cfg.CoresPerNode)
	}
	if cfg.BaseFreqMHz != 800 || cfg.SprintFreqMHz != 2400 {
		t.Fatalf("default DVFS %g->%g, want 800->2400", cfg.BaseFreqMHz, cfg.SprintFreqMHz)
	}
	if cfg.BusyWatts != 180 || cfg.SprintWatts != 270 {
		t.Fatalf("default power %g->%g, want 180->270", cfg.BusyWatts, cfg.SprintWatts)
	}
}

func TestConfigValidation(t *testing.T) {
	sim := simtime.New()
	nan, inf := math.NaN(), math.Inf(1)
	type mutation struct {
		name   string
		mutate func(*Config)
	}
	rejected := []mutation{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"speedup below 1", func(c *Config) { c.SprintSpeedup = 0.5 }},
		{"sprint watts below busy", func(c *Config) { c.SprintWatts = 10 }},
		{"sprint freq below base", func(c *Config) { c.SprintFreqMHz = 100 }},
		// Non-finite values the comparison checks once let through.
		{"NaN speedup", func(c *Config) { c.SprintSpeedup = nan }},
		{"+Inf speedup", func(c *Config) { c.SprintSpeedup = inf }},
		{"NaN idle watts", func(c *Config) { c.IdleWatts = nan }},
		{"NaN busy watts", func(c *Config) { c.BusyWatts = nan }},
		{"NaN sprint watts", func(c *Config) { c.SprintWatts = nan }},
		{"+Inf sprint watts", func(c *Config) { c.SprintWatts = inf }},
		{"+Inf every wattage", func(c *Config) { c.IdleWatts, c.BusyWatts, c.SprintWatts = inf, inf, inf }},
		{"NaN base freq", func(c *Config) { c.BaseFreqMHz = nan }},
		{"-Inf base freq", func(c *Config) { c.BaseFreqMHz = -inf }},
		{"NaN sprint freq", func(c *Config) { c.SprintFreqMHz = nan }},
		{"+Inf sprint freq", func(c *Config) { c.SprintFreqMHz = inf }},
		{"+Inf both freqs", func(c *Config) { c.BaseFreqMHz, c.SprintFreqMHz = inf, inf }},
	}
	for _, c := range rejected {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if _, err := New(sim, cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	// Finite edge values keep the verdicts the comparison checks gave them.
	accepted := []mutation{
		{"speedup exactly 1", func(c *Config) { c.SprintSpeedup = 1 }},
		{"zero idle watts", func(c *Config) { c.IdleWatts = 0 }},
		{"largest finite sprint watts", func(c *Config) { c.SprintWatts = math.MaxFloat64 }},
		{"negative base freq", func(c *Config) { c.BaseFreqMHz = -1 }},
		{"equal freqs", func(c *Config) { c.SprintFreqMHz = c.BaseFreqMHz }},
	}
	for _, c := range accepted {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if _, err := New(sim, cfg); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil simulation: no error")
	}
}

func TestAcquireRelease(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	if c.Slots() != 20 || c.FreeSlots() != 20 {
		t.Fatalf("slots = %d free = %d", c.Slots(), c.FreeSlots())
	}
	var held []*Slot
	for i := 0; i < 20; i++ {
		s, ok := c.Acquire()
		if !ok {
			t.Fatalf("Acquire %d failed", i)
		}
		held = append(held, s)
	}
	if _, ok := c.Acquire(); ok {
		t.Fatal("Acquire succeeded with no free slots")
	}
	if c.BusySlots() != 20 || c.Utilization() != 1 {
		t.Fatalf("busy = %d util = %g", c.BusySlots(), c.Utilization())
	}
	for _, s := range held {
		c.Release(s)
	}
	if c.FreeSlots() != 20 {
		t.Fatalf("free = %d after releasing all", c.FreeSlots())
	}
}

func TestAcquireSpreadsAcrossNodes(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	s0, _ := c.Acquire()
	s1, _ := c.Acquire()
	s2, _ := c.Acquire()
	// With 2 cores per node, the first three acquisitions must touch at
	// least two distinct nodes.
	nodes := map[int]bool{s0.Node: true, s1.Node: true, s2.Node: true}
	if len(nodes) < 2 {
		t.Fatalf("first three slots all on node set %v", nodes)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	s, _ := c.Acquire()
	c.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	c.Release(s)
}

func TestSpeedAndFrequency(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	if c.Speed() != 1 || c.FrequencyMHz() != 800 || c.Sprinting() {
		t.Fatal("unexpected initial DVFS state")
	}
	c.SetSprinting(true)
	if c.Speed() != 2.5 || c.FrequencyMHz() != 2400 || !c.Sprinting() {
		t.Fatal("unexpected sprinting state")
	}
	c.SetSprinting(false)
	if c.Speed() != 1 {
		t.Fatal("speed did not return to base")
	}
}

func TestSpeedWatcher(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	var events [][2]float64
	c.OnSpeedChange(func(old, new float64) { events = append(events, [2]float64{old, new}) })
	c.SetSprinting(true)
	c.SetSprinting(true) // no-op, must not fire
	c.SetSprinting(false)
	if len(events) != 2 {
		t.Fatalf("watcher fired %d times, want 2", len(events))
	}
	if events[0] != [2]float64{1, 2.5} || events[1] != [2]float64{2.5, 1} {
		t.Fatalf("events = %v", events)
	}
}

func TestEnergyIdle(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	sim.RunUntil(100)
	// 10 nodes idle at 60 W for 100 s = 60 kJ.
	want := 10.0 * 60 * 100
	if got := c.EnergyJoules(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("idle energy = %g, want %g", got, want)
	}
}

func TestEnergyBusyAndSprint(t *testing.T) {
	sim := simtime.New()
	cfg := DefaultConfig()
	c, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy both cores of one node for 10 s at base frequency.
	s0, _ := c.Acquire()
	s1, _ := c.Acquire()
	sim.RunUntil(10)
	c.SetSprinting(true)
	sim.RunUntil(20)
	c.SetSprinting(false)
	c.Release(s0)
	c.Release(s1)
	got := c.EnergyJoules()
	idle := 10.0 * 60 * 20 // all nodes idle component for 20 s
	base := (180.0 - 60) * 10
	sprint := (270.0 - 60) * 10
	want := idle + base + sprint
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy = %g, want %g", got, want)
	}
}

func TestBusySlotSeconds(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	s, _ := c.Acquire()
	sim.RunUntil(5)
	c.Release(s)
	sim.RunUntil(10)
	if got := c.BusySlotSeconds(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("busy slot-seconds = %g, want 5", got)
	}
}

func TestEnergyAccrualIdempotent(t *testing.T) {
	sim := simtime.New()
	c := newTestCluster(t, sim)
	sim.RunUntil(50)
	e1 := c.EnergyJoules()
	e2 := c.EnergyJoules() // same instant: no extra accrual
	if e1 != e2 {
		t.Fatalf("repeated reads at same instant differ: %g vs %g", e1, e2)
	}
}
