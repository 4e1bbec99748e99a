// Package cluster simulates the compute substrate the paper's testbed
// provides: a set of worker nodes exposing computing slots, a DVFS-style
// frequency governor used for computational sprinting (§2.3, §3.3), and a
// power model that integrates energy over virtual time.
//
// The paper's machines sprint from 800 MHz to 2.4 GHz, cutting execution
// times of sprinted jobs by up to 60% while raising server power from
// 180 W to 270 W. Those are the defaults here.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"dias/internal/simtime"
)

// Config describes a homogeneous cluster.
type Config struct {
	// Nodes is the number of worker machines.
	Nodes int
	// CoresPerNode is the number of computing slots each worker exposes.
	CoresPerNode int
	// BaseFreqMHz and SprintFreqMHz are the DVFS endpoints (paper: 800 and
	// 2400). They are reported in metrics; latency effects flow through
	// SprintSpeedup.
	BaseFreqMHz   float64
	SprintFreqMHz float64
	// SprintSpeedup is the task speed multiplier while sprinting. The paper
	// observes up to 60% execution-time reduction, i.e. a 2.5x speedup.
	SprintSpeedup float64
	// IdleWatts, BusyWatts and SprintWatts set the per-node power model:
	// power = idle + (active-idle) * utilization, with active = BusyWatts at
	// base frequency and SprintWatts while sprinting (paper: 180 W -> 270 W).
	IdleWatts   float64
	BusyWatts   float64
	SprintWatts float64
}

// DefaultConfig mirrors the paper's testbed: 10 workers with 2 slots each
// (20 computing slots), 800 MHz base, 2.4 GHz sprint, 2.5x sprint speedup,
// 180 W busy and 270 W sprinting per node.
func DefaultConfig() Config {
	return Config{
		Nodes:         10,
		CoresPerNode:  2,
		BaseFreqMHz:   800,
		SprintFreqMHz: 2400,
		SprintSpeedup: 2.5,
		IdleWatts:     60,
		BusyWatts:     180,
		SprintWatts:   270,
	}
}

func (c Config) validate() error {
	// Every float bound is written so that NaN fails it: a NaN speedup
	// would turn sprinted task durations into NaN mid-run, and a NaN or
	// infinite wattage would make the energy total meaningless.
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: %d nodes", c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("cluster: %d cores per node", c.CoresPerNode)
	case !(c.SprintSpeedup >= 1 && c.SprintSpeedup <= math.MaxFloat64):
		return fmt.Errorf("cluster: sprint speedup %g must be finite and >= 1", c.SprintSpeedup)
	case !(c.IdleWatts >= 0 && c.BusyWatts >= c.IdleWatts && c.SprintWatts >= c.BusyWatts && c.SprintWatts <= math.MaxFloat64):
		return fmt.Errorf("cluster: power model idle=%g busy=%g sprint=%g must be finite, nonnegative and nondecreasing",
			c.IdleWatts, c.BusyWatts, c.SprintWatts)
	case !(c.BaseFreqMHz >= -math.MaxFloat64 && c.SprintFreqMHz >= c.BaseFreqMHz && c.SprintFreqMHz <= math.MaxFloat64):
		return fmt.Errorf("cluster: sprint frequency %g must be finite and at least base %g", c.SprintFreqMHz, c.BaseFreqMHz)
	}
	return nil
}

// Slot is a computing slot on a specific node, held by one task at a time.
type Slot struct {
	Node int // node index in [0, Nodes)
	Core int // core index within the node
	busy bool
}

// Cluster is the simulated compute substrate. It is single-threaded like
// the simulation that drives it.
type Cluster struct {
	cfg Config
	sim *simtime.Simulation

	slots []*Slot
	free  []*Slot // LIFO of idle slots

	sprinting bool
	busyCores int
	// down[n] marks node n as failed; its slots are unusable and it draws
	// no power.
	down []bool
	// offline[n] marks node n as decommissioned by an elastic-capacity
	// controller. Unlike a failure, decommissioning drains gracefully: busy
	// slots keep running (and drawing power) but never rejoin the idle
	// pool, and the node powers off once its last task releases.
	offline      []bool
	offlineNodes int
	// nodeBusy[n] counts busy slots per node, so drain completion and the
	// powered-node set are known without scanning slots.
	nodeBusy []int
	// poweredNodes counts nodes drawing power: up and either commissioned
	// or still draining tasks.
	poweredNodes int

	// Energy integration state.
	lastAccrual  simtime.Time
	energyJoules float64
	// Machine-time accounting (slot-seconds) for the resource-waste metric.
	busySlotSeconds float64
	// poweredNodeSeconds integrates the powered-node count over virtual
	// time: the capacity actually paid for, the denominator elastic
	// experiments compare against a fixed-size cluster.
	poweredNodeSeconds float64

	speedWatchers []func(old, new float64)
}

// New builds a cluster bound to a simulation clock.
func New(sim *simtime.Simulation, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sim == nil {
		return nil, errors.New("cluster: nil simulation")
	}
	c := &Cluster{
		cfg: cfg, sim: sim, lastAccrual: sim.Now(),
		down:         make([]bool, cfg.Nodes),
		offline:      make([]bool, cfg.Nodes),
		nodeBusy:     make([]int, cfg.Nodes),
		poweredNodes: cfg.Nodes,
	}
	for n := 0; n < cfg.Nodes; n++ {
		for k := 0; k < cfg.CoresPerNode; k++ {
			s := &Slot{Node: n, Core: k}
			c.slots = append(c.slots, s)
		}
	}
	// Free list seeded in reverse so Acquire hands out node 0 first,
	// spreading across nodes round-robin-ish as load grows.
	for i := len(c.slots) - 1; i >= 0; i-- {
		c.free = append(c.free, c.slots[i])
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Slots returns the total number of computing slots (paper: C).
func (c *Cluster) Slots() int { return len(c.slots) }

// Acquire reserves an idle slot. It returns false when all are busy.
func (c *Cluster) Acquire() (*Slot, bool) {
	if len(c.free) == 0 {
		return nil, false
	}
	c.accrue()
	s := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	s.busy = true
	c.busyCores++
	c.nodeBusy[s.Node]++
	return s, true
}

// AcquireMatching reserves an idle slot on a node accepted by pred,
// scanning most-recently-freed first. It returns false when no idle slot
// matches; callers typically fall back to Acquire for a remote slot.
func (c *Cluster) AcquireMatching(pred func(node int) bool) (*Slot, bool) {
	for i := len(c.free) - 1; i >= 0; i-- {
		s := c.free[i]
		if !pred(s.Node) {
			continue
		}
		c.accrue()
		c.free = append(c.free[:i], c.free[i+1:]...)
		s.busy = true
		c.busyCores++
		c.nodeBusy[s.Node]++
		return s, true
	}
	return nil, false
}

// Release returns a slot to the idle pool. Releasing an idle slot panics:
// it indicates a double release in the scheduler. A slot on a failed or
// decommissioned node leaves the busy set but stays out of the idle pool
// until the node is repaired or re-commissioned; a decommissioned node
// powers off the moment its last busy slot releases.
func (c *Cluster) Release(s *Slot) {
	if !s.busy {
		panic(fmt.Sprintf("cluster: double release of slot %d/%d", s.Node, s.Core))
	}
	c.accrue()
	s.busy = false
	c.busyCores--
	c.nodeBusy[s.Node]--
	n := s.Node
	switch {
	case c.down[n]:
		// Failed nodes draw no power and hold no idle slots.
	case c.offline[n]:
		if c.nodeBusy[n] == 0 {
			c.poweredNodes-- // drain complete: the node powers off
		}
	default:
		c.free = append(c.free, s)
	}
}

// FailNode takes a node offline: its idle slots leave the pool immediately
// and it stops drawing power. Tasks still occupying its slots must be
// aborted by the engine (see engine.Engine.FailNode), whose Release calls
// will then skip the idle pool. Failing a failed node is an error.
func (c *Cluster) FailNode(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: fail node %d of %d", node, c.cfg.Nodes)
	}
	if c.down[node] {
		return fmt.Errorf("cluster: node %d already down", node)
	}
	c.accrue()
	if !c.offline[node] || c.nodeBusy[node] > 0 {
		c.poweredNodes-- // was powered (commissioned, or still draining)
	}
	c.down[node] = true
	kept := c.free[:0]
	for _, s := range c.free {
		if s.Node != node {
			kept = append(kept, s)
		}
	}
	c.free = kept
	return nil
}

// RepairNode brings a failed node back: its slots rejoin the idle pool and
// it draws power again. Repairing an up node is an error. A node that was
// decommissioned while down stays offline and unpowered: the repair only
// clears the failure.
func (c *Cluster) RepairNode(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: repair node %d of %d", node, c.cfg.Nodes)
	}
	if !c.down[node] {
		return fmt.Errorf("cluster: node %d is not down", node)
	}
	c.accrue()
	c.down[node] = false
	if c.offline[node] {
		return nil
	}
	c.poweredNodes++
	for _, s := range c.slots {
		if s.Node == node && !s.busy {
			c.free = append(c.free, s)
		}
	}
	return nil
}

// Decommission removes a node from service for elastic scale-in. Its idle
// slots leave the pool immediately; running tasks drain gracefully (they
// keep their slots and the node keeps drawing power until the last one
// releases). Decommissioning a node twice is an error; decommissioning a
// failed node is allowed and simply keeps it out of service after repair.
func (c *Cluster) Decommission(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: decommission node %d of %d", node, c.cfg.Nodes)
	}
	if c.offline[node] {
		return fmt.Errorf("cluster: node %d already offline", node)
	}
	c.accrue()
	c.offline[node] = true
	c.offlineNodes++
	if !c.down[node] && c.nodeBusy[node] == 0 {
		c.poweredNodes-- // nothing to drain: powers off now
	}
	kept := c.free[:0]
	for _, s := range c.free {
		if s.Node != node {
			kept = append(kept, s)
		}
	}
	c.free = kept
	return nil
}

// Commission returns a decommissioned node to service: it powers back on
// and its idle slots rejoin the pool (unless the node is currently
// failed, in which case only the offline mark clears and RepairNode
// completes the comeback). Commissioning an online node is an error.
func (c *Cluster) Commission(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: commission node %d of %d", node, c.cfg.Nodes)
	}
	if !c.offline[node] {
		return fmt.Errorf("cluster: node %d is not offline", node)
	}
	c.accrue()
	c.offline[node] = false
	c.offlineNodes--
	if c.down[node] {
		return nil
	}
	if c.nodeBusy[node] == 0 {
		c.poweredNodes++ // a still-draining node never powered off
	}
	for _, s := range c.slots {
		if s.Node == node && !s.busy {
			c.free = append(c.free, s)
		}
	}
	return nil
}

// NodeOffline reports whether a node is currently decommissioned.
func (c *Cluster) NodeOffline(node int) bool {
	return node >= 0 && node < c.cfg.Nodes && c.offline[node]
}

// CommissionedNodes returns the number of nodes in service (not
// decommissioned), regardless of failure state — the capacity an elastic
// controller currently intends to run.
func (c *Cluster) CommissionedNodes() int { return c.cfg.Nodes - c.offlineNodes }

// PoweredNodes returns the number of nodes currently drawing power: up
// and either commissioned or still draining tasks.
func (c *Cluster) PoweredNodes() int { return c.poweredNodes }

// PoweredNodeSeconds returns the time integral of the powered-node count,
// the capacity actually paid for over the run.
func (c *Cluster) PoweredNodeSeconds() float64 {
	c.accrue()
	return c.poweredNodeSeconds
}

// NodeDown reports whether a node is currently failed.
func (c *Cluster) NodeDown(node int) bool {
	return node >= 0 && node < c.cfg.Nodes && c.down[node]
}

// Speed returns the current task speed multiplier (1 at base frequency,
// Config.SprintSpeedup while sprinting).
func (c *Cluster) Speed() float64 {
	if c.sprinting {
		return c.cfg.SprintSpeedup
	}
	return 1
}

// Sprinting reports whether the cluster is currently sprinting.
func (c *Cluster) Sprinting() bool { return c.sprinting }

// SetSprinting switches DVFS state for all nodes at the current virtual
// time. The paper's sprinter raises all cores together (§4, "our current
// approach sprints all available cores at the same time"). Speed watchers
// (the engine) are notified so in-flight task completions can be rescaled.
func (c *Cluster) SetSprinting(on bool) {
	if on == c.sprinting {
		return
	}
	old := c.Speed()
	c.accrue()
	c.sprinting = on
	for _, w := range c.speedWatchers {
		w(old, c.Speed())
	}
}

// OnSpeedChange registers a callback invoked whenever the cluster speed
// changes (sprint on/off), with the old and new speed multipliers.
func (c *Cluster) OnSpeedChange(fn func(old, new float64)) {
	c.speedWatchers = append(c.speedWatchers, fn)
}

// accrue integrates power and busy slot-seconds up to the current instant.
func (c *Cluster) accrue() {
	now := c.sim.Now()
	dt := now.Sub(c.lastAccrual).Seconds()
	if dt <= 0 {
		c.lastAccrual = now
		return
	}
	c.energyJoules += c.power() * dt
	c.busySlotSeconds += float64(c.busyCores) * dt
	c.poweredNodeSeconds += float64(c.poweredNodes) * dt
	c.lastAccrual = now
}

// power returns the aggregate cluster power in watts given current state.
// Each powered node draws idle + (active-idle)*utilization; summed over
// homogeneous nodes this is poweredNodes*idle + (active-idle)*busyCores/
// coresPerNode. Failed and drained-decommissioned nodes draw nothing.
func (c *Cluster) power() float64 {
	active := c.cfg.BusyWatts
	if c.sprinting {
		active = c.cfg.SprintWatts
	}
	perCore := (active - c.cfg.IdleWatts) / float64(c.cfg.CoresPerNode)
	return float64(c.poweredNodes)*c.cfg.IdleWatts + perCore*float64(c.busyCores)
}

// EnergyJoules returns total energy consumed up to the current virtual time.
func (c *Cluster) EnergyJoules() float64 {
	c.accrue()
	return c.energyJoules
}

// BusySlotSeconds returns the total machine time (slot-seconds) consumed by
// tasks so far.
func (c *Cluster) BusySlotSeconds() float64 {
	c.accrue()
	return c.busySlotSeconds
}

// BusySlots returns the number of currently busy slots.
func (c *Cluster) BusySlots() int { return c.busyCores }

// Utilization returns the instantaneous fraction of busy slots.
func (c *Cluster) Utilization() float64 {
	return float64(c.busyCores) / float64(len(c.slots))
}
