package core

// Elastic capacity: a ScalePolicy decides how many nodes the cluster
// should run from periodic load signals, and the Autoscaler applies the
// decision by commissioning and decommissioning nodes mid-run. Scale-in
// drains gracefully (running tasks finish before a node powers off), and
// both shipped policies refuse to scale in while the sprinter holds the
// cluster at high frequency — sprinting means the scheduler is already
// fighting a latency deadline, the worst moment to shed capacity.

import (
	"errors"
	"fmt"

	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/simtime"
)

// ScaleSignals is the load snapshot a ScalePolicy decides from, gathered
// at each autoscaler tick.
type ScaleSignals struct {
	// QueuedJobs is the scheduler backlog (buffered, not dispatched).
	QueuedJobs int
	// Busy reports a job currently in the engine.
	Busy bool
	// CommissionedNodes is the capacity currently in service; MinNodes and
	// MaxNodes bound what the policy may ask for.
	CommissionedNodes int
	MinNodes          int
	MaxNodes          int
	// Utilization is the instantaneous busy-slot fraction.
	Utilization float64
	// EWMAResponseSec smooths the response times of recent completions
	// (zero until the first completion; Completions says how many).
	EWMAResponseSec float64
	Completions     int
	// Sprinting reports the cluster at high frequency right now.
	Sprinting bool
}

// ScalePolicy turns load signals into a desired node count. The
// autoscaler clamps the answer into [MinNodes, MaxNodes], so policies may
// freely return CommissionedNodes±Step.
type ScalePolicy interface {
	Name() string
	TargetNodes(sig ScaleSignals) int
}

// BacklogScalePolicy scales on queue depth: more than ScaleOutAbove
// buffered jobs adds Step nodes, fewer than ScaleInBelow removes Step
// (never while sprinting).
type BacklogScalePolicy struct {
	// ScaleOutAbove and ScaleInBelow are backlog thresholds; the band
	// between them is hysteresis. ScaleOutAbove must exceed ScaleInBelow.
	ScaleOutAbove int
	ScaleInBelow  int
	// Step is the node count added or removed per decision (>= 1).
	Step int
}

// Name implements ScalePolicy.
func (p BacklogScalePolicy) Name() string { return "backlog" }

// TargetNodes implements ScalePolicy.
func (p BacklogScalePolicy) TargetNodes(sig ScaleSignals) int {
	switch {
	case sig.QueuedJobs > p.ScaleOutAbove:
		return sig.CommissionedNodes + p.Step
	case sig.QueuedJobs < p.ScaleInBelow && !sig.Sprinting:
		return sig.CommissionedNodes - p.Step
	}
	return sig.CommissionedNodes
}

func (p BacklogScalePolicy) validate() error {
	if p.Step < 1 {
		return fmt.Errorf("core: backlog policy step %d", p.Step)
	}
	if p.ScaleOutAbove <= p.ScaleInBelow {
		return fmt.Errorf("core: backlog thresholds out %d <= in %d leave no hysteresis band",
			p.ScaleOutAbove, p.ScaleInBelow)
	}
	return nil
}

// LatencyScalePolicy scales on smoothed response time against a target:
// EWMA beyond Target*(1+Headroom) adds Step nodes, below Target*(1-Headroom)
// removes Step (never while sprinting, and never before the first
// completion reports a latency at all).
type LatencyScalePolicy struct {
	// TargetSec is the response-time setpoint.
	TargetSec float64
	// Headroom is the relative dead band around the target (e.g. 0.25).
	Headroom float64
	// Step is the node count added or removed per decision (>= 1).
	Step int
}

// Name implements ScalePolicy.
func (p LatencyScalePolicy) Name() string { return "latency" }

// TargetNodes implements ScalePolicy.
func (p LatencyScalePolicy) TargetNodes(sig ScaleSignals) int {
	if sig.Completions == 0 {
		return sig.CommissionedNodes
	}
	switch {
	case sig.EWMAResponseSec > p.TargetSec*(1+p.Headroom):
		return sig.CommissionedNodes + p.Step
	case sig.EWMAResponseSec < p.TargetSec*(1-p.Headroom) && !sig.Sprinting:
		return sig.CommissionedNodes - p.Step
	}
	return sig.CommissionedNodes
}

func (p LatencyScalePolicy) validate() error {
	if p.TargetSec <= 0 {
		return fmt.Errorf("core: latency policy target %g", p.TargetSec)
	}
	if p.Headroom <= 0 || p.Headroom >= 1 {
		return fmt.Errorf("core: latency policy headroom %g out of (0,1)", p.Headroom)
	}
	if p.Step < 1 {
		return fmt.Errorf("core: latency policy step %d", p.Step)
	}
	return nil
}

// AutoscalerConfig parameterizes the controller.
type AutoscalerConfig struct {
	// Policy decides the target node count each tick.
	Policy ScalePolicy
	// MinNodes and MaxNodes bound the commissioned count; MaxNodes must
	// not exceed the cluster's provisioned node count (zero means use it).
	MinNodes int
	MaxNodes int
	// InitialNodes is the commissioned count at start (zero = MaxNodes).
	InitialNodes int
	// IntervalSec is the decision period.
	IntervalSec float64
	// CooldownSec is the minimum virtual time between scale actions
	// (decisions still run every tick; actions inside the cooldown are
	// dropped). Zero means act on every tick.
	CooldownSec float64
	// EWMAAlpha weights the newest completion in the latency smoother
	// (zero = 0.2).
	EWMAAlpha float64
	// HorizonSec stops ticking beyond this virtual time so the event queue
	// drains and the simulation terminates. Required.
	HorizonSec float64
}

// Autoscaler drives elastic capacity on one DiAS stack: every IntervalSec
// of virtual time it snapshots load signals, asks the policy for a target
// node count and commissions/decommissions nodes to meet it. Construct it
// after the scheduler and feed completions to Observe (e.g. from the same
// OnRecord hook the metrics accumulator uses).
type Autoscaler struct {
	sim *simtime.Simulation
	clu *cluster.Cluster
	eng *engine.Engine
	sch *Scheduler
	cfg AutoscalerConfig

	ewma        float64
	completions int
	lastAction  simtime.Time
	acted       bool

	scaleOuts int
	scaleIns  int

	// tickFn is the pre-bound tick callback: the self-re-arming loop
	// schedules it for the lifetime of the run without allocating a
	// method-value closure per tick.
	tickFn func()
}

// NewAutoscaler validates the config, sets the initial commissioned count
// (decommissioning highest-index nodes first) and arms the tick loop.
func NewAutoscaler(sim *simtime.Simulation, clu *cluster.Cluster, eng *engine.Engine, sch *Scheduler, cfg AutoscalerConfig) (*Autoscaler, error) {
	if sim == nil || clu == nil || eng == nil || sch == nil {
		return nil, errors.New("core: autoscaler nil dependency")
	}
	if cfg.Policy == nil {
		return nil, errors.New("core: autoscaler needs a scale policy")
	}
	type validator interface{ validate() error }
	if v, ok := cfg.Policy.(validator); ok {
		if err := v.validate(); err != nil {
			return nil, err
		}
	}
	provisioned := clu.Config().Nodes
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = provisioned
	}
	if cfg.MaxNodes > provisioned {
		return nil, fmt.Errorf("core: autoscaler max %d exceeds provisioned %d nodes", cfg.MaxNodes, provisioned)
	}
	if cfg.MinNodes < 1 || cfg.MinNodes > cfg.MaxNodes {
		return nil, fmt.Errorf("core: autoscaler bounds min %d max %d", cfg.MinNodes, cfg.MaxNodes)
	}
	if cfg.InitialNodes == 0 {
		cfg.InitialNodes = cfg.MaxNodes
	}
	if cfg.InitialNodes < cfg.MinNodes || cfg.InitialNodes > cfg.MaxNodes {
		return nil, fmt.Errorf("core: autoscaler initial %d outside [%d,%d]", cfg.InitialNodes, cfg.MinNodes, cfg.MaxNodes)
	}
	if cfg.IntervalSec <= 0 {
		return nil, fmt.Errorf("core: autoscaler interval %g", cfg.IntervalSec)
	}
	if cfg.CooldownSec < 0 {
		return nil, fmt.Errorf("core: autoscaler cooldown %g", cfg.CooldownSec)
	}
	if cfg.HorizonSec <= 0 {
		return nil, errors.New("core: autoscaler needs a positive horizon")
	}
	if cfg.EWMAAlpha == 0 {
		cfg.EWMAAlpha = 0.2
	}
	if cfg.EWMAAlpha < 0 || cfg.EWMAAlpha > 1 {
		return nil, fmt.Errorf("core: autoscaler EWMA alpha %g out of (0,1]", cfg.EWMAAlpha)
	}
	a := &Autoscaler{sim: sim, clu: clu, eng: eng, sch: sch, cfg: cfg}
	// Park the nodes above the initial count before any work arrives.
	for n := provisioned - 1; n >= cfg.InitialNodes; n-- {
		if err := eng.DecommissionNode(n); err != nil {
			return nil, fmt.Errorf("core: parking node %d: %w", n, err)
		}
	}
	a.tickFn = a.tick
	sim.After(simtime.Duration(cfg.IntervalSec), a.tickFn)
	return a, nil
}

// Observe feeds one completed job into the latency smoother. Failed and
// rejected jobs are excluded: their response times describe aborts and
// sheds, not service.
func (a *Autoscaler) Observe(rec JobRecord) {
	if rec.Failed || rec.Rejected {
		return
	}
	if a.completions == 0 {
		a.ewma = rec.ResponseSec
	} else {
		a.ewma = a.cfg.EWMAAlpha*rec.ResponseSec + (1-a.cfg.EWMAAlpha)*a.ewma
	}
	a.completions++
}

// tick runs one decision round and re-arms itself while inside the
// horizon. A tick that finds the simulation otherwise empty (no pending
// events: the tick callback itself is already retired) disarms instead —
// the workload has drained and re-arming would only stretch the measured
// makespan with idle ticks.
func (a *Autoscaler) tick() {
	if a.sim.Pending() == 0 {
		return
	}
	now := a.sim.Now()
	sig := ScaleSignals{
		QueuedJobs:        a.sch.QueuedJobs(),
		Busy:              a.sch.Busy(),
		CommissionedNodes: a.clu.CommissionedNodes(),
		MinNodes:          a.cfg.MinNodes,
		MaxNodes:          a.cfg.MaxNodes,
		Utilization:       a.clu.Utilization(),
		EWMAResponseSec:   a.ewma,
		Completions:       a.completions,
		Sprinting:         a.clu.Sprinting(),
	}
	target := a.cfg.Policy.TargetNodes(sig)
	if target < a.cfg.MinNodes {
		target = a.cfg.MinNodes
	}
	if target > a.cfg.MaxNodes {
		target = a.cfg.MaxNodes
	}
	if target != sig.CommissionedNodes && a.cooledDown(now) {
		a.apply(sig.CommissionedNodes, target)
	}
	if next := now.Add(simtime.Duration(a.cfg.IntervalSec)); next.Seconds() <= a.cfg.HorizonSec {
		a.sim.At(next, a.tickFn)
	}
}

func (a *Autoscaler) cooledDown(now simtime.Time) bool {
	return !a.acted || now.Sub(a.lastAction).Seconds() >= a.cfg.CooldownSec
}

// apply commissions (lowest offline index first) or decommissions
// (highest commissioned index first) nodes to move from -> to.
func (a *Autoscaler) apply(from, to int) {
	provisioned := a.clu.Config().Nodes
	have := from
	if to > have {
		for n := 0; n < provisioned && have < to; n++ {
			if !a.clu.NodeOffline(n) {
				continue
			}
			if err := a.eng.CommissionNode(n); err != nil {
				panic(fmt.Sprintf("core: autoscaler commission node %d: %v", n, err))
			}
			have++
		}
		a.scaleOuts++
	} else {
		for n := provisioned - 1; n >= 0 && have > to; n-- {
			if a.clu.NodeOffline(n) {
				continue
			}
			if err := a.eng.DecommissionNode(n); err != nil {
				panic(fmt.Sprintf("core: autoscaler decommission node %d: %v", n, err))
			}
			have--
		}
		a.scaleIns++
	}
	a.lastAction, a.acted = a.sim.Now(), true
}

// ScaleOuts and ScaleIns count applied actions in each direction.
func (a *Autoscaler) ScaleOuts() int { return a.scaleOuts }
func (a *Autoscaler) ScaleIns() int  { return a.scaleIns }

// EWMAResponseSec returns the current smoothed response time.
func (a *Autoscaler) EWMAResponseSec() float64 { return a.ewma }
