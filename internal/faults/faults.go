// Package faults is the deterministic fault- and churn-injection layer of
// the simulated deployment. It drives three failure modes on the shared
// virtual clock, all reproducible per seed and independent of the
// experiment runner's worker count:
//
//   - Node churn: crash/recover processes per node, either stochastic
//     (exponential MTTF/MTTR) or trace-driven (an explicit outage
//     schedule). In-flight tasks on a crashed node are aborted and
//     re-queued by the engine; the machine time they had consumed is
//     attributed to failures.
//   - Task faults: each attempt fails with a per-attempt probability,
//     aborting partway through its duration; the task retries from
//     scratch under a bounded attempt budget, beyond which the whole job
//     is reported failed (engine.JobResult.Failed).
//   - Stragglers: attempts are slowed by a multiplicative factor with a
//     per-attempt probability, modelling the slow-node/slow-task tail of
//     the paper's testbed.
//
// Attach wires an Injector into an engine. It is the one node-churn
// mechanism: dias.NewStack arms it from StackConfig.Faults, and every
// single-cluster figure driver reaches it through that path.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dias/internal/engine"
	"dias/internal/simtime"
)

// Outage is one trace-driven node outage.
type Outage struct {
	// Node is the cluster node index taken down.
	Node int
	// AtSec is the outage start in virtual time; DurationSec its length.
	AtSec       float64
	DurationSec float64
}

// ChurnConfig parameterizes node crash/recover processes. Exactly one of
// the stochastic fields (MTTFSec+MTTRSec) or the Outages trace must be
// set.
type ChurnConfig struct {
	// MTTFSec and MTTRSec give each eligible node exponential failure and
	// repair times (stochastic churn).
	MTTFSec float64
	MTTRSec float64
	// HorizonSec bounds stochastic injection in virtual time so the event
	// queue drains; required with MTTFSec/MTTRSec, ignored for traces.
	HorizonSec float64
	// Nodes lists eligible node indices for stochastic churn; nil means
	// every cluster node.
	Nodes []int
	// Outages is a trace-driven schedule, replayed exactly. Outages of one
	// node must not overlap.
	Outages []Outage
}

// TaskFaultConfig parameterizes per-task failures and stragglers.
type TaskFaultConfig struct {
	// FailProb is the probability that an attempt aborts partway through
	// (uniformly between 10% and 90% of its duration).
	FailProb float64
	// MaxAttempts bounds attempts per task; an injected failure at or
	// beyond the budget fails the whole job. Required when FailProb > 0.
	MaxAttempts int
	// StragglerProb is the probability that an attempt runs slow;
	// StragglerFactor (> 1) is its duration multiplier.
	StragglerProb   float64
	StragglerFactor float64
}

// Config assembles the injection plan. Nil sections are disabled.
type Config struct {
	Churn *ChurnConfig
	Tasks *TaskFaultConfig
	// Seed drives all injection randomness, independent of the engine's
	// own noise stream.
	Seed int64
}

// positive reports whether x is a positive finite number; NaN fails it.
func positive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// probability reports whether p lies in [0,1); NaN fails it.
func probability(p float64) bool { return p >= 0 && p < 1 }

func (c Config) validate(clusterNodes int) error {
	if c.Churn == nil && c.Tasks == nil {
		return errors.New("faults: empty config (no churn, no task faults)")
	}
	if ch := c.Churn; ch != nil {
		stochastic := ch.MTTFSec != 0 || ch.MTTRSec != 0
		if stochastic == (len(ch.Outages) > 0) {
			return errors.New("faults: churn needs exactly one of MTTF/MTTR or an outage trace")
		}
		if stochastic {
			if !positive(ch.MTTFSec) || !positive(ch.MTTRSec) {
				return fmt.Errorf("faults: MTTF %g / MTTR %g must be positive and finite", ch.MTTFSec, ch.MTTRSec)
			}
			if !positive(ch.HorizonSec) {
				return fmt.Errorf("faults: stochastic churn horizon %g must be positive and finite", ch.HorizonSec)
			}
			for _, n := range ch.Nodes {
				if n < 0 || n >= clusterNodes {
					return fmt.Errorf("faults: churn node %d of %d", n, clusterNodes)
				}
			}
		} else {
			if err := validateOutages(ch.Outages, clusterNodes); err != nil {
				return err
			}
		}
	}
	if tf := c.Tasks; tf != nil {
		if !probability(tf.FailProb) {
			return fmt.Errorf("faults: fail probability %g out of [0,1)", tf.FailProb)
		}
		if tf.FailProb > 0 && tf.MaxAttempts < 1 {
			return fmt.Errorf("faults: fail probability %g needs MaxAttempts >= 1", tf.FailProb)
		}
		if !probability(tf.StragglerProb) {
			return fmt.Errorf("faults: straggler probability %g out of [0,1)", tf.StragglerProb)
		}
		if tf.StragglerProb > 0 && !(tf.StragglerFactor > 1 && tf.StragglerFactor <= math.MaxFloat64) {
			return fmt.Errorf("faults: straggler factor %g must exceed 1 and be finite", tf.StragglerFactor)
		}
		if tf.FailProb == 0 && tf.StragglerProb == 0 {
			return errors.New("faults: task-fault section enabled with zero probabilities")
		}
	}
	return nil
}

// validateOutages checks node bounds, finite start times and durations,
// and per-node non-overlap (so a fail never lands on an already-down
// node).
func validateOutages(outages []Outage, clusterNodes int) error {
	perNode := make(map[int][]Outage)
	for _, o := range outages {
		if o.Node < 0 || o.Node >= clusterNodes {
			return fmt.Errorf("faults: outage node %d of %d", o.Node, clusterNodes)
		}
		if !(o.AtSec >= 0 && o.AtSec <= math.MaxFloat64) || !positive(o.DurationSec) {
			return fmt.Errorf("faults: outage at %g for %g", o.AtSec, o.DurationSec)
		}
		perNode[o.Node] = append(perNode[o.Node], o)
	}
	for n, os := range perNode {
		sort.Slice(os, func(i, j int) bool { return os[i].AtSec < os[j].AtSec })
		for i := 1; i < len(os); i++ {
			if os[i].AtSec < os[i-1].AtSec+os[i-1].DurationSec {
				return fmt.Errorf("faults: overlapping outages on node %d at %g", n, os[i].AtSec)
			}
		}
	}
	return nil
}

// Injector is the armed fault plan: it owns the churn processes and
// implements engine.TaskFaultInjector for per-attempt faults.
type Injector struct {
	sim *simtime.Simulation
	eng *engine.Engine
	cfg Config

	churnRng *rand.Rand
	taskRng  *rand.Rand

	nodeFailures int
	downSeconds  float64

	taskFailuresInjected int
	stragglersInjected   int
}

// churnCycle is the pre-bound bookkeeping of one crash/recover process:
// for stochastic churn one per eligible node (re-armed forever), for a
// trace one per scheduled outage. The fail/repair/re-arm callbacks are
// allocated once at Attach and reused for every cycle, so steady churn
// schedules no closures.
type churnCycle struct {
	inj  *Injector
	node int
	// repairSec is the pending down duration: drawn together with the
	// failure gap (stochastic) or fixed by the trace entry.
	repairSec float64
	// rearm re-schedules the next stochastic failure after each cycle;
	// trace cycles fire once.
	rearm    bool
	failFn   func()
	repairFn func()
	rearmFn  func()
}

// newChurnCycle binds the callbacks of one crash/recover process.
func (inj *Injector) newChurnCycle(node int, rearm bool) *churnCycle {
	cn := &churnCycle{inj: inj, node: node, rearm: rearm}
	cn.failFn = func() { inj.fail(cn) }
	cn.repairFn = func() { inj.repair(cn) }
	cn.rearmFn = func() {
		if cn.rearm {
			inj.scheduleFailure(cn)
		}
	}
	return cn
}

// Attach validates the plan against the engine's cluster and arms it:
// churn processes are scheduled on the virtual clock and the task-fault
// hook is installed on the engine. The injector is live for the rest of
// the simulation.
func Attach(sim *simtime.Simulation, eng *engine.Engine, cfg Config) (*Injector, error) {
	if sim == nil || eng == nil {
		return nil, errors.New("faults: nil simulation or engine")
	}
	clusterNodes := eng.Cluster().Config().Nodes
	if err := cfg.validate(clusterNodes); err != nil {
		return nil, err
	}
	inj := &Injector{
		sim:      sim,
		eng:      eng,
		cfg:      cfg,
		churnRng: rand.New(rand.NewSource(cfg.Seed)),
		taskRng:  rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	if ch := cfg.Churn; ch != nil {
		if len(ch.Outages) > 0 {
			inj.scheduleTrace(ch.Outages)
		} else {
			nodes := ch.Nodes
			if nodes == nil {
				nodes = make([]int, clusterNodes)
				for n := range nodes {
					nodes[n] = n
				}
			}
			for _, n := range nodes {
				inj.scheduleFailure(inj.newChurnCycle(n, true))
			}
		}
	}
	if tf := cfg.Tasks; tf != nil {
		if err := eng.SetTaskFaults(inj, max(tf.MaxAttempts, 1)); err != nil {
			return nil, err
		}
	}
	return inj, nil
}

// scheduleTrace replays an explicit outage schedule: one pre-bound cycle
// per outage, all allocated here at Attach.
func (inj *Injector) scheduleTrace(outages []Outage) {
	for _, o := range outages {
		cn := inj.newChurnCycle(o.Node, false)
		cn.repairSec = o.DurationSec
		inj.sim.At(simtime.Time(o.AtSec), cn.failFn)
	}
}

// scheduleFailure arms the node's next stochastic failure, staying
// inside the horizon so the event queue drains. The repair duration is
// drawn with the gap (one draw pair per cycle, in cycle order) and
// parked on the cycle until the failure fires.
func (inj *Injector) scheduleFailure(cn *churnCycle) {
	gap := inj.churnRng.ExpFloat64() * inj.cfg.Churn.MTTFSec
	at := inj.sim.Now().Add(simtime.Duration(gap))
	if at.Seconds() > inj.cfg.Churn.HorizonSec {
		return
	}
	cn.repairSec = inj.churnRng.ExpFloat64() * inj.cfg.Churn.MTTRSec
	inj.sim.At(at, cn.failFn)
}

// fail takes the cycle's node down for its drawn duration and schedules
// the repair; stochastic churn then re-arms the node's next failure. The
// injector's own cycle alternates fail/repair per node, but another
// layer (e.g. a federation-level outage, which fails every node of a
// member) may hold the node down already or repair it early — those
// cases are skipped, not errors, so the two layers compose.
func (inj *Injector) fail(cn *churnCycle) {
	if inj.eng.Cluster().NodeDown(cn.node) {
		// Another injection layer owns this node's failure; skip the cycle
		// and re-arm after the would-be repair.
		inj.sim.After(simtime.Duration(cn.repairSec), cn.rearmFn)
		return
	}
	if err := inj.eng.FailNode(cn.node); err != nil {
		panic(fmt.Sprintf("faults: failing node %d: %v", cn.node, err))
	}
	inj.nodeFailures++
	inj.downSeconds += cn.repairSec
	inj.sim.After(simtime.Duration(cn.repairSec), cn.repairFn)
}

// repair ends one cycle: the node is repaired if this layer's failure
// still holds, and stochastic churn re-arms.
func (inj *Injector) repair(cn *churnCycle) {
	// Repair only if the node is still down; a cluster-level recovery
	// sweeping the whole member cannot happen (outage recovery repairs
	// only nodes the outage itself failed), but stay defensive.
	if inj.eng.Cluster().NodeDown(cn.node) {
		if err := inj.eng.RepairNode(cn.node); err != nil {
			panic(fmt.Sprintf("faults: repairing node %d: %v", cn.node, err))
		}
	}
	if cn.rearm {
		inj.scheduleFailure(cn)
	}
}

// TaskStarted implements engine.TaskFaultInjector: it draws the straggler
// and failure fates of one attempt. Called in deterministic simulation
// order, so runs reproduce bit-identically per seed.
func (inj *Injector) TaskStarted(_ string, _, _, _ int) engine.TaskFault {
	tf := inj.cfg.Tasks
	var f engine.TaskFault
	if tf == nil {
		return f
	}
	// Both draws happen unconditionally so one fate never perturbs the
	// random stream of the other.
	uStraggle := inj.taskRng.Float64()
	uFail := inj.taskRng.Float64()
	if tf.StragglerProb > 0 && uStraggle < tf.StragglerProb {
		f.Slowdown = tf.StragglerFactor
		inj.stragglersInjected++
	}
	if tf.FailProb > 0 && uFail < tf.FailProb {
		f.FailAfterFrac = 0.1 + 0.8*inj.taskRng.Float64()
		inj.taskFailuresInjected++
	}
	return f
}

// NodeFailures returns the number of node crashes injected so far.
func (inj *Injector) NodeFailures() int { return inj.nodeFailures }

// DownSeconds returns the total scheduled node downtime.
func (inj *Injector) DownSeconds() float64 { return inj.downSeconds }

// TaskFailuresInjected returns how many attempts were doomed to abort.
func (inj *Injector) TaskFailuresInjected() int { return inj.taskFailuresInjected }

// StragglersInjected returns how many attempts were slowed.
func (inj *Injector) StragglersInjected() int { return inj.stragglersInjected }
