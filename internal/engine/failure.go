package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"dias/internal/simtime"
)

// FailureConfig parameterizes random node failures: each eligible node
// fails after an exponential time with mean MTTFSec, stays down for an
// exponential repair time with mean MTTRSec, and the cycle repeats. No new
// failures are scheduled beyond HorizonSec (repairs still fire), so the
// event queue drains and simulations terminate.
type FailureConfig struct {
	// MTTFSec is the per-node mean time to failure.
	MTTFSec float64
	// MTTRSec is the mean time to repair.
	MTTRSec float64
	// HorizonSec bounds the injection window in virtual time.
	HorizonSec float64
	// Nodes lists eligible node indices; nil means every cluster node.
	Nodes []int
	// Seed drives the injector's RNG.
	Seed int64
}

func (c FailureConfig) validate(clusterNodes int) error {
	if c.MTTFSec <= 0 || c.MTTRSec <= 0 {
		return fmt.Errorf("engine: failure MTTF %g / MTTR %g must be positive", c.MTTFSec, c.MTTRSec)
	}
	if c.HorizonSec <= 0 {
		return errors.New("engine: failure horizon must be positive")
	}
	for _, n := range c.Nodes {
		if n < 0 || n >= clusterNodes {
			return fmt.Errorf("engine: failure node %d of %d", n, clusterNodes)
		}
	}
	return nil
}

// TaskFault is the injected behaviour of one task attempt, decided at
// launch by a TaskFaultInjector. The zero value is a healthy attempt.
type TaskFault struct {
	// Slowdown stretches the attempt's duration when > 1 (an injected
	// straggler); values <= 1 leave it unchanged.
	Slowdown float64
	// FailAfterFrac, in (0,1], aborts the attempt after that fraction of
	// its (possibly slowed) duration: the consumed machine time is lost
	// and the task retries from scratch. Zero means the attempt succeeds.
	FailAfterFrac float64
}

// TaskFaultInjector decides each task attempt's fate at launch time. It is
// called in simulation context, in deterministic event order, with the
// job's name, the task coordinates and how many prior attempts aborted —
// enough to drive seeded per-task failure probabilities and stragglers
// (see internal/faults).
type TaskFaultInjector interface {
	TaskStarted(job string, stage, partition, attempt int) TaskFault
}

// SetTaskFaults installs a task-level fault injector consulted at every
// attempt launch, with a per-task attempt budget: an injected failure at
// or beyond maxAttempts attempts fails the whole job (reported through
// JobResult.Failed rather than an error). maxAttempts must be >= 1 when an
// injector is set; retries caused by node crashes bump the attempt count
// the injector sees but never exhaust the budget on their own. Passing a
// nil injector removes fault injection.
func (e *Engine) SetTaskFaults(inj TaskFaultInjector, maxAttempts int) error {
	if inj != nil && maxAttempts < 1 {
		return fmt.Errorf("engine: task-fault attempt budget %d", maxAttempts)
	}
	e.taskFaults = inj
	e.maxTaskAttempts = maxAttempts
	return nil
}

// FailedJobs returns the number of jobs aborted with retries exhausted.
func (e *Engine) FailedJobs() int { return e.failedJobs }

// FailureInjector drives the fail/repair cycles of cluster nodes on the
// virtual timeline, exercising the engine's task re-execution path.
//
// Superseded by internal/faults, which adds trace-driven outage
// schedules, per-task faults with bounded retries, stragglers, and
// compose-safe skipping when another layer holds a node down. New code
// should attach a faults.Injector; this type remains for its one caller,
// ExtensionFailures, whose published figure depends on its exact RNG draw
// order.
type FailureInjector struct {
	sim *simtime.Simulation
	eng *Engine
	cfg FailureConfig
	rng *rand.Rand

	failures int
	repairs  int
	downSecs float64
}

// failureCycle pre-binds one node's fail and repair callbacks at
// injector construction, so the endless crash/recover cycles schedule no
// closures at run time.
type failureCycle struct {
	node     int
	failFn   func()
	repairFn func()
}

// NewFailureInjector arms the injector: the first failure of each eligible
// node is scheduled immediately (at an Exp(MTTF) offset).
func NewFailureInjector(sim *simtime.Simulation, eng *Engine, cfg FailureConfig) (*FailureInjector, error) {
	if sim == nil || eng == nil {
		return nil, errors.New("engine: nil simulation or engine")
	}
	if err := cfg.validate(eng.clu.Config().Nodes); err != nil {
		return nil, err
	}
	inj := &FailureInjector{
		sim: sim,
		eng: eng,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = make([]int, 0, eng.clu.Config().Nodes)
		for n := 0; n < eng.clu.Config().Nodes; n++ {
			nodes = append(nodes, n)
		}
	}
	for _, n := range nodes {
		cn := &failureCycle{node: n}
		cn.failFn = func() { inj.fail(cn) }
		cn.repairFn = func() { inj.repair(cn) }
		inj.scheduleFailure(cn)
	}
	return inj, nil
}

// Failures returns the number of node failures injected so far.
func (inj *FailureInjector) Failures() int { return inj.failures }

// Repairs returns the number of completed repairs.
func (inj *FailureInjector) Repairs() int { return inj.repairs }

// DownSeconds returns total node-downtime injected (summed across nodes).
func (inj *FailureInjector) DownSeconds() float64 { return inj.downSecs }

func (inj *FailureInjector) scheduleFailure(cn *failureCycle) {
	gap := inj.rng.ExpFloat64() * inj.cfg.MTTFSec
	at := inj.sim.Now().Add(simtime.Duration(gap))
	if at.Seconds() > inj.cfg.HorizonSec {
		return
	}
	inj.sim.At(at, cn.failFn)
}

func (inj *FailureInjector) fail(cn *failureCycle) {
	// The node is up by construction: failures and repairs of one node
	// alternate on the timeline. A failed FailNode would therefore be a
	// bug; surface it loudly.
	if err := inj.eng.FailNode(cn.node); err != nil {
		panic(fmt.Sprintf("engine: failure injection on node %d: %v", cn.node, err))
	}
	inj.failures++
	repair := inj.rng.ExpFloat64() * inj.cfg.MTTRSec
	inj.downSecs += repair
	inj.sim.After(simtime.Duration(repair), cn.repairFn)
}

func (inj *FailureInjector) repair(cn *failureCycle) {
	if err := inj.eng.RepairNode(cn.node); err != nil {
		panic(fmt.Sprintf("engine: repair of node %d: %v", cn.node, err))
	}
	inj.repairs++
	inj.scheduleFailure(cn)
}
