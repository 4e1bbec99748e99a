// Package core implements DiAS itself (§3): per-priority job buffers, the
// task deflator that dispatches jobs non-preemptively with per-class
// approximation levels θk, and the sprinter that temporarily raises CPU
// frequency for dispatched jobs after a per-class timeout Tk under a
// replenishing energy budget.
//
// The same scheduler also implements the paper's baselines: preemptive
// priority with eviction and re-execution (P), plain non-preemptive
// priority (NP), non-preemptive with sprinting only (NPS), and differential
// approximation without sprinting (DA). Policy constructors for each are
// provided.
package core

import (
	"errors"
	"fmt"
	"math"

	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/ring"
	"dias/internal/simtime"
	"dias/internal/telemetry"
)

// SprintPolicy configures the sprinter (§3.2, §3.3 "Sprinter").
type SprintPolicy struct {
	// TimeoutSec[k] is the sprinting timeout Tk for class k: once a class-k
	// job has run this long, the sprinter raises the frequency until the
	// job ends or the budget depletes. Negative means class k never
	// sprints. Zero sprints from dispatch (the paper's unlimited setup).
	TimeoutSec []float64
	// BudgetJoules is the sprinting energy budget (paper: 22 kJ for the
	// limited scenario). Use math.Inf(1) for unlimited sprinting.
	BudgetJoules float64
	// DrainWatts is the extra power drawn while sprinting, depleting the
	// budget (paper: 270 W - 180 W = 90 W per node, so 900 W for ten).
	DrainWatts float64
	// ReplenishWatts refills the budget while not sprinting, up to
	// BudgetJoules (the paper cites e.g. 6 sprint-minutes per hour).
	ReplenishWatts float64
}

// validate rejects a policy the sprinter cannot run. A NaN in any field
// would reach the simulation clock as a NaN timer instant and panic
// mid-run, so the comparisons below are written to fail on NaN. A
// negative timeout stays legal ("never sprints"), as does an infinite
// budget.
func (p *SprintPolicy) validate(classes int) error {
	if len(p.TimeoutSec) != classes {
		return fmt.Errorf("core: %d sprint timeouts for %d classes", len(p.TimeoutSec), classes)
	}
	for k, timeout := range p.TimeoutSec {
		if math.IsNaN(timeout) {
			return fmt.Errorf("core: class %d sprint timeout %g", k, timeout)
		}
	}
	if !(p.BudgetJoules > 0) {
		return fmt.Errorf("core: sprint budget %g", p.BudgetJoules)
	}
	if !math.IsInf(p.BudgetJoules, 1) && !(p.DrainWatts > 0) {
		return fmt.Errorf("core: finite sprint budget needs positive drain watts, got %g", p.DrainWatts)
	}
	if !(p.ReplenishWatts >= 0) {
		return fmt.Errorf("core: replenish rate %g", p.ReplenishWatts)
	}
	return nil
}

// Config selects the scheduling policy.
type Config struct {
	// Classes is the number of priority classes K; class index k in
	// [0, K) with higher k = higher priority, as in the paper.
	Classes int
	// Preemptive evicts the running job when a higher-priority one
	// arrives; the evicted job returns to the head of its buffer and
	// re-executes from scratch (the paper's P baseline).
	Preemptive bool
	// DropRatios[k] holds the per-stage approximation levels θ applied to
	// class-k jobs at dispatch; nil means no dropping for that class.
	DropRatios [][]float64
	// Deflator, when non-nil, chooses drop ratios dynamically at each
	// dispatch and observes every completion (e.g. AdaptiveDeflator). It
	// is mutually exclusive with DropRatios.
	Deflator Deflator
	// Sprint enables the sprinter; nil disables sprinting.
	Sprint *SprintPolicy
	// Admission, when non-nil, gates every arrival before it is buffered:
	// rejected jobs never enter a buffer and are reported as rejection
	// records (JobRecord.Rejected) instead of completions. Nil admits
	// everything, byte-identical to admission.AlwaysAdmit. Policies that
	// implement admission.Learner are fed every completion.
	Admission admission.Policy
	// KeepOutputs retains job outputs in records (needed for accuracy
	// measurements; costs memory on long runs).
	KeepOutputs bool
	// OnRecord, when non-nil, receives every completed job's record the
	// moment it is produced — the streaming hook for metrics accumulators.
	OnRecord func(JobRecord)
	// DiscardRecords stops the scheduler from retaining completed-job
	// records in memory (Records() then stays empty). Combine with
	// OnRecord to aggregate long runs in O(classes) instead of O(jobs)
	// memory.
	DiscardRecords bool
	// Tracer, when non-nil, receives the full job lifecycle as telemetry
	// spans (admission verdicts with policy names, dispatches, evictions,
	// sprint windows, completions with failure reasons). Every emission is
	// guarded on nil, so a disabled tracer costs one pointer test on the
	// allocation-free hot paths.
	Tracer telemetry.Tracer
}

func (c Config) validate() error {
	if c.Classes <= 0 {
		return fmt.Errorf("core: %d classes", c.Classes)
	}
	if c.DropRatios != nil && len(c.DropRatios) != c.Classes {
		return fmt.Errorf("core: %d drop-ratio sets for %d classes", len(c.DropRatios), c.Classes)
	}
	for k, drops := range c.DropRatios {
		for _, th := range drops {
			if th < 0 || th >= 1 {
				return fmt.Errorf("core: class %d drop ratio %g out of [0,1)", k, th)
			}
		}
	}
	if c.Deflator != nil && c.DropRatios != nil {
		return errors.New("core: DropRatios and Deflator are mutually exclusive")
	}
	if c.Sprint != nil {
		if err := c.Sprint.validate(c.Classes); err != nil {
			return err
		}
		if c.Preemptive {
			return errors.New("core: sprinting with preemptive eviction is not a paper scenario")
		}
	}
	return nil
}

// StateObserver receives O(1) notifications at the scheduler's queue and
// occupancy transitions: job buffered (arrival or eviction re-queue), job
// unbuffered (dispatch), and engine occupancy flips. It is the push
// counterpart of the polled getters (QueuedJobsInClass, Busy), letting a
// front-end — the federation's LoadIndex — maintain routing state
// incrementally instead of rescanning every buffer per arrival.
// Callbacks run in simulation context and must not call back into the
// scheduler or allocate.
type StateObserver interface {
	// JobQueued reports a class-k job entering a buffer (arrival, or an
	// evicted job returning to the head of its buffer).
	JobQueued(class int)
	// JobDequeued reports the head-of-buffer class-k job leaving for the
	// engine (or failing there on an invalid submission).
	JobDequeued(class int)
	// BusyChanged reports the engine occupancy flipping: true when a job
	// is dispatched, false when it completes or is evicted.
	BusyChanged(busy bool)
}

// SetObserver installs the state observer. Attach it before the first
// arrival: the observer sees transitions only, not pre-existing state.
// A nil observer detaches.
func (s *Scheduler) SetObserver(obs StateObserver) { s.obs = obs }

// Deflator decides per-stage drop ratios at dispatch time and observes
// completions, enabling closed-loop approximation control. The static
// policy (Config.DropRatios) covers the paper's experiments; see
// AdaptiveDeflator for the feedback variant.
type Deflator interface {
	// DropRatios returns the per-stage θ vector for the next class-k
	// dispatch (nil = no dropping).
	DropRatios(class int) []float64
	// Observe is invoked with each completed job's record.
	Observe(rec JobRecord)
}

// PolicyP is the paper's preemptive priority baseline.
func PolicyP(classes int) Config {
	return Config{Classes: classes, Preemptive: true}
}

// PolicyNP is the non-preemptive priority baseline.
func PolicyNP(classes int) Config {
	return Config{Classes: classes}
}

// PolicyDA is differential approximation: non-preemptive with per-class
// single-stage drop ratios (θ applied to the job's first stage, the map
// stage). thetas[k] is class k's ratio; the paper writes DA(θhigh,θlow)
// with the high class first, here index order is low..high.
func PolicyDA(thetas []float64) Config {
	cfg := Config{Classes: len(thetas), DropRatios: make([][]float64, len(thetas))}
	for k, th := range thetas {
		if th > 0 {
			cfg.DropRatios[k] = []float64{th}
		}
	}
	return cfg
}

// PolicyDiAS is the full system: differential approximation plus
// sprinting.
func PolicyDiAS(thetas []float64, sprint SprintPolicy) Config {
	cfg := PolicyDA(thetas)
	cfg.Sprint = &sprint
	return cfg
}

// JobRecord is the per-job outcome the experiments aggregate.
type JobRecord struct {
	Class      int
	Name       string
	ArrivedAt  simtime.Time
	FinishedAt simtime.Time
	// ResponseSec = queueing + execution; ExecSec is the duration of the
	// final (successful) attempt; QueueSec the rest, including time lost
	// to evicted attempts.
	ResponseSec float64
	ExecSec     float64
	QueueSec    float64
	// Evictions counts preemptions suffered.
	Evictions int
	// SlotSeconds is machine time of the successful attempt.
	SlotSeconds float64
	// EffectiveDropRatio is 1 - executed/total tasks.
	EffectiveDropRatio float64
	// Retries counts task attempts aborted by failures (injected faults or
	// node crashes) and re-executed during the job.
	Retries int
	// Failed reports a job the engine aborted with a task's retry budget
	// exhausted; its latency fields describe the failed run, not a
	// completed service.
	Failed bool
	// Rejected reports a job the admission policy shed at arrival: it
	// never entered a buffer, so every latency field is zero and
	// ArrivedAt == FinishedAt. Every submitted job produces exactly one
	// record — completed, failed, or rejected.
	Rejected bool
	// Output holds the job result records when Config.KeepOutputs is set.
	Output []engine.Record
}

// entry is a buffered or running job. Entries are pooled on the
// scheduler's freelist: each struct carries a completion closure bound
// once at allocation and reused across all the jobs it represents, so
// steady-state arrivals perform no entry or closure allocation.
type entry struct {
	class        int
	job          *engine.Job
	arrivedAt    simtime.Time
	dispatchedAt simtime.Time
	evictions    int
	engineID     engine.JobID
	span         telemetry.SpanID

	// completeFn is the pre-bound s.onComplete(en, res) callback handed to
	// the engine for every job this entry struct carries; sprintFn, bound
	// on its first sprint-armed dispatch, is the s.startSprint(en) callback
	// handed to the sprint timer.
	completeFn func(engine.JobResult)
	sprintFn   func()
}

// Scheduler is the DiAS runtime: deflator + buffers + sprinter driving one
// processing engine.
type Scheduler struct {
	sim *simtime.Simulation
	clu *cluster.Cluster
	eng *engine.Engine
	cfg Config

	buffers []ring.Deque[*entry]
	current *entry
	// entryFree recycles entry structs (and their pre-bound completion
	// closures) across jobs.
	entryFree []*entry
	// obs, when non-nil, receives queue/occupancy transitions (see
	// StateObserver).
	obs StateObserver
	// admLearner caches the admission policy's Learner side (nil when the
	// policy does not learn), so completions avoid a type assertion each.
	admLearner admission.Learner
	// rejected counts admission-shed jobs of the configured classes.
	rejected int

	records []JobRecord

	// Sprinter state. depletedFn is s.onBudgetDepleted, bound on the first
	// sprint that can deplete the budget.
	sprintTimer  *simtime.Timer
	depleteTimer *simtime.Timer
	depletedFn   func()
	budget       float64
	budgetCap    float64
	budgetAt     simtime.Time
	sprinting    bool
}

// New builds a scheduler. The engine must be dedicated to this scheduler:
// DiAS dispatches exactly one job at a time (§4, single-server view).
func New(sim *simtime.Simulation, clu *cluster.Cluster, eng *engine.Engine, cfg Config) (*Scheduler, error) {
	if sim == nil || clu == nil || eng == nil {
		return nil, errors.New("core: nil dependency")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		sim:     sim,
		clu:     clu,
		eng:     eng,
		cfg:     cfg,
		buffers: make([]ring.Deque[*entry], cfg.Classes),
	}
	if l, ok := cfg.Admission.(admission.Learner); ok {
		s.admLearner = l
	}
	if cfg.Sprint != nil {
		s.sprintTimer = simtime.NewTimer(sim)
		s.depleteTimer = simtime.NewTimer(sim)
		s.budget = cfg.Sprint.BudgetJoules
		s.budgetCap = cfg.Sprint.BudgetJoules
		s.budgetAt = sim.Now()
	}
	return s, nil
}

// Arrive submits a class-k job at the current virtual time: the admission
// policy (if any) gates it, and an admitted job is enqueued. A shed job is
// reported as a rejection record; a Defer verdict also sheds, since a
// single stack has nowhere else to send it (the federation dispatcher
// uses Offer to spill deferred arrivals across members instead). It must
// be called from simulation context (an event callback).
func (s *Scheduler) Arrive(class int, job *engine.Job) error {
	dec, err := s.Offer(class, job)
	if err != nil {
		return err
	}
	if dec == admission.Defer {
		s.Reject(class, job)
	}
	return nil
}

// Offer submits a class-k job for admission: Accept enqueues it, Reject
// records the shed, and Defer does nothing — the caller owns a deferred
// job and must either place it elsewhere or hand it back to Reject.
func (s *Scheduler) Offer(class int, job *engine.Job) (admission.Decision, error) {
	if class < 0 || class >= s.cfg.Classes {
		return admission.Reject, fmt.Errorf("core: class %d out of [0,%d)", class, s.cfg.Classes)
	}
	if job == nil {
		return admission.Reject, errors.New("core: nil job")
	}
	if s.cfg.Admission != nil {
		info := admission.JobInfo{Name: job.Name, Class: class, SizeBytes: job.SizeBytes}
		switch dec := s.cfg.Admission.Admit(s.sim.Now(), info, s); dec {
		case admission.Accept:
			// Fall through to the enqueue below.
		case admission.Reject:
			s.Reject(class, job)
			return admission.Reject, nil
		case admission.Defer:
			if s.cfg.Tracer != nil {
				s.cfg.Tracer.JobDeferred(s.sim.Now(), job.Name, class, s.cfg.Admission.Name())
			}
			return admission.Defer, nil
		default:
			return admission.Reject, fmt.Errorf("core: admission policy %s returned %v", s.cfg.Admission.Name(), dec)
		}
	}
	en := s.newEntry(class, job)
	if s.cfg.Tracer != nil {
		en.span = s.cfg.Tracer.JobSubmitted(s.sim.Now(), job.Name, class)
		if s.cfg.Admission != nil {
			s.cfg.Tracer.JobAdmitted(s.sim.Now(), en.span, s.cfg.Admission.Name())
		}
	}
	s.buffers[class].PushBack(en)
	if s.obs != nil {
		s.obs.JobQueued(class)
	}
	if s.current == nil {
		s.dispatchNext()
		return admission.Accept, nil
	}
	if s.cfg.Preemptive && class > s.current.class {
		s.evictCurrent()
		s.dispatchNext()
	}
	return admission.Accept, nil
}

// Reject sheds a class-k job at the current virtual time: it counts the
// rejection and emits a rejection record (Rejected true, zero latencies)
// through the same record stream completions use, so every submitted job
// yields exactly one record. The federation dispatcher calls this when a
// deferred arrival finds no member willing to take it.
func (s *Scheduler) Reject(class int, job *engine.Job) {
	if class >= 0 && class < s.cfg.Classes {
		s.rejected++
	}
	if s.cfg.Tracer != nil {
		name, policy := "", ""
		if job != nil {
			name = job.Name
		}
		if s.cfg.Admission != nil {
			policy = s.cfg.Admission.Name()
		}
		s.cfg.Tracer.JobRejected(s.sim.Now(), name, class, policy)
	}
	now := s.sim.Now()
	rec := JobRecord{
		Class:      class,
		ArrivedAt:  now,
		FinishedAt: now,
		Rejected:   true,
	}
	if job != nil {
		rec.Name = job.Name
	}
	if s.cfg.OnRecord != nil {
		s.cfg.OnRecord(rec)
	}
	if !s.cfg.DiscardRecords {
		s.records = append(s.records, rec)
	}
}

// evictCurrent kills the running job and returns it to the head of its
// buffer for re-execution from scratch (§3.2 baseline behaviour).
func (s *Scheduler) evictCurrent() {
	victim := s.current
	s.current = nil
	if _, err := s.eng.Kill(victim.engineID); err != nil {
		// The completion callback may already be queued for this instant;
		// treat as completed and let the callback handle it.
		s.current = victim
		return
	}
	victim.evictions++
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.JobEvicted(s.sim.Now(), victim.span)
	}
	s.buffers[victim.class].PushFront(victim)
	if s.obs != nil {
		s.obs.BusyChanged(false)
		s.obs.JobQueued(victim.class)
	}
}

// newEntry takes an entry off the freelist (or allocates one with its
// completion closure bound) and initializes it for one arriving job.
func (s *Scheduler) newEntry(class int, job *engine.Job) *entry {
	var en *entry
	if n := len(s.entryFree); n > 0 {
		en = s.entryFree[n-1]
		s.entryFree[n-1] = nil
		s.entryFree = s.entryFree[:n-1]
	} else {
		en = &entry{}
		en.completeFn = func(res engine.JobResult) { s.onComplete(en, res) }
	}
	en.class, en.job, en.arrivedAt = class, job, s.sim.Now()
	en.dispatchedAt, en.evictions, en.engineID, en.span = 0, 0, 0, 0
	return en
}

// freeEntry returns a completed entry to the freelist. Callers must have
// dropped every reference to it first.
func (s *Scheduler) freeEntry(en *entry) {
	en.job = nil
	s.entryFree = append(s.entryFree, en)
}

// dispatchNext sends the head of the highest non-empty buffer to the
// engine with its class's approximation levels, and arms the sprinter.
func (s *Scheduler) dispatchNext() {
	if s.current != nil {
		return
	}
	var next *entry
	for k := s.cfg.Classes - 1; k >= 0; k-- {
		if s.buffers[k].Len() > 0 {
			next = s.buffers[k].PopFront()
			break
		}
	}
	if next == nil {
		return
	}
	if s.obs != nil {
		s.obs.JobDequeued(next.class)
	}
	next.dispatchedAt = s.sim.Now()
	var drops []float64
	switch {
	case s.cfg.Deflator != nil:
		drops = s.cfg.Deflator.DropRatios(next.class)
	case s.cfg.DropRatios != nil:
		drops = s.cfg.DropRatios[next.class]
	}
	id, err := s.eng.Submit(next.job, engine.SubmitOptions{
		DropRatios:    drops,
		OnComplete:    next.completeFn,
		Span:          next.span,
		DiscardOutput: !s.cfg.KeepOutputs,
	})
	if err != nil {
		// Invalid job: report it failed rather than wedging the queue or
		// losing it (every submitted job produces exactly one record).
		s.onComplete(next, engine.JobResult{Failed: true, FailureReason: err.Error()})
		return
	}
	next.engineID = id
	s.current = next
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.JobDispatched(s.sim.Now(), next.span)
	}
	if s.obs != nil {
		s.obs.BusyChanged(true)
	}
	s.armSprinter(next)
}

func (s *Scheduler) onComplete(en *entry, res engine.JobResult) {
	if s.current == en {
		s.current = nil
		if s.obs != nil {
			s.obs.BusyChanged(false)
		}
	}
	s.stopSprint()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.JobCompleted(s.sim.Now(), en.span, res.Failed, res.FailureReason)
	}
	now := s.sim.Now()
	rec := JobRecord{
		Class:              en.class,
		Name:               en.job.Name,
		ArrivedAt:          en.arrivedAt,
		FinishedAt:         now,
		ResponseSec:        now.Sub(en.arrivedAt).Seconds(),
		ExecSec:            now.Sub(en.dispatchedAt).Seconds(),
		Evictions:          en.evictions,
		SlotSeconds:        res.SlotSeconds,
		EffectiveDropRatio: res.EffectiveDropRatio,
		Retries:            res.TaskRetries,
		Failed:             res.Failed,
	}
	rec.QueueSec = rec.ResponseSec - rec.ExecSec
	if s.cfg.KeepOutputs {
		rec.Output = res.Output
	}
	if s.cfg.OnRecord != nil {
		s.cfg.OnRecord(rec)
	}
	if !s.cfg.DiscardRecords {
		s.records = append(s.records, rec)
	}
	if s.cfg.Deflator != nil {
		s.cfg.Deflator.Observe(rec)
	}
	if s.admLearner != nil && !rec.Failed {
		s.admLearner.Observe(rec.Class, rec.ExecSec, rec.ResponseSec)
	}
	s.freeEntry(en)
	s.dispatchNext()
}

// --- Sprinter -------------------------------------------------------------

// armSprinter schedules the sprint start for a newly dispatched job.
func (s *Scheduler) armSprinter(en *entry) {
	if s.cfg.Sprint == nil {
		return
	}
	timeout := s.cfg.Sprint.TimeoutSec[en.class]
	if timeout < 0 {
		return
	}
	if en.sprintFn == nil {
		en.sprintFn = func() { s.startSprint(en) }
	}
	s.sprintTimer.Reset(simtime.Duration(timeout), en.sprintFn)
}

// updateBudget accrues replenishment (idle) or drain (sprinting) up to now.
func (s *Scheduler) updateBudget() {
	if s.cfg.Sprint == nil || math.IsInf(s.budgetCap, 1) {
		return
	}
	now := s.sim.Now()
	dt := now.Sub(s.budgetAt).Seconds()
	if dt > 0 {
		if s.sprinting {
			s.budget -= dt * s.cfg.Sprint.DrainWatts
			if s.budget < 0 {
				s.budget = 0
			}
		} else {
			s.budget += dt * s.cfg.Sprint.ReplenishWatts
			if s.budget > s.budgetCap {
				s.budget = s.budgetCap
			}
		}
	}
	s.budgetAt = now
}

func (s *Scheduler) startSprint(en *entry) {
	if s.current != en || s.sprinting {
		return
	}
	s.updateBudget()
	if s.budget <= 0 {
		return
	}
	s.sprinting = true
	s.clu.SetSprinting(true)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.SprintChanged(s.sim.Now(), true, "")
	}
	if !math.IsInf(s.budgetCap, 1) {
		ttl := s.budget / s.cfg.Sprint.DrainWatts
		if s.depletedFn == nil {
			s.depletedFn = s.onBudgetDepleted
		}
		s.depleteTimer.Reset(simtime.Duration(ttl), s.depletedFn)
	}
}

func (s *Scheduler) onBudgetDepleted() {
	if !s.sprinting {
		return
	}
	s.updateBudget()
	s.sprinting = false
	s.clu.SetSprinting(false)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.SprintChanged(s.sim.Now(), false, "budget-depleted")
	}
}

// stopSprint ends sprinting when the sprinted job leaves the engine and
// cancels any pending sprint start.
func (s *Scheduler) stopSprint() {
	if s.cfg.Sprint == nil {
		return
	}
	s.sprintTimer.Stop()
	s.depleteTimer.Stop()
	if s.sprinting {
		s.updateBudget()
		s.sprinting = false
		s.clu.SetSprinting(false)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.SprintChanged(s.sim.Now(), false, "job-left-engine")
		}
	}
}

// --- Introspection ---------------------------------------------------------

// Records returns the completed-job records so far (empty when the
// scheduler was configured with DiscardRecords). The slice is shared;
// callers must not mutate it.
func (s *Scheduler) Records() []JobRecord { return s.records }

// QueuedJobs returns the number of buffered (not yet dispatched) jobs.
func (s *Scheduler) QueuedJobs() int {
	var n int
	for k := range s.buffers {
		n += s.buffers[k].Len()
	}
	return n
}

// QueuedJobsInClass returns the number of buffered (not yet dispatched)
// class-k jobs; out-of-range classes report zero. Federation routing
// policies read this to compare per-class backlogs across clusters.
func (s *Scheduler) QueuedJobsInClass(class int) int {
	if class < 0 || class >= len(s.buffers) {
		return 0
	}
	return s.buffers[class].Len()
}

// Backlog returns the number of jobs that would precede a new class-k
// arrival: buffered jobs of class >= k (higher classes dispatch first,
// equal classes are FIFO ahead of it) plus the running job. This is the
// admission.State view policies read at decision time, matching the
// federation Member.Backlog semantics.
func (s *Scheduler) Backlog(class int) int {
	if class < 0 {
		class = 0
	}
	var n int
	for k := class; k < len(s.buffers); k++ {
		n += s.buffers[k].Len()
	}
	if s.current != nil {
		n++
	}
	return n
}

// RejectedJobs returns the number of admission-shed jobs so far.
func (s *Scheduler) RejectedJobs() int { return s.rejected }

// Busy reports whether a job is currently in the engine.
func (s *Scheduler) Busy() bool { return s.current != nil }

// SprintBudgetJoules returns the remaining sprint budget (cap when
// sprinting is disabled or unlimited).
func (s *Scheduler) SprintBudgetJoules() float64 {
	if s.cfg.Sprint == nil {
		return 0
	}
	s.updateBudget()
	return s.budget
}
