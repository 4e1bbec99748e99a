// Package admission implements overload control for DiAS: a pluggable
// policy consulted before every arrival is buffered, deciding whether the
// job is accepted, rejected outright, or deferred to another cluster.
//
// The paper's evaluation never pushes a deployment past saturation — every
// scenario accepts every job — so nothing in the reproduction says what
// happens when offered load exceeds capacity. Without admission control the
// backlog grows without bound and every class's latency diverges; with it,
// the middleware sheds load deliberately and the metrics must say so: a
// policy can "win" on latency purely by rejecting most of the traffic, so
// goodput and rejection fractions are first-class outputs next to the
// latency columns (see metrics.FormatOverloadTable and the overload
// experiment driver).
//
// Policies are deliberately an interface rather than a baked-in heuristic,
// the same policy-free-middleware stance as federation.RoutingPolicy and
// core.ScalePolicy: TokenBucket (per-class rate + burst), QueueDepth
// (per-class backlog threshold), SLOBudget (predicted wait against a
// per-class latency budget, learned from streaming quantiles) and
// AlwaysAdmit ship here, and the dias facade registers them all in its
// named-policy registry (dias.AdmissionPolicies).
package admission

import (
	"errors"
	"fmt"

	"dias/internal/simtime"
	"dias/internal/stats"
)

// Decision is an admission verdict.
type Decision uint8

const (
	// Accept buffers the job normally.
	Accept Decision = iota
	// Reject sheds the job: it never enters a buffer, and the scheduler
	// emits a rejection record so shed work stays visible in the metrics.
	Reject
	// Defer declines the job here but asks the caller to try elsewhere:
	// the federation dispatcher re-routes a deferred arrival to another
	// member (spill), rejecting only when every member defers. On a
	// single-cluster stack there is nowhere else, so Defer degrades to
	// Reject.
	Defer
)

// String returns the decision's display name.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	case Defer:
		return "defer"
	}
	return fmt.Sprintf("decision(%d)", uint8(d))
}

// JobInfo is the arriving job as the policy sees it.
type JobInfo struct {
	// Name labels the job in diagnostics.
	Name string
	// Class is the job's priority class.
	Class int
	// SizeBytes is the job's logical input size (0 when unknown).
	SizeBytes int64
}

// State is the scheduler-side view a policy reads at decision time.
// Implementations must not be mutated through it.
type State interface {
	// Backlog returns the number of jobs that would precede a new class-k
	// arrival: buffered jobs of class >= k plus the running job.
	Backlog(class int) int
	// QueuedJobsInClass returns the buffered (not dispatched) jobs of one
	// class.
	QueuedJobsInClass(class int) int
	// Busy reports a job currently in the engine.
	Busy() bool
}

// Policy decides the fate of each arrival. Admit runs in simulation
// context on the arrival hot path; implementations may keep internal state
// (token levels, learned quantiles) but must not allocate per call, must
// not call back into the scheduler, and must not be shared across
// concurrent stacks.
type Policy interface {
	// Name labels the policy in experiment results.
	Name() string
	// Admit decides the fate of one class-`job.Class` arrival at virtual
	// time now, reading the scheduler state st.
	Admit(now simtime.Time, job JobInfo, st State) Decision
}

// Learner is the optional feedback extension: the scheduler feeds every
// completion (not rejections, not failures) to a policy that implements
// it, so the policy can learn service-time distributions online. Observe
// runs in simulation context and must not allocate.
type Learner interface {
	Observe(class int, execSec, responseSec float64)
}

// --- AlwaysAdmit -----------------------------------------------------------

// AlwaysAdmit accepts everything — the no-overload-control baseline. A
// scheduler with a nil admission policy behaves identically without the
// indirection.
type AlwaysAdmit struct{}

// Name implements Policy.
func (AlwaysAdmit) Name() string { return "always" }

// Admit implements Policy.
func (AlwaysAdmit) Admit(simtime.Time, JobInfo, State) Decision { return Accept }

// --- TokenBucket -----------------------------------------------------------

// TokenBucketConfig parameterizes NewTokenBucket.
type TokenBucketConfig struct {
	// Rate[k] is class k's sustained admission rate in jobs per second.
	Rate []float64
	// Burst[k] caps class k's token balance — the largest burst admitted
	// at once. Must be >= 1 (an arrival spends one token).
	Burst []float64
	// Spill makes the bucket emit Defer instead of Reject when a class is
	// out of tokens, so a federation re-routes the overflow instead of
	// shedding it.
	Spill bool
}

// TokenBucket admits each class at a sustained rate with a bounded burst:
// class k's bucket refills continuously at Rate[k] tokens/sec up to
// Burst[k], and each admitted arrival spends one token. Arrivals finding
// an empty bucket are rejected (or deferred under Spill). This is the
// classic rate limiter: it cannot tell a transient burst from sustained
// overload, so at high offered load it holds latency by shedding a large
// fraction of traffic — exactly the mechanism the overload metrics must
// separate from genuine burst smoothing.
type TokenBucket struct {
	cfg    TokenBucketConfig
	tokens []float64
	last   simtime.Time
	miss   Decision
}

// NewTokenBucket builds a token-bucket policy with full buckets.
func NewTokenBucket(cfg TokenBucketConfig) (*TokenBucket, error) {
	if len(cfg.Rate) == 0 || len(cfg.Rate) != len(cfg.Burst) {
		return nil, fmt.Errorf("admission: %d rates vs %d bursts", len(cfg.Rate), len(cfg.Burst))
	}
	for k := range cfg.Rate {
		if cfg.Rate[k] <= 0 {
			return nil, fmt.Errorf("admission: class %d rate %g", k, cfg.Rate[k])
		}
		if cfg.Burst[k] < 1 {
			return nil, fmt.Errorf("admission: class %d burst %g < 1", k, cfg.Burst[k])
		}
	}
	tb := &TokenBucket{cfg: cfg, tokens: make([]float64, len(cfg.Rate)), miss: Reject}
	copy(tb.tokens, cfg.Burst)
	if cfg.Spill {
		tb.miss = Defer
	}
	return tb, nil
}

// Name implements Policy.
func (tb *TokenBucket) Name() string { return "token-bucket" }

// Admit implements Policy.
func (tb *TokenBucket) Admit(now simtime.Time, job JobInfo, _ State) Decision {
	k := job.Class
	if k < 0 || k >= len(tb.tokens) {
		return tb.miss
	}
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		for c := range tb.tokens {
			tb.tokens[c] += dt * tb.cfg.Rate[c]
			if tb.tokens[c] > tb.cfg.Burst[c] {
				tb.tokens[c] = tb.cfg.Burst[c]
			}
		}
	}
	tb.last = now
	if tb.tokens[k] < 1 {
		return tb.miss
	}
	tb.tokens[k]--
	return Accept
}

// --- QueueDepth ------------------------------------------------------------

// QueueDepthConfig parameterizes NewQueueDepth.
type QueueDepthConfig struct {
	// MaxBacklog[k] is the largest backlog (jobs preceding the arrival,
	// running job included — see State.Backlog) a class-k arrival is
	// admitted into; an arrival finding MaxBacklog[k] or more is shed.
	MaxBacklog []int
	// Spill emits Defer instead of Reject, for federation re-routing.
	Spill bool
}

// QueueDepth sheds arrivals that would join a backlog past a per-class
// threshold — the load-shedding analogue of bounded queues. Unlike
// TokenBucket it reads actual scheduler state, so it admits any burst the
// queue can absorb and only sheds when work is genuinely piling up; its
// weakness is the inverse, a queue of slow jobs under-counts the wait.
type QueueDepth struct {
	cfg  QueueDepthConfig
	miss Decision
}

// NewQueueDepth builds a backlog-threshold policy.
func NewQueueDepth(cfg QueueDepthConfig) (*QueueDepth, error) {
	if len(cfg.MaxBacklog) == 0 {
		return nil, errors.New("admission: no backlog thresholds")
	}
	for k, d := range cfg.MaxBacklog {
		if d < 1 {
			return nil, fmt.Errorf("admission: class %d max backlog %d < 1", k, d)
		}
	}
	qd := &QueueDepth{cfg: cfg, miss: Reject}
	if cfg.Spill {
		qd.miss = Defer
	}
	return qd, nil
}

// Name implements Policy.
func (qd *QueueDepth) Name() string { return "queue-depth" }

// Admit implements Policy.
func (qd *QueueDepth) Admit(_ simtime.Time, job JobInfo, st State) Decision {
	k := job.Class
	if k < 0 || k >= len(qd.cfg.MaxBacklog) {
		return qd.miss
	}
	if st.Backlog(k) >= qd.cfg.MaxBacklog[k] {
		return qd.miss
	}
	return Accept
}

// --- SLOBudget -------------------------------------------------------------

// SLOBudgetConfig parameterizes NewSLOBudget.
type SLOBudgetConfig struct {
	// BudgetSec[k] is class k's wait budget: an arrival whose predicted
	// queueing delay exceeds it is shed. A zero entry admits the class
	// unconditionally (no SLO).
	BudgetSec []float64
	// Quantile is the service-time quantile the wait prediction multiplies
	// by the backlog, in (0,1); zero means 0.95. Higher quantiles predict
	// more conservatively (more shedding, tighter tails).
	Quantile float64
	// MinObservations gates the predictor: arrivals are admitted
	// unconditionally until this many completions have been observed
	// (zero means 8), so an empty system never sheds on a cold estimate.
	MinObservations int
	// Spill emits Defer instead of Reject, for federation re-routing.
	Spill bool
}

// SLOBudget sheds arrivals predicted to miss a per-class latency budget:
// it learns the service-time distribution online from completions
// (streaming log-scale histogram, zero per-job allocation) and predicts a
// new arrival's wait as backlog x the configured service-time quantile.
// Against TokenBucket and QueueDepth this is the SLO-native policy — it
// sheds exactly the arrivals whose wait budget is already spent by the
// work in front of them, so low-budget classes degrade first and
// well-provisioned classes keep their tails.
type SLOBudget struct {
	cfg  SLOBudgetConfig
	hist *stats.LogHistogram
	miss Decision
}

// NewSLOBudget builds an SLO-budget policy with an untrained predictor.
func NewSLOBudget(cfg SLOBudgetConfig) (*SLOBudget, error) {
	if len(cfg.BudgetSec) == 0 {
		return nil, errors.New("admission: no SLO budgets")
	}
	for k, b := range cfg.BudgetSec {
		if b < 0 {
			return nil, fmt.Errorf("admission: class %d budget %g negative", k, b)
		}
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.95
	}
	if cfg.Quantile <= 0 || cfg.Quantile >= 1 {
		return nil, fmt.Errorf("admission: SLO quantile %g out of (0,1)", cfg.Quantile)
	}
	if cfg.MinObservations == 0 {
		cfg.MinObservations = 8
	}
	if cfg.MinObservations < 0 {
		return nil, fmt.Errorf("admission: min observations %d", cfg.MinObservations)
	}
	// Service times from milliseconds to ~11 days at <4.4% resolution:
	// comfortably past anything a simulated job takes.
	hist, err := stats.NewLogHistogram(1e-3, 1e6, 480)
	if err != nil {
		return nil, err
	}
	s := &SLOBudget{cfg: cfg, hist: hist, miss: Reject}
	if cfg.Spill {
		s.miss = Defer
	}
	return s, nil
}

// Name implements Policy.
func (s *SLOBudget) Name() string { return "slo-budget" }

// Admit implements Policy.
func (s *SLOBudget) Admit(_ simtime.Time, job JobInfo, st State) Decision {
	k := job.Class
	if k < 0 || k >= len(s.cfg.BudgetSec) {
		return s.miss
	}
	budget := s.cfg.BudgetSec[k]
	if budget == 0 || s.hist.Count() < int64(s.cfg.MinObservations) {
		return Accept
	}
	predicted := float64(st.Backlog(k)) * s.hist.Quantile(s.cfg.Quantile)
	if predicted > budget {
		return s.miss
	}
	return Accept
}

// Observe implements Learner: every completed job's execution time trains
// the service-time quantile the wait prediction uses.
func (s *SLOBudget) Observe(_ int, execSec, _ float64) {
	s.hist.Add(execSec)
}
