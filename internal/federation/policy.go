package federation

import (
	"math/rand"

	"dias/internal/engine"
)

// Arrival is one job arrival as the routing policy sees it.
type Arrival struct {
	// Class is the job's priority class.
	Class int
	// Job is the arriving job template.
	Job *engine.Job
	// Home is the member holding the job's input data (RegisterInput), or
	// -1 when unknown — routing off Home pays WAN input fetches when the
	// federation has a data model.
	Home int
}

// RoutingPolicy picks the destination member for each arrival. Route is
// invoked in simulation context at the arrival instant; implementations
// may inspect member state (backlogs, busy slots, sprint budgets, power
// state) but must not mutate it, and must return an index in
// [0, len(members)). Implementations are free to keep internal state
// (cursors, RNGs); a policy instance must not be shared across concurrent
// federations. Route must not allocate: it sits on the dispatch hot path
// of every arrival (TestLoadIndexMatchesRecompute asserts it for the
// shipped policies).
//
// The stateful policies scan the candidate slice they are handed — the
// full member set, or the available members during an outage — reading
// class backlogs from the federation's LoadIndex and everything else
// from the member's cluster and scheduler. Ties break toward the lower
// position in the slice.
type RoutingPolicy interface {
	// Name labels the policy in experiment results.
	Name() string
	Route(arr Arrival, members []*Member) int
}

// --- Random ----------------------------------------------------------------

type randomPolicy struct{ rng *rand.Rand }

// NewRandom routes every arrival to a uniformly random member. The seed
// makes runs reproducible; use a fresh instance per federation.
func NewRandom(seed int64) RoutingPolicy {
	return &randomPolicy{rng: rand.New(rand.NewSource(seed))}
}

func (p *randomPolicy) Name() string { return "Random" }

func (p *randomPolicy) Route(_ Arrival, members []*Member) int {
	return p.rng.Intn(len(members))
}

// --- RoundRobin ------------------------------------------------------------

type roundRobinPolicy struct{ next int }

// NewRoundRobin cycles arrivals across members in index order.
func NewRoundRobin() RoutingPolicy { return &roundRobinPolicy{} }

func (p *roundRobinPolicy) Name() string { return "RoundRobin" }

func (p *roundRobinPolicy) Route(_ Arrival, members []*Member) int {
	i := p.next % len(members)
	p.next = i + 1
	return i
}

// --- JoinShortestQueue -----------------------------------------------------

type jsqPolicy struct{}

// NewJoinShortestQueue routes to the member with the smallest backlog for
// the arrival's class (queued jobs at or above its priority, plus the
// running job). Ties break toward fewer busy slots, then lower index.
func NewJoinShortestQueue() RoutingPolicy { return jsqPolicy{} }

func (jsqPolicy) Name() string { return "JSQ" }

func (jsqPolicy) Route(arr Arrival, members []*Member) int {
	best, bestBacklog, bestBusy := 0, -1, 0
	for i, m := range members {
		backlog := m.Backlog(arr.Class)
		busy := m.Cluster.BusySlots()
		if bestBacklog < 0 || backlog < bestBacklog ||
			(backlog == bestBacklog && busy < bestBusy) {
			best, bestBacklog, bestBusy = i, backlog, busy
		}
	}
	return best
}

// --- LeastLoaded -----------------------------------------------------------

type leastLoadedPolicy struct{}

// NewLeastLoaded routes to the member with the smallest busy-slot share
// (busy slots over total slots, so big and small clusters compare fairly
// in heterogeneous federations). Ties break toward the shorter total
// queue, then lower index.
func NewLeastLoaded() RoutingPolicy { return leastLoadedPolicy{} }

func (leastLoadedPolicy) Name() string { return "LeastLoaded" }

func (leastLoadedPolicy) Route(_ Arrival, members []*Member) int {
	best, bestUtil, bestQueue := 0, 2.0, 0
	for i, m := range members {
		util := m.Utilization()
		queue := m.TotalQueued()
		if util < bestUtil || (util == bestUtil && queue < bestQueue) {
			best, bestUtil, bestQueue = i, util, queue
		}
	}
	return best
}

// --- SprintAware -----------------------------------------------------------

type sprintAwarePolicy struct{}

// NewSprintAware prefers members with the most remaining sprint energy
// budget, reading the per-member sprinter and cluster power state: a
// member currently sprinting is draining its budget, so among equal
// budgets non-sprinting members win; remaining ties break toward the
// smaller class backlog, then lower index. Without sprint policies every
// budget reads zero and the policy degrades to shortest-backlog routing.
func NewSprintAware() RoutingPolicy { return sprintAwarePolicy{} }

func (sprintAwarePolicy) Name() string { return "SprintAware" }

func (sprintAwarePolicy) Route(arr Arrival, members []*Member) int {
	best := 0
	bestBudget, bestSprinting, bestBacklog := -1.0, true, 0
	for i, m := range members {
		budget := m.Scheduler.SprintBudgetJoules()
		sprinting := m.Cluster.Sprinting()
		backlog := m.Backlog(arr.Class)
		better := budget > bestBudget ||
			(budget == bestBudget && !sprinting && bestSprinting) ||
			(budget == bestBudget && sprinting == bestSprinting && backlog < bestBacklog)
		if bestBudget < 0 || better {
			best, bestBudget, bestSprinting, bestBacklog = i, budget, sprinting, backlog
		}
	}
	return best
}

// --- DataLocal -------------------------------------------------------------

type dataLocalPolicy struct {
	spill int
	jsq   jsqPolicy
}

// NewDataLocal routes each arrival to its data-home member (no WAN input
// fetches), spilling to JoinShortestQueue only when the home backlog
// exceeds the federation's minimum by at least spill jobs — the classic
// locality/load tradeoff. spill <= 0 pins jobs to their home
// unconditionally; arrivals without a registered home always fall back to
// JSQ.
func NewDataLocal(spill int) RoutingPolicy { return &dataLocalPolicy{spill: spill} }

func (p *dataLocalPolicy) Name() string { return "DataLocal" }

func (p *dataLocalPolicy) Route(arr Arrival, members []*Member) int {
	if arr.Home < 0 || arr.Home >= len(members) {
		return p.jsq.Route(arr, members)
	}
	if p.spill <= 0 {
		return arr.Home
	}
	alt := p.jsq.Route(arr, members)
	if members[arr.Home].Backlog(arr.Class) >= members[alt].Backlog(arr.Class)+p.spill {
		return alt
	}
	return arr.Home
}
