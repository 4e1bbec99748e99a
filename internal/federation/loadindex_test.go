package federation

import (
	"fmt"
	"math/rand"
	"testing"

	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/simtime"
)

// indexJob builds a small two-stage job template for index tests.
func indexJob(partitions int) *engine.Job {
	input := make(engine.Dataset, partitions)
	for p := range input {
		input[p] = engine.Partition{{Key: fmt.Sprintf("k%d", p), Value: 1.0}}
	}
	return &engine.Job{
		Name:      "index-probe",
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 4},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
}

// verifyIndexAgainstRecompute compares every index field against a
// brute-force recomputation from the scheduler getters the index stands
// in for.
func verifyIndexAgainstRecompute(t *testing.T, f *Federation, at simtime.Time) {
	t.Helper()
	li := f.Index()
	classes := li.Classes()
	down := 0
	for i, m := range f.Members() {
		busy := 0
		if m.Scheduler.Busy() {
			busy = 1
		}
		if got, want := li.Busy(i), m.Scheduler.Busy(); got != want {
			t.Fatalf("t=%v member %d: index busy %v, scheduler %v", at, i, got, want)
		}
		if got, want := li.TotalQueued(i), m.Scheduler.QueuedJobs()+busy; got != want {
			t.Fatalf("t=%v member %d: index total queued %d, recomputed %d", at, i, got, want)
		}
		if got, want := li.Available(i), m.Available(); got != want {
			t.Fatalf("t=%v member %d: index available %v, member %v", at, i, got, want)
		}
		if !m.Available() {
			down++
		}
		for c := 0; c < classes; c++ {
			if got, want := li.QueuedInClass(i, c), m.Scheduler.QueuedJobsInClass(c); got != want {
				t.Fatalf("t=%v member %d class %d: index queued %d, scheduler %d", at, i, c, got, want)
			}
			backlog := busy
			for k := classes - 1; k >= c; k-- {
				backlog += m.Scheduler.QueuedJobsInClass(k)
			}
			if got := li.Backlog(i, c); got != backlog {
				t.Fatalf("t=%v member %d class %d: index backlog %d, recomputed %d", at, i, c, got, backlog)
			}
		}
	}
	if got := li.DownMembers(); got != down {
		t.Fatalf("t=%v: index counts %d members down, %d are", at, got, down)
	}
}

// oracleSpill is the DataLocal spill threshold the routing oracle checks.
const oracleSpill = 2

// oraclePolicies builds one instance of every stateful policy.
func oraclePolicies() []RoutingPolicy {
	return []RoutingPolicy{
		NewJoinShortestQueue(), NewLeastLoaded(), NewSprintAware(), NewDataLocal(oracleSpill),
	}
}

// oracleRoute is the routing oracle: each stateful policy's documented
// argmin written from Scheduler and Cluster state alone — no LoadIndex,
// no Member getter — as an ordering key per candidate, smallest key
// wins, ties to the lowest position in the slice.
func oracleRoute(policy string, arr Arrival, members []*Member, classes int) int {
	backlog := func(m *Member) float64 {
		n := 0
		if m.Scheduler.Busy() {
			n = 1
		}
		for k := max(arr.Class, 0); k < classes; k++ {
			n += m.Scheduler.QueuedJobsInClass(k)
		}
		return float64(n)
	}
	argmin := func(key func(m *Member) [3]float64) int {
		best, bestKey := 0, key(members[0])
		for i, m := range members[1:] {
			k := key(m)
			for j := range k {
				if k[j] != bestKey[j] {
					if k[j] < bestKey[j] {
						best, bestKey = i+1, k
					}
					break
				}
			}
		}
		return best
	}
	jsq := func() int {
		return argmin(func(m *Member) [3]float64 {
			return [3]float64{backlog(m), float64(m.Cluster.BusySlots())}
		})
	}
	switch policy {
	case "JSQ":
		return jsq()
	case "LeastLoaded":
		return argmin(func(m *Member) [3]float64 {
			queued := m.Scheduler.QueuedJobs()
			if m.Scheduler.Busy() {
				queued++
			}
			return [3]float64{
				float64(m.Cluster.BusySlots()) / float64(m.Cluster.Slots()),
				float64(queued),
			}
		})
	case "SprintAware":
		return argmin(func(m *Member) [3]float64 {
			sprinting := 0.0
			if m.Cluster.Sprinting() {
				sprinting = 1
			}
			return [3]float64{-m.Scheduler.SprintBudgetJoules(), sprinting, backlog(m)}
		})
	case "DataLocal":
		if arr.Home < 0 || arr.Home >= len(members) {
			return jsq()
		}
		if alt := jsq(); backlog(members[arr.Home]) >= backlog(members[alt])+oracleSpill {
			return alt
		}
		return arr.Home
	}
	panic("no oracle for " + policy)
}

// verifyRoutingAgainstOracle checks every stateful policy against the
// oracle on each candidate view a Route call can be handed: the full
// member slice, the outage-filtered slice the dispatcher builds, and a
// caller-reordered slice. Classes run one past the configured range, and
// DataLocal sees every home position plus "no home".
func verifyRoutingAgainstOracle(t *testing.T, f *Federation, at simtime.Time) {
	t.Helper()
	full := f.Members()
	var reversed, avail []*Member
	for i := len(full) - 1; i >= 0; i-- {
		reversed = append(reversed, full[i])
	}
	for _, m := range full {
		if m.Available() {
			avail = append(avail, m)
		}
	}
	type namedView struct {
		name    string
		members []*Member
	}
	views := []namedView{{"full", full}, {"reversed", reversed}}
	if len(avail) > 0 && len(avail) < len(full) {
		views = append(views, namedView{"available", avail})
	}
	classes := f.Index().Classes()
	for _, v := range views {
		name, view := v.name, v.members
		for _, p := range oraclePolicies() {
			for class := 0; class <= classes; class++ {
				for home := -1; home < len(view); home++ {
					if home >= 0 && p.Name() != "DataLocal" {
						break // only DataLocal reads Home
					}
					arr := Arrival{Class: class, Home: home}
					if got, want := p.Route(arr, view), oracleRoute(p.Name(), arr, view, classes); got != want {
						t.Fatalf("t=%v %s on the %s view, class %d home %d: routed to position %d (member %d), oracle says %d (member %d)",
							at, p.Name(), name, class, home, got, view[got].Index, want, view[want].Index)
					}
				}
			}
		}
	}
}

// verifyRoutingDoesNotAllocate is the hard form of Route's no-allocation
// contract, for every shipped policy on the current state: on the full
// slice and on a shorter one of the kind an outage produces.
func verifyRoutingDoesNotAllocate(t *testing.T, f *Federation) {
	t.Helper()
	full := f.Members()
	arr := Arrival{Class: 1, Home: 1}
	for _, p := range append(oraclePolicies(), NewRandom(1), NewRoundRobin()) {
		for _, view := range [][]*Member{full, full[1:]} {
			if a := testing.AllocsPerRun(100, func() { p.Route(arr, view) }); a != 0 {
				t.Fatalf("%s makes %.0f allocations per route over %d candidates", p.Name(), a, len(view))
			}
		}
	}
}

// TestLoadIndexMatchesRecompute drives randomized arrive/dispatch/
// complete/sprint/outage/commission sequences through a federation and
// asserts — right after every injected transition, and at random
// checkpoints in between — that the incrementally maintained index
// equals a brute-force recomputation from scratch and that every
// stateful policy routes exactly where the oracle does. Mid-run it also
// takes the whole federation down for an instant (the view where the
// dispatcher hands policies the full slice of unavailable members) and
// asserts that no policy allocates.
func TestLoadIndexMatchesRecompute(t *testing.T) {
	seeds := []int64{1, 7, 23, 40, 77}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, withSprint := range []bool{true, false} {
			seed, withSprint := seed, withSprint
			t.Run(fmt.Sprintf("seed%d/sprint=%v", seed, withSprint), func(t *testing.T) {
				const classes = 3
				sprint := core.SprintPolicy{
					TimeoutSec:     []float64{4, 2, 0},
					BudgetJoules:   30_000,
					DrainWatts:     900,
					ReplenishWatts: 300,
				}
				policy := core.PolicyDA([]float64{0, 0.1, 0.2})
				if withSprint {
					policy = core.PolicyDiAS([]float64{0, 0.1, 0.2}, sprint)
				}
				members := []MemberSpec{
					{}, // default testbed
					{Cluster: cluster.Config{Nodes: 4, CoresPerNode: 2, BaseFreqMHz: 800,
						SprintFreqMHz: 2400, SprintSpeedup: 2.5, IdleWatts: 60, BusyWatts: 180, SprintWatts: 270}},
					{Cluster: cluster.Config{Nodes: 6, CoresPerNode: 3, BaseFreqMHz: 800,
						SprintFreqMHz: 2400, SprintSpeedup: 2.0, IdleWatts: 60, BusyWatts: 180, SprintWatts: 270}},
					{},
				}
				f, err := New(Config{
					Members: members,
					Policy:  policy,
					Routing: NewJoinShortestQueue(),
					Seed:    seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				job := indexJob(6)
				verify := func() {
					verifyIndexAgainstRecompute(t, f, f.Sim().Now())
					verifyRoutingAgainstOracle(t, f, f.Sim().Now())
				}
				// Same-instant events fire in scheduling order, so a check
				// scheduled right after a transition observes its effect.
				checkAt := func(at float64) { f.Sim().At(simtime.Time(at), verify) }
				const horizon = 400.0
				jobs := 60
				if testing.Short() {
					jobs = 30
				}
				for j := 0; j < jobs; j++ {
					at := rng.Float64() * horizon
					f.SubmitAt(at, rng.Intn(classes), job)
					checkAt(at)
				}
				// Cluster-level outages: up to two non-overlapping windows per
				// member on a random subset.
				for i := range members {
					if rng.Intn(2) == 0 {
						continue
					}
					start := rng.Float64() * horizon / 2
					dur := 10 + rng.Float64()*40
					windows := [][2]float64{{start, dur}}
					if rng.Intn(2) == 0 {
						windows = append(windows, [2]float64{start + dur + 5 + rng.Float64()*20, 5 + rng.Float64()*20})
					}
					for _, w := range windows {
						if err := f.ScheduleOutage(i, w[0], w[1]); err != nil {
							t.Fatal(err)
						}
						checkAt(w[0])
						checkAt(w[0] + w[1])
					}
				}
				// Elastic churn: alternate decommission/commission of each
				// member's highest node at increasing times.
				for _, m := range f.Members() {
					node := m.Cluster.Config().Nodes - 1
					at := rng.Float64() * horizon / 2
					down := true
					for hops := rng.Intn(4); hops > 0; hops-- {
						at += 5 + rng.Float64()*40
						m, d := m, down
						f.Sim().At(simtime.Time(at), func() {
							var err error
							if d {
								err = m.Engine.DecommissionNode(node)
							} else {
								err = m.Engine.CommissionNode(node)
							}
							if err != nil {
								t.Errorf("member %d node %d toggle(down=%v): %v", m.Index, node, d, err)
							}
							verify()
						})
						down = !down
					}
				}
				// Checkpoints at random instants across the run: the states
				// task starts and completions leave between the transitions
				// above.
				checks := 40
				if testing.Short() {
					checks = 15
				}
				for c := 0; c < checks; c++ {
					checkAt(rng.Float64() * horizon * 1.2)
				}
				f.Sim().At(simtime.Time(horizon*0.3), func() { verifyRoutingDoesNotAllocate(t, f) })
				// Whole-federation outage for one instant: every member that
				// is up goes down and comes back inside one event, so the
				// planned outage windows around it never see the difference.
				f.Sim().At(simtime.Time(horizon*0.45), func() {
					var taken []int
					for i, m := range f.Members() {
						if m.Available() {
							if err := f.SetMemberDown(i, true); err != nil {
								t.Fatal(err)
							}
							taken = append(taken, i)
						}
					}
					verify()
					for _, i := range taken {
						if err := f.SetMemberDown(i, false); err != nil {
							t.Fatal(err)
						}
					}
					verify()
				})
				f.Run()
				// Terminal state: everything drained, index agrees one last time.
				verify()
				for i := range f.Members() {
					if li := f.Index(); li.TotalQueued(i) != 0 || li.Busy(i) {
						t.Fatalf("member %d not drained: queued %d busy %v", i, li.TotalQueued(i), li.Busy(i))
					}
				}
			})
		}
	}
}

// TestRoutingDuringOutageMatchesScan pins the outage view on a
// hand-built state: with a member down the dispatcher hands policies a
// filtered candidate slice, and positions in it no longer match member
// indices.
func TestRoutingDuringOutageMatchesScan(t *testing.T) {
	f, err := New(Config{
		Members: make([]MemberSpec, 4),
		Policy:  core.PolicyNP(2),
		Routing: NewRoundRobin(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := indexJob(4)
	// Uneven backlogs: member i gets i buffered arrivals (plus the one it
	// is running).
	for i, m := range f.Members() {
		for j := 0; j <= i; j++ {
			if err := m.Scheduler.Arrive(j%2, job); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.SetMemberDown(0, true); err != nil {
		t.Fatal(err)
	}
	candidates := make([]*Member, 0, 3)
	for _, m := range f.Members() {
		if m.Available() {
			candidates = append(candidates, m)
		}
	}
	// Home is in candidate coordinates: candidate 1 is member 2 here.
	arr := Arrival{Class: 1, Job: job, Home: 1}
	wantMember := map[string]int{
		// Member 1 (candidate 0) has the smallest (backlog, busy) among
		// the available members; ties with member 2 break to the lower
		// candidate index, matching the original polled scans.
		"JSQ": 1, "LeastLoaded": 1, "SprintAware": 1,
		// DataLocal stays on its data home (member 2): the home backlog
		// does not exceed the JSQ alternative by the spill threshold.
		"DataLocal": 2,
	}
	for _, p := range []RoutingPolicy{
		NewJoinShortestQueue(), NewLeastLoaded(), NewSprintAware(), NewDataLocal(1),
	} {
		got := p.Route(arr, candidates)
		if got < 0 || got >= len(candidates) {
			t.Fatalf("%s routed out of range: %d", p.Name(), got)
		}
		if candidates[got].Index != wantMember[p.Name()] {
			t.Fatalf("%s routed to member %d, want member %d",
				p.Name(), candidates[got].Index, wantMember[p.Name()])
		}
	}
	if err := f.SetMemberDown(0, false); err != nil {
		t.Fatal(err)
	}
	if li := f.Index(); li.DownMembers() != 0 || !li.Available(0) {
		t.Fatalf("index availability not restored: down=%d available0=%v",
			li.DownMembers(), li.Available(0))
	}
}

// TestRoutingReorderedSliceHonorsContract pins Route's documented
// contract — the return value indexes the caller's slice — on a
// hand-built state: a caller-reordered full-length slice must not be
// answered with a member id that points at a different member.
func TestRoutingReorderedSliceHonorsContract(t *testing.T) {
	f, err := New(Config{
		Members: make([]MemberSpec, 4),
		Policy:  core.PolicyNP(2),
		Routing: NewRandom(1),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := indexJob(4)
	for i, m := range f.Members() {
		for j := 0; j <= i; j++ {
			if err := m.Scheduler.Arrive(j%2, job); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reverse the full member slice: same length, every member up, but
	// positions no longer match member indices.
	reversed := make([]*Member, 0, 4)
	for i := 3; i >= 0; i-- {
		reversed = append(reversed, f.Members()[i])
	}
	arr := Arrival{Class: 1, Job: job, Home: -1}
	for _, p := range []RoutingPolicy{
		NewJoinShortestQueue(), NewLeastLoaded(), NewSprintAware(),
	} {
		got := p.Route(arr, reversed)
		// Member 0 has the smallest backlog/utilization; in the reversed
		// slice it sits at position 3.
		if got != 3 || reversed[got].Index != 0 {
			t.Fatalf("%s on reversed slice routed to position %d (member %d), want position 3 (member 0)",
				p.Name(), got, reversed[got].Index)
		}
	}
}

// TestBacklogClamping pins the degenerate-class behaviour: classes
// above the configured range see only the running job, negative classes
// see everything.
func TestBacklogClamping(t *testing.T) {
	f, err := New(Config{
		Members: make([]MemberSpec, 2),
		Policy:  core.PolicyNP(2),
		Routing: NewRandom(1),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := indexJob(4)
	m := f.Members()[1]
	for j := 0; j < 3; j++ {
		if err := m.Scheduler.Arrive(1, job); err != nil {
			t.Fatal(err)
		}
	}
	// One dispatched (busy) + two buffered in class 1.
	if got := m.Backlog(5); got != 1 {
		t.Fatalf("above-range class backlog %d, want 1 (running job only)", got)
	}
	if got := m.Backlog(-1); got != 3 {
		t.Fatalf("below-range class backlog %d, want 3", got)
	}
	// Routing answers for in-range and out-of-range classes alike.
	jsq := NewJoinShortestQueue()
	if got := jsq.Route(Arrival{Class: 5, Job: job, Home: -1}, f.Members()); got != 0 {
		t.Fatalf("out-of-range class routed to %d, want 0 (idle member)", got)
	}
	if got := jsq.Route(Arrival{Class: 1, Job: job, Home: -1}, f.Members()); got != 0 {
		t.Fatalf("class 1 routed to %d, want 0 (idle member)", got)
	}
}
