package federation_test

import (
	"testing"

	"dias/internal/admission"
	"dias/internal/core"
	"dias/internal/federation"
	"dias/internal/simtime"
)

// deferAll always defers: the dispatcher must walk every member and then
// reject at the routed one.
type deferAll struct{}

func (deferAll) Name() string { return "defer-all" }
func (deferAll) Admit(simtime.Time, admission.JobInfo, admission.State) admission.Decision {
	return admission.Defer
}

func TestFederationRejectsSharedAdmissionInstance(t *testing.T) {
	if _, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{}},
		Policy:  core.Config{Classes: 1, Admission: admission.AlwaysAdmit{}},
		Routing: federation.NewRoundRobin(),
	}); err == nil {
		t.Fatal("Policy.Admission accepted")
	}
}

// pinFirst routes everything to the first candidate — the worst-case
// router that makes admission spill do all the balancing.
type pinFirst struct{}

func (pinFirst) Name() string                                       { return "pin-first" }
func (pinFirst) Route(federation.Arrival, []*federation.Member) int { return 0 }

// TestFederationSpill: a member whose policy defers hands the arrival to a
// sibling instead of shedding it. Queue-depth policies with spill on two
// members behind a router pinned to member a: once a's backlog caps, the
// overflow must land on b, and only when both cap is anything shed.
func TestFederationSpill(t *testing.T) {
	var records int
	var rejected int
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(1),
		Routing: pinFirst{},
		Admission: func() admission.Policy {
			qd, err := admission.NewQueueDepth(admission.QueueDepthConfig{
				MaxBacklog: []int{2}, Spill: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return qd
		},
		Seed: 1,
		OnRecord: func(_ int, rec core.JobRecord) {
			records++
			if rec.Rejected {
				rejected++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		// A burst at t=0 then a trickle: the burst saturates both members'
		// backlog caps, so some arrivals spill and some are shed.
		at := 0.0
		if i >= 8 {
			at = float64(i) * 5
		}
		submitAt(t, fed, at, 0, churnJob("j", 2))
	}
	fed.Run()
	if records != n {
		t.Fatalf("%d records for %d submissions", records, n)
	}
	if fed.Spilled() == 0 {
		t.Error("no arrivals spilled — burst did not exercise Defer re-routing")
	}
	if rejected == 0 {
		t.Error("no arrivals rejected — burst did not overflow both members")
	}
	if rejected == n {
		t.Error("everything rejected — spill never accepted anywhere")
	}
	var schedRejected int
	for _, m := range fed.Members() {
		schedRejected += m.Scheduler.RejectedJobs()
	}
	if schedRejected != rejected {
		t.Errorf("scheduler rejection counters %d != rejected records %d", schedRejected, rejected)
	}
}

// TestFederationAllDeferRejectsOnce: when every member defers, the job is
// rejected exactly once, at the member the routing policy picked.
func TestFederationAllDeferRejectsOnce(t *testing.T) {
	var records, rejected int
	fed, err := federation.New(federation.Config{
		Members:   []federation.MemberSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Policy:    core.PolicyNP(1),
		Routing:   federation.NewRoundRobin(),
		Admission: func() admission.Policy { return deferAll{} },
		Seed:      1,
		OnRecord: func(_ int, rec core.JobRecord) {
			records++
			if rec.Rejected {
				rejected++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	for i := 0; i < n; i++ {
		submitAt(t, fed, float64(i), 0, churnJob("j", 1))
	}
	fed.Run()
	if records != n || rejected != n {
		t.Fatalf("records %d rejected %d, want %d each", records, rejected, n)
	}
	if fed.Spilled() != 0 {
		t.Errorf("Spilled() = %d for an all-defer federation", fed.Spilled())
	}
	// Round-robin routed 3 arrivals to each member; each rejection lands on
	// the routed member only.
	for _, m := range fed.Members() {
		if got := m.Scheduler.RejectedJobs(); got != 3 {
			t.Errorf("member %s rejected %d, want 3", m.Name, got)
		}
	}
	for i, routed := range fed.Routed() {
		if routed != 0 {
			t.Errorf("member %d shows %d routed arrivals; rejected jobs must not count", i, routed)
		}
	}
}

// TestFederationAdmissionConservation: with stateful per-member policies
// under real load, submitted == completed + rejected across the whole
// federation.
func TestFederationAdmissionConservation(t *testing.T) {
	var records, rejected, completed int
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(1),
		Routing: federation.NewJoinShortestQueue(),
		Admission: func() admission.Policy {
			tb, err := admission.NewTokenBucket(admission.TokenBucketConfig{
				Rate: []float64{0.05}, Burst: []float64{2},
			})
			if err != nil {
				t.Fatal(err)
			}
			return tb
		},
		Seed: 1,
		OnRecord: func(_ int, rec core.JobRecord) {
			records++
			if rec.Rejected {
				rejected++
			} else {
				completed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		submitAt(t, fed, float64(i), 0, churnJob("j", 1))
	}
	fed.Run()
	if records != n {
		t.Fatalf("%d records for %d submissions", records, n)
	}
	if completed+rejected != n {
		t.Fatalf("completed %d + rejected %d != %d", completed, rejected, n)
	}
	if rejected == 0 {
		t.Error("slow token buckets never rejected under a 1/sec stream")
	}
}
