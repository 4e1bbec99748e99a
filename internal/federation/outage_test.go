package federation_test

import (
	"fmt"
	"math"
	"testing"

	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/faults"
	"dias/internal/federation"
	"dias/internal/simtime"
)

func TestOutageStopsRoutingToDownMember(t *testing.T) {
	fed := twoMemberFed(t, federation.NewRoundRobin(), nil)
	if err := fed.ScheduleOutage(0, 100, 200); err != nil {
		t.Fatalf("ScheduleOutage: %v", err)
	}
	// 10 arrivals during the outage window must all land on member b,
	// despite round-robin normally alternating.
	for i := 0; i < 10; i++ {
		submitAt(t, fed, 120+float64(i), 0, churnJob(fmt.Sprintf("j%d", i), 2))
	}
	fed.Sim().RunUntil(250)
	routed := fed.Routed()
	if routed[0] != 0 || routed[1] != 10 {
		t.Fatalf("routed = %v, want all 10 on member b", routed)
	}
	if fed.Members()[0].Available() {
		t.Fatal("member a should be down at t=250")
	}
	fed.Run()
	if !fed.Members()[0].Available() {
		t.Fatal("member a should have recovered")
	}
	if down := downNodes(fed.Members()[0].Cluster); down != 0 {
		t.Fatalf("member a still has %d down nodes after recovery", down)
	}
}

func TestOutageRequeuesInFlightWorkAndConserves(t *testing.T) {
	// Route everything to member a, then take it down mid-run: running
	// tasks are aborted, re-queued, and every job still completes exactly
	// once after recovery.
	done := make(map[string]int)
	fed2, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(2),
		Routing: pinPolicy(0),
		Seed:    1,
		OnRecord: func(member int, rec core.JobRecord) {
			done[rec.Name]++
			if rec.Failed {
				t.Errorf("job %s failed under pure churn", rec.Name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		submitAt(t, fed2, float64(i), 0, churnJob(fmt.Sprintf("p%d", i), 4))
	}
	fed2.Sim().At(simtime.Time(20), func() {
		if err := fed2.SetMemberDown(0, true); err != nil {
			t.Errorf("SetMemberDown: %v", err)
		}
	})
	fed2.Sim().At(simtime.Time(500), func() {
		if err := fed2.SetMemberDown(0, false); err != nil {
			t.Errorf("SetMemberDown(up): %v", err)
		}
	})
	fed2.Run()
	if len(done) != 5 {
		t.Fatalf("completions for %d jobs, want 5: %v", len(done), done)
	}
	for name, n := range done {
		if n != 1 {
			t.Fatalf("job %s completed %d times", name, n)
		}
	}
	if retried := fed2.Members()[0].Engine.TasksRetried(); retried == 0 {
		t.Fatal("outage aborted no in-flight tasks; test is vacuous")
	}
}

func TestOutageValidation(t *testing.T) {
	fed := twoMemberFed(t, federation.NewJoinShortestQueue(), nil)
	if err := fed.ScheduleOutage(5, 0, 1); err == nil {
		t.Fatal("member out of range accepted")
	}
	if err := fed.ScheduleOutage(0, -1, 1); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := fed.ScheduleOutage(0, 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	// Non-finite times pass every ordered comparison above them; a NaN
	// event key would silently mis-order the run.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{nan, 1}, {10, nan}, {inf, 1}, {10, inf}, {-inf, 1}, {10, -inf}} {
		if err := fed.ScheduleOutage(0, c[0], c[1]); err == nil {
			t.Fatalf("outage at %g for %g accepted", c[0], c[1])
		}
	}
	if n := fed.Sim().Pending(); n != 0 {
		t.Fatalf("%d events scheduled by rejected outages", n)
	}
	if err := fed.ScheduleOutage(0, 100, 50); err != nil {
		t.Fatalf("valid outage rejected: %v", err)
	}
	if err := fed.ScheduleOutage(0, 120, 10); err == nil {
		t.Fatal("overlapping outage accepted")
	}
	if err := fed.ScheduleOutage(0, 150, 10); err != nil {
		t.Fatalf("back-to-back outage rejected: %v", err)
	}
	if err := fed.SetMemberDown(0, false); err == nil {
		t.Fatal("repeated state change accepted")
	}
}

func TestDataLocalHomeRemappedDuringOutage(t *testing.T) {
	// Home member 0 is down: DataLocal must fall back to an available
	// member rather than routing into the outage or panicking.
	fed := twoMemberFed(t, federation.NewDataLocal(0), nil)
	job := churnJob("homed", 2)
	if err := fed.RegisterInput(job, 0); err != nil {
		t.Fatalf("RegisterInput: %v", err)
	}
	if err := fed.ScheduleOutage(0, 10, 100); err != nil {
		t.Fatal(err)
	}
	submitAt(t, fed, 5, 0, job)   // before the outage: pinned home
	submitAt(t, fed, 50, 0, job)  // during: must go to member b
	submitAt(t, fed, 200, 0, job) // after recovery: home again
	fed.Run()
	routed := fed.Routed()
	if routed[0] != 2 || routed[1] != 1 {
		t.Fatalf("routed = %v, want [2 1]", routed)
	}
}

// TestOutageComposesWithNodeChurn is the layered-injection case: a
// node-level churn injector runs on a member whose outage windows overlap
// its churn cycles. Neither layer may panic, and every job still
// completes exactly once.
func TestOutageComposesWithNodeChurn(t *testing.T) {
	done := map[string]int{}
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(2),
		Routing: federation.NewJoinShortestQueue(),
		Seed:    1,
		OnRecord: func(_ int, rec core.JobRecord) {
			done[rec.Name]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Aggressive churn on member a: cycles far shorter than the outage, so
	// overlap in both directions (churn-down at outage start, churn events
	// firing while the member is dark) is certain.
	if _, err := faults.Attach(fed.Sim(), fed.Members()[0].Engine, faults.Config{
		Churn: &faults.ChurnConfig{MTTFSec: 40, MTTRSec: 20, HorizonSec: 1500},
		Seed:  5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fed.ScheduleOutage(0, 60, 120); err != nil {
		t.Fatal(err)
	}
	if err := fed.ScheduleOutage(0, 300, 80); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		submitAt(t, fed, float64(i)*25, 0, churnJob(fmt.Sprintf("c%d", i), 3))
	}
	fed.Run()
	if len(done) != 12 {
		t.Fatalf("completions for %d jobs, want 12: %v", len(done), done)
	}
	for name, n := range done {
		if n != 1 {
			t.Fatalf("job %s completed %d times", name, n)
		}
	}
	// Everything recovers: the member is routable and no node is stuck
	// down once churn horizon and outages are past.
	if !fed.Members()[0].Available() {
		t.Fatal("member a should be routable after the outages")
	}
	if down := downNodes(fed.Members()[0].Cluster); down != 0 {
		t.Fatalf("%d nodes stuck down after drain", down)
	}
}

// downNodes counts the cluster's failed nodes.
func downNodes(c *cluster.Cluster) int {
	down := 0
	for n := range c.Config().Nodes {
		if c.NodeDown(n) {
			down++
		}
	}
	return down
}
