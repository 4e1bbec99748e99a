package federation_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dias"
	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/telemetry"
	"dias/internal/trace"
	"dias/internal/workload"
)

// churnJob is a cheap two-stage job for routing tests: no compute, small
// input, so runs are dominated by the scheduling path under test.
func churnJob(name string, parts int) *engine.Job {
	input := make(engine.Dataset, parts)
	for p := range input {
		input[p] = engine.Partition{{Key: "k", Value: 1.0}}
	}
	return &engine.Job{
		Name:      name,
		Input:     input,
		SizeBytes: 1 << 28,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 4},
			{Name: "out", Kind: engine.Result, Deps: []int{0}},
		},
	}
}

func twoMemberFed(t *testing.T, routing federation.RoutingPolicy, data *dfs.Config) *federation.Federation {
	t.Helper()
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(2),
		Routing: routing,
		Data:    data,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestConfigValidation(t *testing.T) {
	jsq := federation.NewJoinShortestQueue()
	cases := []struct {
		name string
		cfg  federation.Config
	}{
		{"no members", federation.Config{Routing: jsq, Policy: core.PolicyNP(2)}},
		{"nil routing", federation.Config{Members: []federation.MemberSpec{{}}, Policy: core.PolicyNP(2)}},
		{"shared deflator", federation.Config{
			Members: []federation.MemberSpec{{}},
			Policy:  core.Config{Classes: 2, Deflator: nopDeflator{}},
			Routing: jsq,
		}},
		{"policy OnRecord", federation.Config{
			Members: []federation.MemberSpec{{}},
			Policy:  core.Config{Classes: 2, OnRecord: func(core.JobRecord) {}},
			Routing: jsq,
		}},
	}
	for _, c := range cases {
		if _, err := federation.New(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

type nopDeflator struct{}

func (nopDeflator) DropRatios(int) []float64 { return nil }
func (nopDeflator) Observe(core.JobRecord)   {}

func TestRoundRobinConservation(t *testing.T) {
	var recs []struct {
		member int
		class  int
	}
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(2),
		Routing: federation.NewRoundRobin(),
		Seed:    1,
		OnRecord: func(member int, rec core.JobRecord) {
			recs = append(recs, struct{ member, class int }{member, rec.Class})
		},
		DiscardRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := churnJob("rr", 4)
	const n = 10
	for i := 0; i < n; i++ {
		fed.SubmitAt(float64(i), i%2, job)
	}
	fed.Run()
	routed := fed.Routed()
	if routed[0] != n/2 || routed[1] != n/2 {
		t.Fatalf("round-robin routed %v", routed)
	}
	if len(recs) != n {
		t.Fatalf("completed %d of %d jobs", len(recs), n)
	}
	perClass := map[int]int{}
	for _, r := range recs {
		perClass[r.class]++
	}
	if perClass[0] != n/2 || perClass[1] != n/2 {
		t.Fatalf("per-class completions = %v", perClass)
	}
}

func TestJSQPrefersShorterBacklog(t *testing.T) {
	fed := twoMemberFed(t, federation.NewJoinShortestQueue(), nil)
	members := fed.Members()
	// Load member a: one running job plus two buffered.
	job := churnJob("load", 4)
	for i := 0; i < 3; i++ {
		if err := members[0].Scheduler.Arrive(0, job); err != nil {
			t.Fatal(err)
		}
	}
	if got := members[0].Backlog(0); got != 3 {
		t.Fatalf("backlog = %d, want 3", got)
	}
	arr := federation.Arrival{Class: 0, Job: job, Home: -1}
	if got := federation.NewJoinShortestQueue().Route(arr, members); got != 1 {
		t.Fatalf("JSQ routed to %d, want 1", got)
	}
	// A high-priority arrival ignores the lower-class buffer but still
	// sees the running job.
	if got := members[0].Backlog(1); got != 1 {
		t.Fatalf("class-1 backlog = %d, want 1 (running job only)", got)
	}
}

func TestLeastLoadedUsesBusyShare(t *testing.T) {
	small := cluster.DefaultConfig()
	small.Nodes = 2 // 4 slots vs the default 20
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "big"}, {Name: "small", Cluster: small}},
		Policy:  core.PolicyNP(1),
		Routing: federation.NewLeastLoaded(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := fed.Members()
	// Occupy 4 of the big member's 20 slots (20% busy) while the small
	// member runs 1 of 4 (25%): least-loaded must still pick the big one.
	for i := 0; i < 4; i++ {
		if _, ok := members[0].Cluster.Acquire(); !ok {
			t.Fatal("no free slot")
		}
	}
	if _, ok := members[1].Cluster.Acquire(); !ok {
		t.Fatal("no free slot")
	}
	arr := federation.Arrival{Class: 0, Home: -1}
	if got := federation.NewLeastLoaded().Route(arr, members); got != 0 {
		t.Fatalf("least-loaded routed to %d, want 0", got)
	}
}

func TestRandomIsSeededAndInRange(t *testing.T) {
	fed := twoMemberFed(t, federation.NewRandom(7), nil)
	members := fed.Members()
	a, b := federation.NewRandom(7), federation.NewRandom(7)
	arr := federation.Arrival{Class: 0, Home: -1}
	for i := 0; i < 100; i++ {
		x, y := a.Route(arr, members), b.Route(arr, members)
		if x != y {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, x, y)
		}
		if x < 0 || x >= len(members) {
			t.Fatalf("routed out of range: %d", x)
		}
	}
}

func TestSprintAwarePrefersBudget(t *testing.T) {
	sprint := core.SprintPolicy{
		TimeoutSec:     []float64{0, 0},
		BudgetJoules:   1000,
		DrainWatts:     100,
		ReplenishWatts: 10,
	}
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.Config{Classes: 2, Sprint: &sprint},
		Routing: federation.NewSprintAware(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := fed.Members()
	// Equal (full) budgets: ties break to the smaller backlog.
	job := churnJob("sprint", 4)
	if err := members[0].Scheduler.Arrive(1, job); err != nil {
		t.Fatal(err)
	}
	arr := federation.Arrival{Class: 1, Job: job, Home: -1}
	if got := federation.NewSprintAware().Route(arr, members); got != 1 {
		t.Fatalf("sprint-aware routed to %d, want idle member 1", got)
	}
}

func TestRegisterInputPlacesDataAndDataLocalRoutesHome(t *testing.T) {
	data := dfs.DefaultConfig()
	fed := twoMemberFed(t, federation.NewDataLocal(0), &data)
	members := fed.Members()
	job := churnJob("homed", 4)
	job.InputPath = "/fed/homed"
	if err := fed.RegisterInput(job, 0); err != nil {
		t.Fatal(err)
	}
	if err := fed.RegisterInput(job, 0); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	homeBlocks, err := members[0].FS.Blocks(job.InputPath)
	if err != nil {
		t.Fatal(err)
	}
	awayBlocks, err := members[1].FS.Blocks(job.InputPath)
	if err != nil {
		t.Fatal(err)
	}
	if homeBlocks[0].Remote || !awayBlocks[0].Remote {
		t.Fatalf("remote flags: home=%v away=%v", homeBlocks[0].Remote, awayBlocks[0].Remote)
	}
	local := members[0].FS.ReadTime(homeBlocks[0], 0)
	wan := members[1].FS.ReadTime(awayBlocks[0], 0)
	if wan <= local {
		t.Fatalf("WAN read (%v) not slower than local (%v)", wan, local)
	}
	arr := federation.Arrival{Class: 0, Job: job, Home: 0}
	if got := federation.NewDataLocal(0).Route(arr, members); got != 0 {
		t.Fatalf("data-local routed to %d, want home 0", got)
	}
	// Unregistered jobs fall back to JSQ.
	arr.Home = -1
	if got := federation.NewDataLocal(0).Route(arr, members); got < 0 || got > 1 {
		t.Fatalf("fallback routed to %d", got)
	}
}

func TestDataLocalSpillsUnderBacklog(t *testing.T) {
	fed := twoMemberFed(t, federation.NewDataLocal(2), nil)
	members := fed.Members()
	job := churnJob("spill", 4)
	for i := 0; i < 4; i++ {
		if err := members[0].Scheduler.Arrive(0, job); err != nil {
			t.Fatal(err)
		}
	}
	arr := federation.Arrival{Class: 0, Job: job, Home: 0}
	if got := federation.NewDataLocal(2).Route(arr, members); got != 1 {
		t.Fatalf("overloaded home kept the job (routed %d)", got)
	}
	if got := federation.NewDataLocal(0).Route(arr, members); got != 0 {
		t.Fatalf("spill<=0 must pin to home, routed %d", got)
	}
}

// TestPartialConfigsAreNotSilentlyDefaulted pins the config contract: a
// dfs config that sets only WANBytesPerSec keeps that value (other fields
// default individually), while a partially specified cluster spec is
// rejected instead of being replaced by the default testbed.
func TestPartialConfigsAreNotSilentlyDefaulted(t *testing.T) {
	data := dfs.Config{WANBytesPerSec: 10e6}
	fed := twoMemberFed(t, federation.NewRoundRobin(), &data)
	got := fed.Members()[0].FS.Config()
	if got.WANBytesPerSec != 10e6 {
		t.Fatalf("WAN bandwidth overridden to %g", got.WANBytesPerSec)
	}
	if got.DataNodes != dfs.DefaultConfig().DataNodes {
		t.Fatalf("unset DataNodes = %d, want default", got.DataNodes)
	}
	partial := cluster.Config{SprintSpeedup: 2.0} // no Nodes: incomplete
	_, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Cluster: partial}},
		Policy:  core.PolicyNP(1),
		Routing: federation.NewRoundRobin(),
	})
	if err == nil {
		t.Fatal("partially specified cluster config accepted")
	}
}

// TestWANPenaltySlowsRemoteRouting runs the same pinned-placement workload
// with the data model on: jobs forced off their home cluster finish slower
// than jobs routed home, because executed stage-0 tasks fetch blocks over
// the WAN.
func TestWANPenaltySlowsRemoteRouting(t *testing.T) {
	run := func(home int) float64 {
		data := dfs.DefaultConfig()
		var total float64
		var n int
		fed, err := federation.New(federation.Config{
			Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
			Policy:  core.PolicyNP(1),
			// Pin every arrival to member 0; home decides locality.
			Routing: pinPolicy(0),
			Data:    &data,
			Seed:    1,
			OnRecord: func(_ int, rec core.JobRecord) {
				total += rec.ExecSec
				n++
			},
			DiscardRecords: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		job := churnJob("wan", 4)
		job.InputPath = "/fed/wan"
		if err := fed.RegisterInput(job, home); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			fed.SubmitAt(float64(i)*1000, 0, job)
		}
		fed.Run()
		if n != 5 {
			t.Fatalf("completed %d jobs", n)
		}
		return total / float64(n)
	}
	local := run(0)  // data on the member that runs the jobs
	remote := run(1) // data homed elsewhere: WAN fetches
	if remote <= local {
		t.Fatalf("remote exec %.2fs not slower than local %.2fs", remote, local)
	}
}

// pinPolicy routes everything to one member (test-only).
type pinPolicy int

func (p pinPolicy) Name() string                                       { return "Pin" }
func (p pinPolicy) Route(federation.Arrival, []*federation.Member) int { return int(p) }

// TestTraceReplayThroughFederation records the arrivals of a single
// cluster from its telemetry event log, persists them through the
// "#dias-trace v1" stream format, replays the stream as the arrival
// process of a two-cluster federation, and asserts conservation of jobs
// per class: every recorded arrival completes exactly once somewhere in
// the federation.
func TestTraceReplayThroughFederation(t *testing.T) {
	// Record: one default stack, Poisson two-class stream, telemetry on.
	col := telemetry.NewCollector(telemetry.Config{})
	stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(2), Telemetry: col, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*engine.Job{churnJob("low", 6), churnJob("high", 3)}
	mix, err := workload.NewPoissonMix([]float64{0.02, 0.005})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, a := range workload.StreamOf(mix, rng, 40) {
		stack.SubmitAt(a.At, a.Class, jobs[a.Class])
	}
	stack.Run()

	// Persist: every submission, in emission (= time) order.
	var wire bytes.Buffer
	sw, err := trace.NewStreamWriter(&wire)
	if err != nil {
		t.Fatal(err)
	}
	wantPerClass := map[int]int{}
	for _, e := range col.Events() {
		if e.Kind != telemetry.KindSubmit {
			continue
		}
		if err := sw.Write(trace.Rec{At: e.At, Class: e.Class, Home: -1}); err != nil {
			t.Fatal(err)
		}
		wantPerClass[e.Class]++
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	arrivals := sw.Count()
	if arrivals != 40 {
		t.Fatalf("trace recorded %d arrivals, want 40", arrivals)
	}

	// Replay the stream through a two-cluster federation.
	replay, err := workload.NewEmpiricalStream(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotPerClass := map[int]int{}
	total := 0
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
		Policy:  core.PolicyNP(2),
		Routing: federation.NewJoinShortestQueue(),
		Seed:    3,
		OnRecord: func(_ int, rec core.JobRecord) {
			gotPerClass[rec.Class]++
			total++
		},
		DiscardRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitStream(replay, workload.FixedJobs(jobs), arrivals, 3); err != nil {
		t.Fatal(err)
	}
	fed.Run()

	if total != arrivals {
		t.Fatalf("federation completed %d of %d replayed jobs", total, arrivals)
	}
	for class, want := range wantPerClass {
		if gotPerClass[class] != want {
			t.Fatalf("class %d: completed %d, recorded %d (conservation violated; got=%v want=%v)",
				class, gotPerClass[class], want, gotPerClass, wantPerClass)
		}
	}
	routed := fed.Routed()
	if routed[0]+routed[1] != arrivals {
		t.Fatalf("routed %v does not cover %d arrivals", routed, arrivals)
	}
	if routed[0] == 0 || routed[1] == 0 {
		t.Fatalf("JSQ left a member idle: routed %v", routed)
	}
}

// TestFacadeNewFederation exercises the dias.NewFederation facade with
// defaults: two default clusters, JSQ routing.
func TestFacadeNewFederation(t *testing.T) {
	fed, err := dias.NewFederation(dias.FederationConfig{Policy: core.PolicyNP(2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fed.Members()); got != 2 {
		t.Fatalf("default federation has %d members, want 2", got)
	}
	job := churnJob("facade", 4)
	for i := 0; i < 6; i++ {
		fed.SubmitAt(float64(i)*10, i%2, job)
	}
	fed.Run()
	var done int
	for _, m := range fed.Members() {
		done += len(m.Scheduler.Records())
	}
	if done != 6 {
		t.Fatalf("completed %d of 6 jobs", done)
	}
}

// scenarioRun captures every externally observable output of one
// federation run.
type scenarioRun struct {
	records  []core.JobRecord
	members  []int // record emission member, in emission order
	routed   []int
	spilled  int
	peak     int
	makespan float64
	events   string // telemetry JSONL export
	timeline string // gauge CSV export
}

// runScenario pushes 160 arrivals through an 8-member federation with
// everything on at once: the given routing policy over a data model
// (job c homed on member c), queue-depth admission with spill, a mid-run
// member outage, and telemetry.
func runScenario(t *testing.T, routing federation.RoutingPolicy) scenarioRun {
	t.Helper()
	reg := telemetry.NewRegistry(telemetry.Config{GaugeIntervalSec: 40})
	var out scenarioRun
	fed, err := federation.New(federation.Config{
		Members: make([]federation.MemberSpec, 8),
		Policy:  core.PolicyNP(2),
		Routing: routing,
		Admission: func() admission.Policy {
			qd, err := admission.NewQueueDepth(admission.QueueDepthConfig{
				MaxBacklog: []int{1, 2}, Spill: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return qd
		},
		Data: &dfs.Config{},
		Seed: 7,
		OnRecord: func(member int, rec core.JobRecord) {
			out.records = append(out.records, rec)
			out.members = append(out.members, member)
		},
		DiscardRecords: true,
		Telemetry:      reg.Collector("scenario"),
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.FixedJobs{churnJob("low", 6), churnJob("high", 3)}
	for i, job := range jobs {
		job.InputPath = fmt.Sprintf("/data/%s", job.Name)
		if err := fed.RegisterInput(job, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.ScheduleOutage(2, 120, 200); err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.6, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitStream(mix, jobs, 160, 21); err != nil {
		t.Fatal(err)
	}
	fed.Run()
	out.routed = fed.Routed()
	out.spilled = fed.Spilled()
	out.peak = fed.PeakInFlight()
	out.makespan = fed.Sim().Now().Seconds()
	var ev, tl bytes.Buffer
	if err := reg.WriteEventsJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteTimelineCSV(&tl); err != nil {
		t.Fatal(err)
	}
	out.events = ev.String()
	out.timeline = tl.String()
	return out
}

// TestFederationScenarioIsReproducible runs the everything-on scenario
// twice at one seed: every arrival must come back as exactly one record
// (completed, failed or rejected), and the two runs must agree on every
// record field in emission order, routing and spill counts, the
// in-flight high-water mark, the final clock, and the telemetry exports
// byte for byte. JSQ routes on the load index through the outage;
// RoundRobin routes blind, so the tight admission caps force Defer
// spills — the dispatcher's cross-member path.
func TestFederationScenarioIsReproducible(t *testing.T) {
	policies := []struct {
		name       string
		make       func() federation.RoutingPolicy
		wantSpills bool
	}{
		{"jsq", federation.NewJoinShortestQueue, false},
		{"roundrobin", federation.NewRoundRobin, true},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			first := runScenario(t, pol.make())
			if len(first.records) != 160 {
				t.Fatalf("run emitted %d records for 160 submissions", len(first.records))
			}
			if pol.wantSpills && first.spilled == 0 {
				t.Fatal("scenario exercises no admission spills; strengthen it")
			}
			if first.events == "" || first.timeline == "" {
				t.Fatal("traced run exported no telemetry")
			}
			again := runScenario(t, pol.make())
			if !reflect.DeepEqual(again.records, first.records) || !reflect.DeepEqual(again.members, first.members) {
				t.Fatal("records diverge between two runs at one seed")
			}
			if !reflect.DeepEqual(again.routed, first.routed) || again.spilled != first.spilled ||
				again.peak != first.peak || again.makespan != first.makespan {
				t.Fatalf("routing diverges between two runs at one seed: routed %v vs %v, spilled %d vs %d, peak %d vs %d, makespan %v vs %v",
					again.routed, first.routed, again.spilled, first.spilled, again.peak, first.peak, again.makespan, first.makespan)
			}
			if again.events != first.events {
				t.Fatal("telemetry JSONL diverges between two runs at one seed")
			}
			if again.timeline != first.timeline {
				t.Fatal("gauge timeline diverges between two runs at one seed")
			}
		})
	}
}
