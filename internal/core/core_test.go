package core

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/simtime"
	"dias/internal/telemetry"
)

// rig bundles the full simulated stack under a DiAS scheduler.
type rig struct {
	sim *simtime.Simulation
	clu *cluster.Cluster
	eng *engine.Engine
	sch *Scheduler
}

// newRig builds a stack with noise-free unit-cost tasks: a job with n
// input partitions on `slots` slots takes ceil(n/slots)*taskSec plus
// nothing else.
func newRig(t *testing.T, slots int, taskSec float64, cfg Config) *rig {
	t.Helper()
	sim := simtime.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = slots
	ccfg.CoresPerNode = 1
	clu, err := cluster.New(sim, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.CostModel{TaskOverheadSec: taskSec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := New(sim, clu, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: sim, clu: clu, eng: eng, sch: sch}
}

// simpleJob builds a one-stage Result job with n empty partitions.
func simpleJob(name string, n int) *engine.Job {
	input := make(engine.Dataset, n)
	for i := range input {
		input[i] = engine.Partition{{Key: "k" + strconv.Itoa(i), Value: 1.0}}
	}
	return &engine.Job{Name: name, Input: input, Stages: []engine.Stage{{Kind: engine.Result}}}
}

// twoStageJob builds map+reduce with n map partitions and r reducers.
func twoStageJob(name string, n, r int) *engine.Job {
	input := make(engine.Dataset, n)
	for i := range input {
		input[i] = engine.Partition{{Key: "k" + strconv.Itoa(i), Value: 1.0}}
	}
	return &engine.Job{
		Name:  name,
		Input: input,
		Stages: []engine.Stage{
			{Kind: engine.ShuffleMap, OutPartitions: r},
			{Kind: engine.Result, Deps: []int{0}},
		},
	}
}

func TestConfigValidation(t *testing.T) {
	sim := simtime.New()
	clu, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.CostModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero classes", Config{Classes: 0}},
		{"drop sets mismatch", Config{Classes: 2, DropRatios: [][]float64{{0.1}}}},
		{"drop out of range", Config{Classes: 1, DropRatios: [][]float64{{1.0}}}},
		{"sprint timeouts mismatch", Config{Classes: 2, Sprint: &SprintPolicy{TimeoutSec: []float64{1}, BudgetJoules: 1, DrainWatts: 1}}},
		{"sprint zero budget", Config{Classes: 1, Sprint: &SprintPolicy{TimeoutSec: []float64{1}, BudgetJoules: 0, DrainWatts: 1}}},
		{"finite budget no drain", Config{Classes: 1, Sprint: &SprintPolicy{TimeoutSec: []float64{1}, BudgetJoules: 10}}},
		{"preemptive sprint", Config{Classes: 1, Preemptive: true, Sprint: &SprintPolicy{TimeoutSec: []float64{1}, BudgetJoules: 10, DrainWatts: 1}}},
	}
	for _, c := range cases {
		if _, err := New(sim, clu, eng, c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := New(nil, clu, eng, PolicyNP(1)); err == nil {
		t.Error("nil sim accepted")
	}
}

func TestFCFSWithinClass(t *testing.T) {
	r := newRig(t, 1, 10, PolicyNP(1))
	var order []string
	record := func() {
		for _, rec := range r.sch.Records() {
			_ = rec
		}
	}
	_ = record
	r.sim.At(0, func() {
		if err := r.sch.Arrive(0, simpleJob("a", 1)); err != nil {
			t.Error(err)
		}
	})
	r.sim.At(1, func() {
		if err := r.sch.Arrive(0, simpleJob("b", 1)); err != nil {
			t.Error(err)
		}
	})
	r.sim.At(2, func() {
		if err := r.sch.Arrive(0, simpleJob("c", 1)); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	for _, rec := range r.sch.Records() {
		order = append(order, rec.Name)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("completion order = %v", order)
	}
}

func TestPriorityOrderAcrossClasses(t *testing.T) {
	// Jobs queued while one runs: high class must be served before low.
	r := newRig(t, 1, 10, PolicyNP(2))
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("low-running", 1)) })
	r.sim.At(1, func() { _ = r.sch.Arrive(0, simpleJob("low-queued", 1)) })
	r.sim.At(2, func() { _ = r.sch.Arrive(1, simpleJob("high-queued", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Name != "low-running" || recs[1].Name != "high-queued" || recs[2].Name != "low-queued" {
		t.Fatalf("order = %s, %s, %s", recs[0].Name, recs[1].Name, recs[2].Name)
	}
}

func TestNonPreemptiveNeverEvicts(t *testing.T) {
	r := newRig(t, 1, 10, PolicyNP(2))
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("low", 1)) })
	r.sim.At(1, func() { _ = r.sch.Arrive(1, simpleJob("high", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	// Low finishes first (at 10), high waits then runs (finishes 20).
	if recs[0].Name != "low" || math.Abs(recs[0].FinishedAt.Seconds()-10) > 1e-9 {
		t.Fatalf("low finished at %v", recs[0].FinishedAt)
	}
	if recs[1].Name != "high" || math.Abs(recs[1].FinishedAt.Seconds()-20) > 1e-9 {
		t.Fatalf("high finished at %v", recs[1].FinishedAt)
	}
	if recs[0].Evictions != 0 || recs[1].Evictions != 0 {
		t.Fatal("evictions under NP")
	}
	if r.eng.WastedSlotSeconds() != 0 {
		t.Fatal("waste under NP")
	}
}

func TestPreemptiveEvictsAndReexecutes(t *testing.T) {
	r := newRig(t, 1, 10, PolicyP(2))
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("low", 1)) })
	r.sim.At(4, func() { _ = r.sch.Arrive(1, simpleJob("high", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	// High runs 4..14; low re-executes from scratch 14..24.
	if recs[0].Name != "high" || math.Abs(recs[0].FinishedAt.Seconds()-14) > 1e-9 {
		t.Fatalf("high finished at %v", recs[0].FinishedAt)
	}
	if recs[1].Name != "low" || math.Abs(recs[1].FinishedAt.Seconds()-24) > 1e-9 {
		t.Fatalf("low finished at %v", recs[1].FinishedAt)
	}
	if recs[1].Evictions != 1 {
		t.Fatalf("low evictions = %d, want 1", recs[1].Evictions)
	}
	// 4 seconds of the first low attempt were wasted.
	if math.Abs(r.eng.WastedSlotSeconds()-4) > 1e-9 {
		t.Fatalf("wasted = %g, want 4", r.eng.WastedSlotSeconds())
	}
	// Response decomposition: low response 24, exec 10 (final attempt),
	// queue 14.
	if math.Abs(recs[1].ResponseSec-24) > 1e-9 || math.Abs(recs[1].ExecSec-10) > 1e-9 || math.Abs(recs[1].QueueSec-14) > 1e-9 {
		t.Fatalf("low decomposition resp=%g exec=%g queue=%g", recs[1].ResponseSec, recs[1].ExecSec, recs[1].QueueSec)
	}
}

func TestPreemptionEqualClassDoesNotEvict(t *testing.T) {
	r := newRig(t, 1, 10, PolicyP(2))
	r.sim.At(0, func() { _ = r.sch.Arrive(1, simpleJob("first", 1)) })
	r.sim.At(1, func() { _ = r.sch.Arrive(1, simpleJob("second", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	if recs[0].Name != "first" || recs[0].Evictions != 0 {
		t.Fatalf("first record %+v", recs[0])
	}
}

func TestDADropsLowPriorityOnly(t *testing.T) {
	// DA(0, 0.2) in paper order = thetas{0.2 for low, 0 for high}.
	cfg := PolicyDA([]float64{0.2, 0})
	r := newRig(t, 5, 1, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, twoStageJob("low", 10, 5)) })
	r.sim.At(0.1, func() { _ = r.sch.Arrive(1, twoStageJob("high", 10, 5)) })
	r.sim.Run()
	recs := r.sch.Records()
	for _, rec := range recs {
		switch rec.Name {
		case "low":
			// ⌈10·0.8⌉=8 of 10 map tasks + 5 reduce: dropped 2 of 15.
			if math.Abs(rec.EffectiveDropRatio-2.0/15) > 1e-9 {
				t.Fatalf("low effective drop = %g", rec.EffectiveDropRatio)
			}
		case "high":
			if rec.EffectiveDropRatio != 0 {
				t.Fatalf("high effective drop = %g", rec.EffectiveDropRatio)
			}
		}
	}
}

func TestSprintAfterTimeout(t *testing.T) {
	// One job of 10 s work; sprint timeout 4 s; speedup 2.5.
	// Finish = 4 + 6/2.5 = 6.4 s.
	cfg := Config{
		Classes: 1,
		Sprint: &SprintPolicy{
			TimeoutSec:   []float64{4},
			BudgetJoules: math.Inf(1),
		},
	}
	r := newRig(t, 1, 10, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("j", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	if math.Abs(recs[0].FinishedAt.Seconds()-6.4) > 1e-9 {
		t.Fatalf("finished at %v, want 6.4", recs[0].FinishedAt)
	}
	if r.clu.Sprinting() {
		t.Fatal("cluster still sprinting after job end")
	}
}

func TestSprintOnlyConfiguredClasses(t *testing.T) {
	cfg := Config{
		Classes: 2,
		Sprint: &SprintPolicy{
			TimeoutSec:   []float64{-1, 0}, // low never sprints, high immediately
			BudgetJoules: math.Inf(1),
		},
	}
	r := newRig(t, 1, 10, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("low", 1)) })
	r.sim.At(12, func() { _ = r.sch.Arrive(1, simpleJob("high", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	// Low runs unsprinted: finishes at 10. High sprints whole run: 12+4=16.
	if math.Abs(recs[0].FinishedAt.Seconds()-10) > 1e-9 {
		t.Fatalf("low finished at %v", recs[0].FinishedAt)
	}
	if math.Abs(recs[1].FinishedAt.Seconds()-16) > 1e-9 {
		t.Fatalf("high finished at %v, want 16", recs[1].FinishedAt)
	}
}

func TestSprintBudgetDepletes(t *testing.T) {
	// Budget 90 J at 30 W drain = 3 s of sprinting. Job: 20 s of work,
	// sprint from t=0: 3 s sprinted does 7.5 work, remaining 12.5 at
	// speed 1 => finish at 15.5.
	cfg := Config{
		Classes: 1,
		Sprint: &SprintPolicy{
			TimeoutSec:   []float64{0},
			BudgetJoules: 90,
			DrainWatts:   30,
		},
	}
	r := newRig(t, 1, 20, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("j", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	if math.Abs(recs[0].FinishedAt.Seconds()-15.5) > 1e-9 {
		t.Fatalf("finished at %v, want 15.5", recs[0].FinishedAt)
	}
	if b := r.sch.SprintBudgetJoules(); b > 1e-9 {
		t.Fatalf("budget = %g, want 0", b)
	}
}

func TestSprintBudgetReplenishes(t *testing.T) {
	// Deplete 90 J over one job, then idle 9 s at 10 W replenish = 90 J
	// available again for the next job.
	cfg := Config{
		Classes: 1,
		Sprint: &SprintPolicy{
			TimeoutSec:     []float64{0},
			BudgetJoules:   90,
			DrainWatts:     30,
			ReplenishWatts: 10,
		},
	}
	r := newRig(t, 1, 20, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("a", 1)) })
	// First job finishes at 15.5 (see depletion test). Arrive 9 s later.
	r.sim.At(24.5, func() { _ = r.sch.Arrive(0, simpleJob("b", 1)) })
	r.sim.Run()
	recs := r.sch.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	// Second job: 3 s sprint (7.5 work) + 12.5 s base = 15.5 s again.
	gotExec := recs[1].ExecSec
	if math.Abs(gotExec-15.5) > 1e-9 {
		t.Fatalf("second job exec = %g, want 15.5", gotExec)
	}
}

func TestSprintTimerCancelledOnEarlyCompletion(t *testing.T) {
	// Job takes 5 s; timeout 100 s: the pending sprint must not leak onto
	// the next job's timeline.
	cfg := Config{
		Classes: 1,
		Sprint: &SprintPolicy{
			TimeoutSec:   []float64{100},
			BudgetJoules: math.Inf(1),
		},
	}
	r := newRig(t, 1, 5, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("quick", 1)) })
	r.sim.Run()
	if r.clu.Sprinting() {
		t.Fatal("sprinting after quick job")
	}
	if got := r.sim.Now().Seconds(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("sim drained at %g, want 5 (no stray events)", got)
	}
}

func TestArriveValidation(t *testing.T) {
	r := newRig(t, 1, 1, PolicyNP(2))
	if err := r.sch.Arrive(2, simpleJob("x", 1)); err == nil {
		t.Fatal("class out of range accepted")
	}
	if err := r.sch.Arrive(-1, simpleJob("x", 1)); err == nil {
		t.Fatal("negative class accepted")
	}
	if err := r.sch.Arrive(0, nil); err == nil {
		t.Fatal("nil job accepted")
	}
}

func TestIntrospection(t *testing.T) {
	r := newRig(t, 1, 10, PolicyNP(1))
	if r.sch.Busy() || r.sch.QueuedJobs() != 0 {
		t.Fatal("fresh scheduler not idle")
	}
	r.sim.At(0, func() {
		_ = r.sch.Arrive(0, simpleJob("a", 1))
		_ = r.sch.Arrive(0, simpleJob("b", 1))
		if !r.sch.Busy() {
			t.Error("not busy after dispatch")
		}
		if r.sch.QueuedJobs() != 1 {
			t.Errorf("queued = %d, want 1", r.sch.QueuedJobs())
		}
	})
	r.sim.Run()
	if r.sch.Busy() || r.sch.QueuedJobs() != 0 {
		t.Fatal("scheduler not idle after drain")
	}
}

func TestKeepOutputs(t *testing.T) {
	cfg := PolicyNP(1)
	cfg.KeepOutputs = true
	r := newRig(t, 1, 1, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("a", 3)) })
	r.sim.Run()
	if len(r.sch.Records()[0].Output) != 3 {
		t.Fatalf("output records = %d, want 3", len(r.sch.Records()[0].Output))
	}
	// Without KeepOutputs the record drops the data.
	r2 := newRig(t, 1, 1, PolicyNP(1))
	r2.sim.At(0, func() { _ = r2.sch.Arrive(0, simpleJob("a", 3)) })
	r2.sim.Run()
	if r2.sch.Records()[0].Output != nil {
		t.Fatal("output kept without KeepOutputs")
	}
}

// fanOutJob is a map+reduce job whose record counts differ per partition
// and per bucket, so every per-record cost in the timing model is live.
func fanOutJob(name string, n, r int) *engine.Job {
	input := make(engine.Dataset, n)
	for i := range input {
		for j := 0; j <= i; j++ {
			input[i] = append(input[i], engine.Record{Key: "k" + strconv.Itoa(i*j), Value: 1.0})
		}
	}
	double := func(in []engine.Record) []engine.Record {
		out := make([]engine.Record, 0, 2*len(in))
		for _, rec := range in {
			out = append(out, rec, engine.Record{Key: rec.Key + "'", Value: rec.Value})
		}
		return out
	}
	return &engine.Job{
		Name:  name,
		Input: input,
		Stages: []engine.Stage{
			{Kind: engine.ShuffleMap, OutPartitions: r, Compute: double},
			{Kind: engine.Result, Deps: []int{0}, Compute: double},
		},
	}
}

// TestKeepOutputsOnlyAddsOutput is the scheduler's side of the count-only
// ≡ payload oracle: KeepOutputs decides whether the engine carries records
// or counts, and nothing but JobRecord.Output may tell the two apart —
// under dropping, noise, eviction and re-execution.
func TestKeepOutputsOnlyAddsOutput(t *testing.T) {
	policies := map[string]func() Config{
		"P":  func() Config { return PolicyP(2) },
		"DA": func() Config { return PolicyDA([]float64{0.3, 0}) },
	}
	for name, policy := range policies {
		run := func(keep bool) ([]JobRecord, float64) {
			cfg := policy()
			cfg.KeepOutputs = keep
			sim := simtime.New()
			clu, err := cluster.New(sim, cluster.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), 7)
			if err != nil {
				t.Fatal(err)
			}
			sch, err := New(sim, clu, eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			low, high := fanOutJob("low", 12, 4), fanOutJob("high", 5, 3)
			for i := 0; i < 12; i++ {
				class, job := 0, low
				if i%3 == 2 {
					class, job = 1, high
				}
				sim.At(simtime.Time(2.5*float64(i)), func() {
					if err := sch.Arrive(class, job); err != nil {
						t.Errorf("arrive: %v", err)
					}
				})
			}
			sim.Run()
			return sch.Records(), eng.WastedSlotSeconds()
		}
		kept, keptWaste := run(true)
		counted, countedWaste := run(false)
		if len(kept) != 12 || len(counted) != 12 {
			t.Fatalf("%s: %d and %d records, want 12", name, len(kept), len(counted))
		}
		if name == "P" && keptWaste == 0 {
			t.Fatalf("%s: no eviction happened — the test is not exercising Kill", name)
		}
		if keptWaste != countedWaste {
			t.Errorf("%s: wasted slot-seconds %g with outputs, %g without", name, keptWaste, countedWaste)
		}
		for i := range kept {
			if len(kept[i].Output) == 0 {
				t.Errorf("%s: record %d kept no output", name, i)
			}
			if counted[i].Output != nil {
				t.Errorf("%s: record %d has output without KeepOutputs", name, i)
			}
			kept[i].Output = nil
			if !reflect.DeepEqual(kept[i], counted[i]) {
				t.Errorf("%s: record %d differs beyond Output:\n%+v\n%+v", name, i, kept[i], counted[i])
			}
		}
	}
}

// TestInvalidJobYieldsFailedRecord pins conservation at the dispatch
// boundary: a job the engine refuses to run still produces exactly one
// record (failed), closes its tracer span, and does not wedge the queue.
func TestInvalidJobYieldsFailedRecord(t *testing.T) {
	col := telemetry.NewCollector(telemetry.Config{})
	cfg := PolicyNP(1)
	cfg.Tracer = col.Member(0)
	streamed := 0
	cfg.OnRecord = func(JobRecord) { streamed++ }
	r := newRig(t, 1, 10, cfg)
	r.sim.At(0, func() {
		_ = r.sch.Arrive(0, simpleJob("a", 1))
		_ = r.sch.Arrive(0, &engine.Job{Name: "no-stages"})
		_ = r.sch.Arrive(0, simpleJob("c", 1))
	})
	r.sim.Run()
	var completed, failed, rejected int
	for _, rec := range r.sch.Records() {
		switch {
		case rec.Rejected:
			rejected++
		case rec.Failed:
			failed++
			if rec.Name != "no-stages" || rec.ExecSec != 0 || rec.ResponseSec != 10 {
				t.Errorf("failed record %+v, want no-stages failing at dispatch after 10 s queued", rec)
			}
		default:
			completed++
		}
	}
	if completed != 2 || failed != 1 || rejected != 0 {
		t.Fatalf("completed %d + failed %d + rejected %d, want 2 + 1 + 0 = 3 submitted", completed, failed, rejected)
	}
	if streamed != 3 {
		t.Errorf("OnRecord saw %d records, want 3", streamed)
	}
	if r.sch.Busy() || r.sch.QueuedJobs() != 0 {
		t.Error("scheduler not idle after drain")
	}
	fails := 0
	for _, ev := range col.Events() {
		if ev.Kind == telemetry.KindFail {
			fails++
			if ev.Detail == "" {
				t.Error("failure event carries no reason")
			}
		}
	}
	if fails != 1 {
		t.Errorf("%d failure events on the tracer, want 1 (the span must close)", fails)
	}
}

func TestSchedulerTracing(t *testing.T) {
	col := telemetry.NewCollector(telemetry.Config{})
	cfg := PolicyP(2)
	cfg.Tracer = col.Member(0)
	r := newRig(t, 1, 10, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("low", 1)) })
	r.sim.At(4, func() { _ = r.sch.Arrive(1, simpleJob("high", 1)) })
	r.sim.Run()
	byKind := map[telemetry.Kind]int{}
	evictionsByClass := map[int]int{}
	lowDispatches := 0
	for _, e := range col.Events() {
		byKind[e.Kind]++
		switch {
		case e.Kind == telemetry.KindEvict:
			evictionsByClass[e.Class]++
		case e.Kind == telemetry.KindDispatch && e.Class == 0:
			lowDispatches++
		}
	}
	if byKind[telemetry.KindSubmit] != 2 || byKind[telemetry.KindComplete] != 2 {
		t.Fatalf("arrivals/completes = %v", byKind)
	}
	if byKind[telemetry.KindEvict] != 1 || evictionsByClass[0] != 1 {
		t.Fatalf("evictions = %v / %v", byKind, evictionsByClass)
	}
	// Low is dispatched twice (original + re-execution).
	if lowDispatches != 2 {
		t.Fatalf("low dispatched %d times, want 2", lowDispatches)
	}
}

func TestSchedulerTracesSprint(t *testing.T) {
	col := telemetry.NewCollector(telemetry.Config{})
	cfg := Config{
		Classes: 1,
		Sprint:  &SprintPolicy{TimeoutSec: []float64{4}, BudgetJoules: math.Inf(1)},
		Tracer:  col.Member(0),
	}
	r := newRig(t, 1, 10, cfg)
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("j", 1)) })
	r.sim.Run()
	// Sprint runs from t=4 until completion at 6.4.
	var starts, stops []float64
	for _, e := range col.Events() {
		switch e.Kind {
		case telemetry.KindSprintStart:
			starts = append(starts, e.At)
		case telemetry.KindSprintStop:
			stops = append(stops, e.At)
		}
	}
	if len(starts) != 1 || len(stops) != 1 {
		t.Fatalf("sprint starts %v, stops %v; want one window", starts, stops)
	}
	if got := stops[0] - starts[0]; math.Abs(got-2.4) > 1e-9 {
		t.Fatalf("traced sprint seconds = %g, want 2.4", got)
	}
}

// --- Deflator knob search --------------------------------------------------

// fig6Curve approximates the paper's accuracy curve: 8.5% at θ=0.1, 15% at
// 0.2, 32% at 0.4.
func fig6Curve(theta float64) float64 {
	switch {
	case theta <= 0:
		return 0
	case theta <= 0.1:
		return 85 * theta
	case theta <= 0.2:
		return 8.5 + 65*(theta-0.1)
	default:
		return 15 + 85*(theta-0.2)
	}
}

func TestSelectDropRatiosPaperScenario(t *testing.T) {
	// §5.2.1: tolerate 30% error on low, 0% on high; keep high-priority
	// mean response under a cap the model says DA(0,20) meets.
	grid := []float64{0, 0.1, 0.2, 0.4}
	predict := func(thetas []float64) ([]float64, error) {
		// Stylized model: dropping low-priority work shortens the
		// low-class job the high class may wait behind.
		low := 300 * (1 - thetas[0])
		high := 40 + 100*(1-thetas[0])
		return []float64{low, high}, nil
	}
	cons := KnobConstraints{
		MaxErrorPct:           []float64{30, 0},
		MaxTopMeanResponseSec: 125,
	}
	thetas, err := SelectDropRatios(grid, fig6Curve, cons, predict)
	if err != nil {
		t.Fatal(err)
	}
	// θ=0.1 gives high = 130 > 125; θ=0.2 gives 120 <= 125. Low tolerance
	// 30% admits up to θ=0.2 (15%) but not 0.4 (32%).
	if math.Abs(thetas[0]-0.2) > 1e-12 || thetas[1] != 0 {
		t.Fatalf("thetas = %v, want [0.2 0]", thetas)
	}
}

func TestSelectDropRatiosInfeasible(t *testing.T) {
	grid := []float64{0, 0.1}
	cons := KnobConstraints{
		MaxErrorPct:           []float64{5, 0},
		MaxTopMeanResponseSec: 1,
	}
	predict := func([]float64) ([]float64, error) { return []float64{100, 100}, nil }
	if _, err := SelectDropRatios(grid, fig6Curve, cons, predict); err == nil {
		t.Fatal("infeasible constraints accepted")
	}
}

func TestEnumerateChoices(t *testing.T) {
	grid := []float64{0, 0.1, 0.2}
	cons := KnobConstraints{MaxErrorPct: []float64{15, 0}}
	choices, err := EnumerateChoices(grid, fig6Curve, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 3 {
		t.Fatalf("%d choices", len(choices))
	}
	// Low-class ceiling is 0.2 (error 15 <= 15); high stays at 0.
	last := choices[2]
	if math.Abs(last.Thetas[0]-0.2) > 1e-12 || last.Thetas[1] != 0 {
		t.Fatalf("last choice thetas = %v", last.Thetas)
	}
	if !last.Feasible {
		t.Fatal("last choice should be feasible")
	}
	// Errors reported per class.
	if math.Abs(last.ErrorPct[0]-15) > 1e-9 || last.ErrorPct[1] != 0 {
		t.Fatalf("errors = %v", last.ErrorPct)
	}
}

func TestEnumerateChoicesValidation(t *testing.T) {
	cons := KnobConstraints{MaxErrorPct: []float64{10}}
	if _, err := EnumerateChoices(nil, fig6Curve, cons, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := EnumerateChoices([]float64{0.5}, nil, cons, nil); err == nil {
		t.Fatal("nil curve accepted")
	}
	if _, err := EnumerateChoices([]float64{1.5}, fig6Curve, cons, nil); err == nil {
		t.Fatal("grid value out of range accepted")
	}
	if _, err := EnumerateChoices([]float64{0}, fig6Curve, KnobConstraints{}, nil); err == nil {
		t.Fatal("empty tolerances accepted")
	}
}
