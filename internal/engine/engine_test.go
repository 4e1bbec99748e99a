package engine

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"dias/internal/cluster"
	"dias/internal/simtime"
)

// testRig bundles a simulation, cluster and engine with a noise-free cost
// model so durations are exactly predictable.
type testRig struct {
	sim *simtime.Simulation
	clu *cluster.Cluster
	eng *Engine
}

func newRig(t *testing.T, slots int, cost CostModel) *testRig {
	t.Helper()
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = slots
	cfg.CoresPerNode = 1
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sim, clu, nil, cost, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{sim: sim, clu: clu, eng: eng}
}

// flatCost gives every task exactly taskSec seconds and removes all
// overheads, noise and shuffle costs.
func flatCost(taskSec float64) CostModel {
	return CostModel{TaskOverheadSec: taskSec}
}

// makeInput builds n partitions of m records each with distinct keys.
func makeInput(n, m int) Dataset {
	d := make(Dataset, n)
	for i := range d {
		for j := 0; j < m; j++ {
			d[i] = append(d[i], Record{Key: "k" + strconv.Itoa(i*m+j), Value: 1.0})
		}
	}
	return d
}

// wordCountJob builds the canonical 2-stage job: map emits (word,count),
// reduce sums per word.
func wordCountJob(input Dataset, reducers int) *Job {
	return &Job{
		Name:  "wordcount",
		Input: input,
		Stages: []Stage{
			{
				Name: "map", Kind: ShuffleMap, OutPartitions: reducers,
				Compute: func(in []Record) []Record {
					counts := map[string]float64{}
					for _, r := range in {
						counts[r.Key] += r.Value.(float64)
					}
					out := make([]Record, 0, len(counts))
					for k, v := range counts {
						out = append(out, Record{Key: k, Value: v})
					}
					return out
				},
			},
			{
				Name: "reduce", Kind: Result, Deps: []int{0},
				Compute: func(in []Record) []Record {
					counts := map[string]float64{}
					for _, r := range in {
						counts[r.Key] += r.Value.(float64)
					}
					out := make([]Record, 0, len(counts))
					for k, v := range counts {
						out = append(out, Record{Key: k, Value: v})
					}
					return out
				},
			},
		},
	}
}

func TestValidate(t *testing.T) {
	valid := wordCountJob(makeInput(2, 2), 2)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"no stages", func(j *Job) { j.Stages = nil }},
		{"no input", func(j *Job) { j.Input = nil }},
		{"forward dep", func(j *Job) { j.Stages[0].Deps = []int{1} }},
		{"self dep", func(j *Job) { j.Stages[1].Deps = []int{1} }},
		{"result not last", func(j *Job) { j.Stages[0].Kind = Result }},
		{"last is shufflemap", func(j *Job) {
			j.Stages[1].Kind = ShuffleMap
			j.Stages[1].OutPartitions = 2
		}},
		{"shufflemap without partitions", func(j *Job) { j.Stages[0].OutPartitions = 0 }},
	}
	for _, c := range cases {
		j := wordCountJob(makeInput(2, 2), 2)
		c.mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestWordCountCorrectness(t *testing.T) {
	rig := newRig(t, 4, flatCost(1))
	// Two partitions both containing the same word keys.
	input := Dataset{
		{{Key: "a", Value: 1.0}, {Key: "b", Value: 1.0}, {Key: "a", Value: 1.0}},
		{{Key: "a", Value: 1.0}, {Key: "c", Value: 1.0}},
	}
	job := wordCountJob(input, 3)
	var got []Record
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { got = r.Output }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	counts := map[string]float64{}
	for _, r := range got {
		counts[r.Key] = r.Value.(float64)
	}
	want := map[string]float64{"a": 3, "b": 1, "c": 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("counts[%s] = %g, want %g", k, counts[k], v)
		}
	}
}

func TestWaveMakespan(t *testing.T) {
	// 40 unit tasks on 20 slots must finish in exactly 2 waves.
	rig := newRig(t, 20, flatCost(10))
	input := makeInput(40, 0)
	job := &Job{
		Name:  "waves",
		Input: input,
		Stages: []Stage{
			{Name: "only", Kind: Result},
		},
	}
	var finished simtime.Time
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { finished = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	if math.Abs(finished.Seconds()-20) > 1e-9 {
		t.Fatalf("makespan = %v, want 20 (2 waves of 10s)", finished)
	}
}

func TestDropReducesTasks(t *testing.T) {
	rig := newRig(t, 10, flatCost(1))
	job := wordCountJob(makeInput(50, 1), 10)
	var res JobResult
	_, err := rig.eng.Submit(job, SubmitOptions{
		DropRatios: []float64{0.2}, // drop 20% of the 50 map tasks
		OnComplete: func(r JobResult) { res = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	// ⌈50·0.8⌉ = 40 map tasks + 10 reduce tasks.
	if res.TasksExecuted != 50 {
		t.Fatalf("executed = %d, want 50", res.TasksExecuted)
	}
	if res.TasksDropped != 10 {
		t.Fatalf("dropped = %d, want 10", res.TasksDropped)
	}
	if res.TasksTotal != 60 {
		t.Fatalf("total = %d, want 60", res.TasksTotal)
	}
	if math.Abs(res.EffectiveDropRatio-10.0/60) > 1e-12 {
		t.Fatalf("effective drop = %g", res.EffectiveDropRatio)
	}
}

func TestDropRatioValidation(t *testing.T) {
	rig := newRig(t, 2, flatCost(1))
	job := wordCountJob(makeInput(2, 1), 1)
	if _, err := rig.eng.Submit(job, SubmitOptions{DropRatios: []float64{1.5}}); err == nil {
		t.Fatal("accepted drop ratio > 1")
	}
	if _, err := rig.eng.Submit(job, SubmitOptions{DropRatios: []float64{-0.1}}); err == nil {
		t.Fatal("accepted negative drop ratio")
	}
}

func TestKillAccountsWaste(t *testing.T) {
	rig := newRig(t, 2, flatCost(10))
	job := wordCountJob(makeInput(4, 1), 2)
	completed := false
	id, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(JobResult) { completed = true }})
	if err != nil {
		t.Fatal(err)
	}
	rig.sim.RunUntil(5) // two tasks are mid-flight (t in [0,10))
	att, err := rig.eng.Kill(id)
	if err != nil {
		t.Fatal(err)
	}
	if !att.Evicted {
		t.Fatal("attempt not marked evicted")
	}
	// Two slots busy for 5 s each = 10 slot-seconds wasted.
	if math.Abs(att.SlotSeconds-10) > 1e-9 {
		t.Fatalf("attempt slot-seconds = %g, want 10", att.SlotSeconds)
	}
	if math.Abs(rig.eng.WastedSlotSeconds()-10) > 1e-9 {
		t.Fatalf("wasted = %g, want 10", rig.eng.WastedSlotSeconds())
	}
	if rig.clu.BusySlots() != 0 {
		t.Fatalf("busy slots = %d after kill, want 0", rig.clu.BusySlots())
	}
	if rig.eng.Evictions() != 1 {
		t.Fatalf("evictions = %d", rig.eng.Evictions())
	}
	// The job never completes.
	rig.sim.Run()
	if completed {
		t.Fatal("killed job completed")
	}
	// Killing again fails.
	if _, err := rig.eng.Kill(id); err == nil {
		t.Fatal("second kill succeeded")
	}
}

func TestKillDuringSetup(t *testing.T) {
	cost := flatCost(1)
	cost.SetupBaseSec = 100
	rig := newRig(t, 2, cost)
	job := wordCountJob(makeInput(2, 1), 1)
	completed := false
	id, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(JobResult) { completed = true }})
	if err != nil {
		t.Fatal(err)
	}
	rig.sim.RunUntil(50)
	if _, err := rig.eng.Kill(id); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	if completed {
		t.Fatal("job killed during setup still completed")
	}
	if rig.clu.BusySlots() != 0 {
		t.Fatal("slots leaked")
	}
}

func TestSprintRescalesRunningTask(t *testing.T) {
	rig := newRig(t, 1, flatCost(10))
	job := &Job{
		Name:   "single",
		Input:  makeInput(1, 0),
		Stages: []Stage{{Name: "r", Kind: Result}},
	}
	var finished simtime.Time
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { finished = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	// Sprint (speedup 2.5) at t=5: remaining 5 s of work takes 2 s.
	rig.sim.At(5, func() { rig.clu.SetSprinting(true) })
	rig.sim.Run()
	if math.Abs(finished.Seconds()-7) > 1e-9 {
		t.Fatalf("finished at %v, want 7", finished)
	}
}

func TestSprintOnOffMidTask(t *testing.T) {
	rig := newRig(t, 1, flatCost(10))
	job := &Job{Name: "single", Input: makeInput(1, 0), Stages: []Stage{{Kind: Result}}}
	var finished simtime.Time
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { finished = r.FinishedAt }}); err != nil {
		t.Fatal(err)
	}
	// Sprint during [2,4]: work done = 2 + 2*2.5 = 7, remaining 3 at speed 1.
	rig.sim.At(2, func() { rig.clu.SetSprinting(true) })
	rig.sim.At(4, func() { rig.clu.SetSprinting(false) })
	rig.sim.Run()
	if math.Abs(finished.Seconds()-7) > 1e-9 {
		t.Fatalf("finished at %v, want 7", finished)
	}
}

func TestSlotSecondsUnderSprint(t *testing.T) {
	// Slot occupancy is wall time, not speed-scaled work.
	rig := newRig(t, 1, flatCost(10))
	job := &Job{Name: "single", Input: makeInput(1, 0), Stages: []Stage{{Kind: Result}}}
	var res JobResult
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { res = r }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.At(5, func() { rig.clu.SetSprinting(true) })
	rig.sim.Run()
	if math.Abs(res.SlotSeconds-7) > 1e-9 {
		t.Fatalf("slot-seconds = %g, want 7 (wall time)", res.SlotSeconds)
	}
}

func TestMultiStageChain(t *testing.T) {
	// Three ShuffleMap stages then Result; identity computes. All records
	// must survive the full chain.
	rig := newRig(t, 4, flatCost(1))
	input := makeInput(8, 3)
	job := &Job{
		Name:  "chain",
		Input: input,
		Stages: []Stage{
			{Name: "s0", Kind: ShuffleMap, OutPartitions: 4},
			{Name: "s1", Kind: ShuffleMap, OutPartitions: 4, Deps: []int{0}},
			{Name: "s2", Kind: ShuffleMap, OutPartitions: 2, Deps: []int{1}},
			{Name: "res", Kind: Result, Deps: []int{2}},
		},
	}
	var out []Record
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { out = r.Output }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	if len(out) != 24 {
		t.Fatalf("output records = %d, want 24", len(out))
	}
}

func TestDiamondDAG(t *testing.T) {
	// Two parents feeding one child: outputs are co-partitioned and merged.
	rig := newRig(t, 4, flatCost(1))
	input := makeInput(4, 2)
	tag := func(label string) TaskFunc {
		return func(in []Record) []Record {
			out := make([]Record, len(in))
			for i, r := range in {
				out[i] = Record{Key: r.Key, Value: label}
			}
			return out
		}
	}
	job := &Job{
		Name:  "diamond",
		Input: input,
		Stages: []Stage{
			{Name: "left", Kind: ShuffleMap, OutPartitions: 3, Compute: tag("L")},
			{Name: "right", Kind: ShuffleMap, OutPartitions: 3, Compute: tag("R")},
			{Name: "join", Kind: Result, Deps: []int{0, 1}},
		},
	}
	var out []Record
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { out = r.Output }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	var l, r int
	for _, rec := range out {
		switch rec.Value.(string) {
		case "L":
			l++
		case "R":
			r++
		}
	}
	if l != 8 || r != 8 {
		t.Fatalf("L=%d R=%d, want 8/8", l, r)
	}
}

func TestShuffleBucketsByKey(t *testing.T) {
	// All records with the same key must land in the same reduce partition:
	// a reduce task computing per-key totals must see each key fully.
	rig := newRig(t, 4, flatCost(1))
	input := Dataset{
		{{Key: "x", Value: 1.0}, {Key: "y", Value: 1.0}},
		{{Key: "x", Value: 1.0}, {Key: "z", Value: 1.0}},
		{{Key: "y", Value: 1.0}, {Key: "x", Value: 1.0}},
	}
	job := wordCountJob(input, 2)
	var out []Record
	if _, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { out = r.Output }}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	counts := map[string]float64{}
	for _, r := range out {
		counts[r.Key] += r.Value.(float64)
	}
	if counts["x"] != 3 || counts["y"] != 2 || counts["z"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// Per-key totals must appear exactly once (no key split across buckets).
	seen := map[string]int{}
	for _, r := range out {
		seen[r.Key]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %s appears in %d reduce outputs", k, n)
		}
	}
}

func TestConcurrentJobsShareSlots(t *testing.T) {
	rig := newRig(t, 2, flatCost(10))
	jobA := &Job{Name: "a", Input: makeInput(2, 0), Stages: []Stage{{Kind: Result}}}
	jobB := &Job{Name: "b", Input: makeInput(2, 0), Stages: []Stage{{Kind: Result}}}
	var done int
	opts := SubmitOptions{OnComplete: func(JobResult) { done++ }}
	if _, err := rig.eng.Submit(jobA, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.eng.Submit(jobB, opts); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	if done != 2 {
		t.Fatalf("completed %d jobs, want 2", done)
	}
	// 4 tasks of 10 s on 2 slots: makespan 20 s.
	if got := rig.sim.Now().Seconds(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("makespan = %g, want 20", got)
	}
}

func TestStageStats(t *testing.T) {
	cost := flatCost(2)
	cost.ShuffleBaseSec = 3
	cost.SetupBaseSec = 5
	rig := newRig(t, 20, cost)
	job := wordCountJob(makeInput(40, 1), 10)
	var res JobResult
	if _, err := rig.eng.Submit(job, SubmitOptions{
		DropRatios: []float64{0.5},
		OnComplete: func(r JobResult) { res = r },
	}); err != nil {
		t.Fatal(err)
	}
	rig.sim.Run()
	if len(res.Stages) != 2 {
		t.Fatalf("%d stage stats", len(res.Stages))
	}
	m := res.Stages[0]
	if m.TasksExecuted != 20 || m.TasksDropped != 20 {
		t.Fatalf("map stage %d executed / %d dropped", m.TasksExecuted, m.TasksDropped)
	}
	// Setup is 5 s; 20 tasks on 20 slots = one 2 s wave.
	if math.Abs(m.StartedAt.Seconds()-5) > 1e-9 || math.Abs(m.EndedAt.Seconds()-7) > 1e-9 {
		t.Fatalf("map stage window [%v, %v], want [5, 7]", m.StartedAt, m.EndedAt)
	}
	if math.Abs(m.MeanTaskSec-2) > 1e-9 {
		t.Fatalf("mean task = %g, want 2", m.MeanTaskSec)
	}
	if m.Waves(20) != 1 {
		t.Fatalf("waves = %d, want 1", m.Waves(20))
	}
	r := res.Stages[1]
	// Reduce starts after the 3 s shuffle delay.
	if math.Abs(r.StartedAt.Seconds()-10) > 1e-9 {
		t.Fatalf("reduce started at %v, want 10", r.StartedAt)
	}
	if r.TasksExecuted != 10 || r.TasksDropped != 0 {
		t.Fatalf("reduce stage %d executed / %d dropped", r.TasksExecuted, r.TasksDropped)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() simtime.Time {
		sim := simtime.New()
		cfg := cluster.DefaultConfig()
		clu, err := cluster.New(sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cost := DefaultCostModel()
		eng, err := New(sim, clu, nil, cost, 42)
		if err != nil {
			t.Fatal(err)
		}
		job := wordCountJob(makeInput(30, 5), 10)
		var finished simtime.Time
		if _, err := eng.Submit(job, SubmitOptions{
			DropRatios: []float64{0.3},
			OnComplete: func(r JobResult) { finished = r.FinishedAt },
		}); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		return finished
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different makespans: %v vs %v", a, b)
	}
}

func TestFindMissingPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n     int
		theta float64
		want  int
	}{
		{50, 0, 50}, {50, 0.2, 40}, {50, 0.9, 5}, {3, 0.5, 2}, {1, 0.9, 1}, {10, 1, 0},
		{10, -0.5, 10}, {10, 2, 0},
	}
	for _, c := range cases {
		got := FindMissingPartitions(rng, c.n, c.theta)
		if len(got) != c.want {
			t.Fatalf("FindMissingPartitions(%d, %g) kept %d, want %d", c.n, c.theta, len(got), c.want)
		}
		seen := map[int]bool{}
		last := -1
		for _, i := range got {
			if i < 0 || i >= c.n || seen[i] {
				t.Fatalf("invalid selection %v", got)
			}
			if i <= last {
				t.Fatalf("selection not sorted: %v", got)
			}
			seen[i] = true
			last = i
		}
	}
}

// Property: ⌈n(1-θ)⌉ partitions are always kept, uniquely, within range.
func TestPropertyFindMissingPartitions(t *testing.T) {
	f := func(seed int64, rawN uint8, rawTheta uint8) bool {
		n := int(rawN%100) + 1
		theta := float64(rawTheta%91) / 100 // 0 to 0.9
		rng := rand.New(rand.NewSource(seed))
		got := FindMissingPartitions(rng, n, theta)
		want := int(math.Ceil(float64(n) * (1 - theta)))
		if len(got) != want {
			return false
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: dropping never increases makespan (fewer tasks, same slots).
func TestPropertyDropMonotoneMakespan(t *testing.T) {
	f := func(seed int64) bool {
		makespan := func(theta float64) float64 {
			sim := simtime.New()
			cfg := cluster.DefaultConfig()
			clu, err := cluster.New(sim, cfg)
			if err != nil {
				return math.NaN()
			}
			eng, err := New(sim, clu, nil, flatCost(1), seed)
			if err != nil {
				return math.NaN()
			}
			job := wordCountJob(makeInput(60, 1), 10)
			var finished simtime.Time
			if _, err := eng.Submit(job, SubmitOptions{
				DropRatios: []float64{theta},
				OnComplete: func(r JobResult) { finished = r.FinishedAt },
			}); err != nil {
				return math.NaN()
			}
			sim.Run()
			return finished.Seconds()
		}
		m0, m2, m5 := makespan(0), makespan(0.2), makespan(0.5)
		return m0 >= m2-1e-9 && m2 >= m5-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
