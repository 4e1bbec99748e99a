package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/simtime"
	"dias/internal/workload"
)

// planeRig is a small cluster (8 slots on 4 nodes, so every stage below
// runs in waves) under an engine whose cost model prices every record:
// per-record task time, per-record shuffle time and lognormal noise.
type planeRig struct {
	sim *simtime.Simulation
	clu *cluster.Cluster
	eng *engine.Engine
}

func planeCost() engine.CostModel {
	return engine.CostModel{
		TaskOverheadSec:     2,
		PerRecordSec:        0.01,
		SetupBaseSec:        1,
		SetupPerByte:        1e-9,
		ShuffleBaseSec:      0.5,
		ShufflePerRecordSec: 1e-3,
		NoiseSigma:          0.2,
	}
}

func newPlaneRig(t *testing.T, cost engine.CostModel) *planeRig {
	t.Helper()
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.CoresPerNode = 4, 2
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, cost, 11)
	if err != nil {
		t.Fatal(err)
	}
	return &planeRig{sim: sim, clu: clu, eng: eng}
}

// skewedInput builds n partitions of growing size over a small key space,
// so buckets, partitions and stages all see different record counts.
func skewedInput(n int) engine.Dataset {
	d := make(engine.Dataset, n)
	for p := range d {
		for j := 0; j < 3+2*p; j++ {
			d[p] = append(d[p], engine.Record{Key: fmt.Sprintf("k%d", (p*7+j*j)%23), Value: 1.0})
		}
	}
	return d
}

// echo emits every input record plus a primed copy of every third one.
func echo(in []engine.Record) []engine.Record {
	out := make([]engine.Record, 0, len(in)+len(in)/3+1)
	for i, r := range in {
		out = append(out, r)
		if i%3 == 0 {
			out = append(out, engine.Record{Key: r.Key + "'", Value: r.Value})
		}
	}
	return out
}

// evens keeps every other record.
func evens(in []engine.Record) []engine.Record {
	var out []engine.Record
	for i, r := range in {
		if i%2 == 0 {
			out = append(out, r)
		}
	}
	return out
}

type planeJob struct {
	name  string
	build func(t *testing.T) *engine.Job
	drops []float64
}

var planeJobs = []planeJob{
	{
		name: "word-popularity",
		build: func(t *testing.T) *engine.Job {
			cfg := workload.DefaultCorpusConfig()
			cfg.Partitions, cfg.PostsPerPartition = 12, 6
			corpus, err := workload.SynthesizeCorpus(rand.New(rand.NewSource(3)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return analytics.WordPopularityJob("text", corpus, 4, 1<<26)
		},
		drops: []float64{0.25},
	},
	{
		// Seven stages with a drop on every shuffle: only the last shuffle
		// and the Result stage go count-only, the rest must stay real.
		name: "triangle-count",
		build: func(t *testing.T) *engine.Job {
			edges, err := workload.SynthesizeGraph(rand.New(rand.NewSource(5)), workload.GraphConfig{Nodes: 60, EdgesPerNode: 3})
			if err != nil {
				t.Fatal(err)
			}
			return analytics.TriangleCountJob("tc", analytics.EdgeDataset(edges, 6), 4, 1<<26)
		},
		drops: []float64{0.1, 0.1, 0.2, 0.1, 0.2, 0.1},
	},
	{
		// The Result stage sums two parents' buckets without reading them.
		name: "two-parent-result",
		build: func(*testing.T) *engine.Job {
			return &engine.Job{
				Name:      "join",
				Input:     skewedInput(10),
				SizeBytes: 1 << 26,
				Stages: []engine.Stage{
					{Name: "left", Kind: engine.ShuffleMap, OutPartitions: 5, Compute: echo},
					{Name: "right", Kind: engine.ShuffleMap, OutPartitions: 5, Compute: evens, PerRecordSec: 0.02},
					{Name: "out", Kind: engine.Result, Deps: []int{0, 1}, Compute: echo},
				},
			}
		},
		drops: []float64{0.2, 0.3},
	},
	{
		// A ShuffleMap stage nobody depends on: content-free on both planes,
		// slow enough to outlive the Result stage.
		name: "orphan-shuffle",
		build: func(*testing.T) *engine.Job {
			return &engine.Job{
				Name:      "orphan",
				Input:     skewedInput(9),
				SizeBytes: 1 << 26,
				Stages: []engine.Stage{
					{Name: "orphan", Kind: engine.ShuffleMap, OutPartitions: 3, Compute: echo, PerRecordSec: 0.3},
					{Name: "out", Kind: engine.Result, Compute: evens},
				},
			}
		},
		drops: []float64{0.1, 0.2},
	},
	{
		name: "nil-compute",
		build: func(*testing.T) *engine.Job {
			return &engine.Job{
				Name:      "spine",
				Input:     skewedInput(11),
				SizeBytes: 1 << 26,
				Stages: []engine.Stage{
					{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 4},
					{Name: "out", Kind: engine.Result, Deps: []int{0}},
				},
			}
		},
		drops: []float64{0.2},
	},
}

// moduloFaults dooms the first attempt of every third task halfway through
// and slows every fifth one down; it depends on task coordinates only.
type moduloFaults struct{}

func (moduloFaults) TaskStarted(_ string, stage, partition, attempt int) engine.TaskFault {
	var f engine.TaskFault
	if attempt == 0 && (stage+partition)%3 == 0 {
		f.FailAfterFrac = 0.5
	}
	if (stage+2*partition)%5 == 0 {
		f.Slowdown = 2.5
	}
	return f
}

// planeScenario perturbs a run. arm configures the engine once; each of
// the run's submissions then calls during with the submission's start
// time and JobID, to schedule what happens while it executes.
type planeScenario struct {
	name   string
	arm    func(t *testing.T, r *planeRig)
	during func(t *testing.T, r *planeRig, out *planeOutcome, start simtime.Time, id engine.JobID)
	// exercised reports whether the run hit the mechanism the scenario is
	// about; it must hold for at least one job.
	exercised func(out *planeOutcome) bool
}

var planeScenarios = []planeScenario{
	{name: "plain"},
	{
		name: "task-faults",
		arm: func(t *testing.T, r *planeRig) {
			if err := r.eng.SetTaskFaults(moduloFaults{}, 4); err != nil {
				t.Fatal(err)
			}
		},
		exercised: func(out *planeOutcome) bool { return out.Retried > 0 },
	},
	{
		name: "fail-node",
		during: func(t *testing.T, r *planeRig, _ *planeOutcome, start simtime.Time, _ engine.JobID) {
			// Mid-first-wave and mid-later-stage crashes, each repaired.
			for i, at := range []float64{2, 9} {
				node := i + 1
				r.sim.At(start.Add(simtime.Duration(at)), func() {
					if err := r.eng.FailNode(node); err != nil {
						t.Errorf("fail node %d: %v", node, err)
					}
				})
				r.sim.At(start.Add(simtime.Duration(at+2.5)), func() {
					if err := r.eng.RepairNode(node); err != nil {
						t.Errorf("repair node %d: %v", node, err)
					}
				})
			}
		},
		exercised: func(out *planeOutcome) bool { return out.Retried > 0 },
	},
	{
		// Every odd submission is killed mid-flight (at a different depth
		// each time), so the next one runs on the recycled execution with
		// the killed life's buckets and counts still attached.
		name: "kill-resubmit",
		during: func(t *testing.T, r *planeRig, out *planeOutcome, start simtime.Time, id engine.JobID) {
			n := len(out.Attempts) + len(out.Results)
			if n%2 == 1 {
				return
			}
			r.sim.At(start.Add(simtime.Duration(1.5+0.8*float64(n))), func() {
				att, err := r.eng.Kill(id)
				if err != nil {
					t.Errorf("kill: %v", err)
				}
				out.Attempts = append(out.Attempts, att)
			})
		},
		exercised: func(out *planeOutcome) bool {
			launched := 0
			for _, a := range out.Attempts {
				launched += a.TasksLaunched
			}
			return launched > 0
		},
	},
}

// planeOutcome is everything a run lets its caller observe.
type planeOutcome struct {
	Results  []engine.JobResult
	Attempts []engine.Attempt
	End      simtime.Time

	BusySlotSec, EnergyJ, WastedSlotSec, FailureLostSec float64
	Retried, Evictions                                  int
}

// runPlane submits the job six times back to back on one engine — so the
// run covers the memo-filling first submission and memo-served later ones,
// all on pooled executions — and drains the simulation after each.
func runPlane(t *testing.T, pj planeJob, sc planeScenario, discard bool) *planeOutcome {
	t.Helper()
	r := newPlaneRig(t, planeCost())
	if sc.arm != nil {
		sc.arm(t, r)
	}
	job := pj.build(t)
	out := &planeOutcome{}
	for i := 0; i < 6; i++ {
		id, err := r.eng.Submit(job, engine.SubmitOptions{
			DropRatios:    pj.drops,
			DiscardOutput: discard,
			OnComplete:    func(res engine.JobResult) { out.Results = append(out.Results, res) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if sc.during != nil {
			sc.during(t, r, out, r.sim.Now(), id)
		}
		r.sim.Run()
	}
	out.End = r.sim.Now()
	out.BusySlotSec, out.EnergyJ = r.clu.BusySlotSeconds(), r.clu.EnergyJoules()
	out.WastedSlotSec, out.FailureLostSec = r.eng.WastedSlotSeconds(), r.eng.FailureLostSlotSeconds()
	out.Retried, out.Evictions = r.eng.TasksRetried(), r.eng.Evictions()
	down := 0
	for n := range r.clu.Config().Nodes {
		if r.clu.NodeDown(n) {
			down++
		}
	}
	if ended := len(out.Results) + len(out.Attempts); ended != 6 || r.clu.BusySlots() != 0 || down != 0 {
		t.Errorf("run ended %d of 6 submissions and left %d slots busy and %d nodes down", ended, r.clu.BusySlots(), down)
	}
	return out
}

// TestCountOnlyMatchesPayload is the oracle pair count-only ≡ payload:
// with the same seed, discarding the output may change nothing a caller
// can observe except JobResult.Output — not a duration, an RNG draw, a
// StageStat, a retry or a joule.
func TestCountOnlyMatchesPayload(t *testing.T) {
	for _, sc := range planeScenarios {
		exercised := sc.exercised == nil
		for _, pj := range planeJobs {
			t.Run(sc.name+"/"+pj.name, func(t *testing.T) {
				payload := runPlane(t, pj, sc, false)
				counted := runPlane(t, pj, sc, true)
				if len(payload.Results)+len(payload.Attempts) != 6 {
					t.Fatalf("%d results and %d evictions for 6 submissions", len(payload.Results), len(payload.Attempts))
				}
				for i := range payload.Results {
					if res := &payload.Results[i]; !res.Failed {
						if len(res.Output) == 0 {
							t.Errorf("payload run %d delivered no output", i)
						}
						res.Output = nil
					}
				}
				for i, res := range counted.Results {
					if res.Output != nil {
						t.Errorf("count-only run %d delivered %d output records", i, len(res.Output))
					}
				}
				if !reflect.DeepEqual(payload, counted) {
					t.Errorf("planes diverge:\npayload    %+v\ncount-only %+v", payload, counted)
				}
				if sc.exercised != nil && sc.exercised(counted) {
					exercised = true
				}
			})
		}
		if !exercised {
			t.Errorf("scenario %s never hit its mechanism on any job; strengthen it", sc.name)
		}
	}
}

// countingJob is a two-stage template over input whose map Compute counts
// its calls; the reduce stage's output size depends on its input contents.
func countingJob(name string, input engine.Dataset, calls *int) *engine.Job {
	return &engine.Job{
		Name:      name,
		Input:     input,
		SizeBytes: 1 << 20,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 3, Compute: func(in []engine.Record) []engine.Record {
				*calls++
				return echo(in)
			}},
			{Name: "reduce", Kind: engine.Result, Deps: []int{0}, Compute: evens},
		},
	}
}

// shallowClones mirrors what the federation drivers do to home one
// template's data on several members: same Stages and Input backing
// arrays under another Name and InputPath.
func shallowClones(base *engine.Job, n int) []*engine.Job {
	out := make([]*engine.Job, n)
	for v := range out {
		clone := *base
		clone.Name = fmt.Sprintf("%s-%d", base.Name, v)
		clone.InputPath = fmt.Sprintf("/data/%s-%d", base.Name, v)
		out[v] = &clone
	}
	return out
}

// noiseFree prices records but draws nothing, so a job's duration is a
// pure function of its record counts on any engine.
func noiseFree() engine.CostModel {
	c := planeCost()
	c.NoiseSigma = 0
	return c
}

// sameCost compares the two quantities every record count feeds — machine
// time and makespan — up to the rounding of sums taken at different
// absolute clock values.
func sameCost(a, b engine.JobResult) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
	return near(a.SlotSeconds, b.SlotSeconds) &&
		near(a.FinishedAt.Sub(a.StartedAt).Seconds(), b.FinishedAt.Sub(b.StartedAt).Seconds())
}

// submitRun runs one submission to completion and returns its result.
func submitRun(t *testing.T, r *planeRig, job *engine.Job, discard bool) engine.JobResult {
	t.Helper()
	var res engine.JobResult
	done := false
	if _, err := r.eng.Submit(job, engine.SubmitOptions{
		DiscardOutput: discard,
		OnComplete:    func(jr engine.JobResult) { res, done = jr, true },
	}); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	if !done {
		t.Fatalf("job %s did not complete", job.Name)
	}
	return res
}

// TestMemoSharedAcrossShallowClones: a stage output is a pure function of
// the template, so the memo lives on the template — N fresh engines × M
// variants × R rounds make one Compute call per partition between them,
// from the very first submission on, on either plane. Changing plane on a
// filled template costs nothing when the records are there to count and one
// more fill when they are not (the count-only plane keeps none).
func TestMemoSharedAcrossShallowClones(t *testing.T) {
	const parts, variants, engines, rounds = 7, 4, 3, 2
	for _, discard := range []bool{false, true} {
		calls := 0
		clones := shallowClones(countingJob("t", skewedInput(parts), &calls), variants)
		var first engine.JobResult
		for e := 0; e < engines; e++ {
			r := newPlaneRig(t, noiseFree())
			for round := 0; round < rounds; round++ {
				for v, job := range clones {
					res := submitRun(t, r, job, discard)
					if e == 0 && round == 0 && v == 0 {
						first = res
					}
					if calls != parts {
						t.Fatalf("discard=%v: %d map calls after engine %d round %d variant %d, want %d", discard, calls, e, round, v, parts)
					}
					// Served from the memo or computed, the job is the same job.
					if !sameCost(res, first) || len(res.Output) != len(first.Output) {
						t.Fatalf("discard=%v: engine %d round %d variant %d ran %v slot-s / %d records, first ran %v / %d",
							discard, e, round, v, res.SlotSeconds, len(res.Output), first.SlotSeconds, len(first.Output))
					}
					if !discard && len(res.Output) == 0 {
						t.Fatal("a reader was present but the memo path delivered no output")
					}
				}
			}
		}
		want := parts
		if discard {
			want = 2 * parts
		}
		for _, plane := range []bool{!discard, discard, !discard} {
			res := submitRun(t, newPlaneRig(t, noiseFree()), clones[1], plane)
			if calls != want {
				t.Fatalf("filled with discard=%v, then read with discard=%v: %d map calls, want %d", discard, plane, calls, want)
			}
			if !sameCost(res, first) {
				t.Fatalf("filled with discard=%v, read with discard=%v: ran %v slot-s, first ran %v", discard, plane, res.SlotSeconds, first.SlotSeconds)
			}
		}
	}
}

// TestCopiedStagesOwnTheirMemo: a Stage value copied into another slice —
// how a tracing harness wraps Compute — carries the memo slot along by
// value, but another Compute is another function: the copy must neither
// read the original's entries nor disturb them, and memoizes on its own.
func TestCopiedStagesOwnTheirMemo(t *testing.T) {
	const parts = 5
	halve := func(calls *int) engine.TaskFunc {
		return func(in []engine.Record) []engine.Record {
			*calls++
			return evens(in)
		}
	}
	for _, discard := range []bool{false, true} {
		calls, copyCalls, refCalls := 0, 0, 0
		base := countingJob("t", skewedInput(parts), &calls)
		r := newPlaneRig(t, noiseFree())
		submitRun(t, r, base, discard)

		wrapped := *base
		wrapped.Stages = append([]engine.Stage(nil), base.Stages...)
		wrapped.Stages[0].Compute = halve(&copyCalls)
		// What the copy must do, from a template that never met the original.
		ref := countingJob("ref", base.Input, new(int))
		ref.Stages[0].Compute = halve(&refCalls)
		want := submitRun(t, newPlaneRig(t, noiseFree()), ref, discard)

		for round := 0; round < 2; round++ {
			got := submitRun(t, newPlaneRig(t, noiseFree()), &wrapped, discard)
			if copyCalls != parts {
				t.Fatalf("discard=%v round %d: the copy's Compute ran %d times, want %d", discard, round, copyCalls, parts)
			}
			if !sameCost(got, want) || !reflect.DeepEqual(keyCounts(got.Output), keyCounts(want.Output)) {
				t.Fatalf("discard=%v round %d: the copy ran %v slot-s / %d records, its Compute alone gives %v / %d",
					discard, round, got.SlotSeconds, len(got.Output), want.SlotSeconds, len(want.Output))
			}
		}
		submitRun(t, r, base, discard)
		if calls != parts {
			t.Fatalf("discard=%v: the original made %d map calls around the copy's runs, want %d", discard, calls, parts)
		}
	}
}

// TestSubJobTruncationsShareTheirParentsMemo: a workload.SubJob is its
// parent's template over a prefix of its partitions, so growing and
// shrinking truncations and the parent itself, each on a fresh engine, fill
// every partition once — and each runs exactly as a template built from
// scratch over the same records does.
func TestSubJobTruncationsShareTheirParentsMemo(t *testing.T) {
	const parts = 9
	for _, discard := range []bool{false, true} {
		calls, filled := 0, 0
		base := countingJob("t", skewedInput(parts), &calls)
		for _, n := range []int{3, 6, parts, 4, 1} {
			sub, err := workload.SubJob(base, n)
			if err != nil {
				t.Fatal(err)
			}
			got := submitRun(t, newPlaneRig(t, noiseFree()), sub, discard)
			filled = max(filled, n)
			if calls != filled {
				t.Fatalf("discard=%v: %d map calls after the %d-partition truncation, want %d", discard, calls, n, filled)
			}
			ref := countingJob("ref", skewedInput(parts)[:n], new(int))
			ref.SizeBytes = sub.SizeBytes
			want := submitRun(t, newPlaneRig(t, noiseFree()), ref, discard)
			if !sameCost(got, want) || !reflect.DeepEqual(keyCounts(got.Output), keyCounts(want.Output)) {
				t.Fatalf("discard=%v: the %d-partition truncation ran %v slot-s / %d records, alone it runs %v / %d",
					discard, n, got.SlotSeconds, len(got.Output), want.SlotSeconds, len(want.Output))
			}
		}
	}
}

// TestConcurrentEnginesShareOneTemplate is the runner's shape — cells on
// worker goroutines, each with its own simulation and engine, all built
// over the same job templates — and is meaningful under -race: entries are
// published and read across goroutines, on both planes at once, while
// truncations force the memo to grow.
func TestConcurrentEnginesShareOneTemplate(t *testing.T) {
	const parts, variants, workers, rounds = 12, 3, 6, 3
	var calls atomic.Int64
	build := func() *engine.Job {
		job := countingJob("t", skewedInput(parts), new(int))
		job.Stages[0].Compute = func(in []engine.Record) []engine.Record {
			calls.Add(1)
			return echo(in)
		}
		return job
	}
	want := submitRun(t, newPlaneRig(t, noiseFree()), build(), false)
	serialCalls := calls.Load()

	base := build()
	clones := shallowClones(base, variants)
	short, err := workload.SubJob(base, parts/2)
	if err != nil {
		t.Fatal(err)
	}
	rigs := make([]*planeRig, workers)
	for w := range rigs {
		rigs[w] = newPlaneRig(t, noiseFree())
	}
	var wg sync.WaitGroup
	for w, r := range rigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			discard := w%2 == 1
			for round := 0; round < rounds; round++ {
				for _, job := range append([]*engine.Job{short}, clones...) {
					var res engine.JobResult
					if _, err := r.eng.Submit(job, engine.SubmitOptions{
						DiscardOutput: discard,
						OnComplete:    func(jr engine.JobResult) { res = jr },
					}); err != nil {
						t.Error(err)
						return
					}
					r.sim.Run()
					if job == short {
						continue
					}
					if !sameCost(res, want) {
						t.Errorf("worker %d round %d: %s ran %v slot-s, alone it runs %v", w, round, job.Name, res.SlotSeconds, want.SlotSeconds)
					}
					if !discard && !reflect.DeepEqual(keyCounts(res.Output), keyCounts(want.Output)) {
						t.Errorf("worker %d round %d: %s output differs from a serial run's", w, round, job.Name)
					}
				}
			}
		}()
	}
	wg.Wait()
	// Racing fills may repeat a partition; every worker filling every
	// partition itself would mean nothing was shared.
	if got := calls.Load() - serialCalls; got >= int64(workers*parts) {
		t.Errorf("%d workers made %d map calls over %d partitions: the template's memo was not shared", workers, got, parts)
	}
}

// TestMemoKeysDoNotCollide: templates that share a Stages array but not
// their input, or whose partitions start at the same record but differ in
// length, must each get their own entries — checked against a fresh engine
// per template on the payload plane, where nothing is shared.
func TestMemoKeysDoNotCollide(t *testing.T) {
	var calls int
	base := countingJob("base", skewedInput(6), &calls)
	// Same stages, other records of other sizes.
	other := *base
	other.Name, other.Input = "other-input", skewedInput(9)[3:]
	// Same stages, same first records, shorter partitions.
	prefix := *base
	prefix.Name, prefix.Input = "prefix", make(engine.Dataset, len(base.Input))
	for p, part := range base.Input {
		prefix.Input[p] = part[:len(part)-2]
	}
	templates := []*engine.Job{base, &other, &prefix}

	for _, discard := range []bool{false, true} {
		shared := newPlaneRig(t, noiseFree())
		for round := 0; round < 3; round++ {
			for _, job := range templates {
				got := submitRun(t, shared, job, discard)
				want := submitRun(t, newPlaneRig(t, noiseFree()), job, false)
				if !sameCost(got, want) {
					t.Errorf("discard=%v round %d: %s ran %v slot-s in %v on the shared engine, %v in %v alone",
						discard, round, job.Name, got.SlotSeconds, got.FinishedAt.Sub(got.StartedAt),
						want.SlotSeconds, want.FinishedAt.Sub(want.StartedAt))
				}
				if !discard && !reflect.DeepEqual(keyCounts(got.Output), keyCounts(want.Output)) {
					t.Errorf("round %d: %s output differs on the shared engine", round, job.Name)
				}
			}
		}
	}
}

func keyCounts(rs []engine.Record) map[string]int {
	m := make(map[string]int, len(rs))
	for _, r := range rs {
		m[r.Key]++
	}
	return m
}
