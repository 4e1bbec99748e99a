package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dias/internal/simtime"
)

// TestExecutionReuseKeepsResultsIsolated guards the execution freelist:
// what escapes through a JobResult (Output, Stages) must stay intact
// while the pooled execution struct is reused for later submissions that
// rewrite its internal shuffle buckets and stage bookkeeping.
func TestExecutionReuseKeepsResultsIsolated(t *testing.T) {
	r := newRig(t, 4, flatCost(1))
	job := wordCountJob(makeInput(6, 4), 3)
	var results []JobResult
	runOne := func() {
		r.sim.At(r.sim.Now(), func() {
			if _, err := r.eng.Submit(job, SubmitOptions{
				OnComplete: func(res JobResult) { results = append(results, res) },
			}); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
		r.sim.Run()
	}
	for i := 0; i < 4; i++ {
		runOne()
	}
	if len(results) != 4 {
		t.Fatalf("completed %d jobs, want 4", len(results))
	}
	first := results[0]
	for i, res := range results {
		if len(res.Output) != len(first.Output) {
			t.Fatalf("run %d output has %d records, run 0 had %d", i, len(res.Output), len(first.Output))
		}
		if len(res.Stages) != 2 || res.Stages[0].TasksExecuted != 6 {
			t.Fatalf("run %d stage stats corrupted: %+v", i, res.Stages)
		}
		counts := map[string]float64{}
		for _, rec := range res.Output {
			counts[rec.Key] = rec.Value.(float64)
		}
		for _, rec := range first.Output {
			if counts[rec.Key] != rec.Value.(float64) {
				t.Fatalf("run %d output diverged at %q: %v vs %v",
					i, rec.Key, counts[rec.Key], rec.Value)
			}
		}
	}
}

// TestExecutionReuseAcrossShapes reuses the pool across jobs of different
// stage counts and fan-outs, ensuring resized bookkeeping never leaks
// state between lives.
func TestExecutionReuseAcrossShapes(t *testing.T) {
	r := newRig(t, 4, flatCost(1))
	wide := wordCountJob(makeInput(8, 2), 6)
	narrow := &Job{
		Name:   "narrow",
		Input:  makeInput(3, 2),
		Stages: []Stage{{Kind: Result}},
	}
	done := 0
	submit := func(j *Job) {
		r.sim.At(r.sim.Now(), func() {
			if _, err := r.eng.Submit(j, SubmitOptions{
				OnComplete: func(res JobResult) {
					done++
					if res.Failed {
						t.Errorf("job %s failed: %s", res.Name, res.FailureReason)
					}
					if res.TasksExecuted != res.TasksTotal {
						t.Errorf("job %s executed %d of %d tasks with no dropping",
							res.Name, res.TasksExecuted, res.TasksTotal)
					}
				},
			}); err != nil {
				t.Errorf("submit %s: %v", j.Name, err)
			}
		})
		r.sim.Run()
	}
	for i := 0; i < 3; i++ {
		submit(wide)
		submit(narrow)
	}
	if done != 6 {
		t.Fatalf("completed %d jobs, want 6", done)
	}
}

// TestOrphanStageOutlivesResult pins the degenerate-DAG guard on the
// execution pool: a Validate-legal job whose ShuffleMap stage has no
// dependents can still have tasks in flight when the Result stage
// completes the job. Such an execution must not be recycled out from
// under them — the orphan tasks run out harmlessly, as before pooling.
func TestOrphanStageOutlivesResult(t *testing.T) {
	r := newRig(t, 4, flatCost(1))
	job := &Job{
		Name:  "orphan",
		Input: makeInput(2, 1),
		Stages: []Stage{
			// Orphan: no stage depends on it, and its per-record cost keeps
			// it running long after the Result stage is done.
			{Name: "orphan", Kind: ShuffleMap, OutPartitions: 2, PerRecordSec: 100},
			{Name: "out", Kind: Result},
		},
	}
	completions := 0
	submit := func() {
		r.sim.At(r.sim.Now(), func() {
			if _, err := r.eng.Submit(job, SubmitOptions{
				OnComplete: func(res JobResult) { completions++ },
			}); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	// Two back-to-back submissions: if the first orphaned execution were
	// recycled while its slow stage still runs, the second submission
	// would land on corrupted state (or the orphan completion would
	// panic).
	submit()
	r.sim.Run()
	submit()
	r.sim.Run()
	if completions != 2 {
		t.Fatalf("completed %d jobs, want 2", completions)
	}
}

// TestFindMissingPartitionsEquivalence pins the scratch-buffer clone to
// the exported selection it replaces on the hot path: for any (seed, n,
// theta) both must consume the same RNG draws and select the same
// partitions, or figure outputs silently drift.
func TestFindMissingPartitionsEquivalence(t *testing.T) {
	r := newRig(t, 1, flatCost(1))
	metaRng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		seed := metaRng.Int63()
		n := metaRng.Intn(64)
		theta := metaRng.Float64()*1.6 - 0.3 // exercises both clamps
		exported := FindMissingPartitions(rand.New(rand.NewSource(seed)), n, theta)
		r.eng.rng = rand.New(rand.NewSource(seed))
		scratch := r.eng.findMissingPartitions(n, theta)
		if len(exported) != len(scratch) {
			t.Fatalf("seed=%d n=%d theta=%g: exported selected %d, scratch %d",
				seed, n, theta, len(exported), len(scratch))
		}
		for i := range exported {
			if exported[i] != scratch[i] {
				t.Fatalf("seed=%d n=%d theta=%g: selection diverges at %d: %v vs %v",
					seed, n, theta, i, exported, scratch)
			}
		}
		// Same draws consumed: the next value from both streams must match.
		want := rand.New(rand.NewSource(seed))
		FindMissingPartitions(want, n, theta)
		if got, wantNext := r.eng.rng.Int63(), want.Int63(); got != wantNext {
			t.Fatalf("seed=%d n=%d theta=%g: RNG streams diverged after selection", seed, n, theta)
		}
	}
}

// TestKillRecyclesExecution pins the eviction path: killing a job frees
// its pooled execution, stale setup events cannot resurrect it, and the
// next submission runs cleanly on the recycled struct.
func TestKillRecyclesExecution(t *testing.T) {
	r := newRig(t, 2, flatCost(1))
	job := wordCountJob(makeInput(4, 2), 2)
	var killed bool
	r.sim.At(0, func() {
		id, err := r.eng.Submit(job, SubmitOptions{})
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		// Kill during setup: the deferred startReadyStages event is still
		// pending and must be ignored after the id is retired.
		r.sim.At(simtime.Time(0.5), func() {
			if _, err := r.eng.Kill(id); err != nil {
				t.Errorf("kill: %v", err)
			}
			killed = true
		})
	})
	r.sim.Run()
	if !killed {
		t.Fatal("kill never ran")
	}
	completed := false
	r.sim.At(r.sim.Now(), func() {
		if _, err := r.eng.Submit(job, SubmitOptions{
			OnComplete: func(res JobResult) { completed = !res.Failed },
		}); err != nil {
			t.Errorf("resubmit: %v", err)
		}
	})
	r.sim.Run()
	if !completed {
		t.Fatal("recycled execution did not complete the follow-up job")
	}
	if len(r.eng.execs) != 0 {
		t.Fatalf("%d jobs still active", len(r.eng.execs))
	}
}

// TestOneShotTemplateWithoutComputeCostsNoMemo pins the spine path: a
// template with no Compute has nothing to memoize, so one that is submitted
// once costs its engine exactly the allocations a re-submitted one does,
// and its memo slots stay empty on both planes.
func TestOneShotTemplateWithoutComputeCostsNoMemo(t *testing.T) {
	const runs = 50
	spine := func() *Job {
		return &Job{
			Name:  "spine",
			Input: makeInput(6, 3),
			Stages: []Stage{
				{Name: "map", Kind: ShuffleMap, OutPartitions: 3},
				{Name: "out", Kind: Result, Deps: []int{0}},
			},
		}
	}
	for _, discard := range []bool{false, true} {
		r := newRig(t, 4, flatCost(1))
		opts := SubmitOptions{DiscardOutput: discard}
		submit := func(job *Job) {
			if _, err := r.eng.Submit(job, opts); err != nil {
				t.Fatal(err)
			}
			r.sim.Run()
		}
		fresh := make([]*Job, 0, runs+1) // AllocsPerRun calls once more to warm up
		for len(fresh) < cap(fresh) {
			fresh = append(fresh, spine())
		}
		reused := testing.AllocsPerRun(runs, func() { submit(fresh[0]) })
		next := 0
		oneShot := testing.AllocsPerRun(runs, func() {
			submit(fresh[next])
			next++
		})
		// The payload plane's bucket hand-off goes through a sync.Pool, which
		// the race detector makes lossy: allocation counts then vary per run.
		if oneShot != reused && (discard || !raceEnabled) {
			t.Errorf("discard=%v: a one-shot template costs %v allocs, a re-submitted one %v", discard, oneShot, reused)
		}
		for _, job := range fresh {
			for si := range job.Stages {
				if job.Stages[si].memo.Load() != nil {
					t.Fatalf("discard=%v: stage %d of a template without Compute got a memo", discard, si)
				}
			}
		}
	}
}

// chainJob is a deterministic three-stage payload job: two identity
// shuffles and an identity Result, so both shuffle stages carry records
// whenever the output is kept.
func chainJob(input Dataset, fanOut int) *Job {
	return &Job{
		Name:  "chain",
		Input: input,
		Stages: []Stage{
			{Name: "a", Kind: ShuffleMap, OutPartitions: fanOut},
			{Name: "b", Kind: ShuffleMap, OutPartitions: fanOut, Deps: []int{0}},
			{Name: "out", Kind: Result, Deps: []int{1}},
		},
	}
}

// liveShuffle returns the bucket set of the engine's one live execution.
func liveShuffle(t *testing.T, e *Engine) *shuffleBuffers {
	t.Helper()
	if len(e.execOrder) != 1 {
		t.Fatalf("%d live executions, want 1", len(e.execOrder))
	}
	return e.execOrder[0].shuffle
}

// heldRecords counts the non-zero records a bucket set holds anywhere in
// its arrays, beyond every length and up to every capacity.
func heldRecords(sb *shuffleBuffers) int {
	held := 0
	stages := sb.outputs[:cap(sb.outputs)]
	for _, buckets := range stages {
		for _, bucket := range buckets[:cap(buckets)] {
			for _, r := range bucket[:cap(bucket)] {
				if r != (Record{}) {
					held++
				}
			}
		}
	}
	return held
}

// bucketArrays lists the backing array of every bucket that has one.
func bucketArrays(sb *shuffleBuffers) []*Record {
	var arrays []*Record
	for _, buckets := range sb.outputs {
		for _, bucket := range buckets {
			if cap(bucket) > 0 {
				arrays = append(arrays, &bucket[:1][0])
			}
		}
	}
	return arrays
}

// TestReleasedBucketsPinNothing follows one execution's bucket set
// through each way a job can end — completion, eviction, failure — and
// requires that it comes out holding no record of the dead job anywhere
// up to capacity, and that neither the engine's pooled execution nor the
// live one of a count-only job holds a set at all.
func TestReleasedBucketsPinNothing(t *testing.T) {
	endings := []struct {
		name string
		end  func(t *testing.T, r *testRig, id JobID)
	}{
		{"complete", func(*testing.T, *testRig, JobID) {}},
		{"kill", func(t *testing.T, r *testRig, id JobID) {
			if _, err := r.eng.Kill(id); err != nil {
				t.Errorf("kill: %v", err)
			}
		}},
		{"fail", func(t *testing.T, r *testRig, id JobID) {
			r.eng.failJob(r.eng.execs[id], "injected")
		}},
	}
	for _, ending := range endings {
		t.Run(ending.name, func(t *testing.T) {
			r := newRig(t, 2, flatCost(1))
			job := chainJob(makeInput(6, 5), 3)
			var sb *shuffleBuffers
			ended := false
			r.sim.At(0, func() {
				id, err := r.eng.Submit(job, SubmitOptions{OnComplete: func(JobResult) { ended = true }})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// 3 waves of stage a end at t=3; halfway through stage b the
				// buckets of a are full and those of b are filling.
				r.sim.At(simtime.Time(4.5), func() {
					sb = liveShuffle(t, r.eng)
					if sb == nil || heldRecords(sb) == 0 {
						t.Errorf("mid-run bucket set holds no records: %+v", sb)
					}
					ending.end(t, r, id)
				})
			})
			r.sim.Run()
			if sb == nil {
				t.Fatal("never saw the live bucket set")
			}
			if ending.name != "kill" && !ended {
				t.Fatal("OnComplete never ran")
			}
			if held := heldRecords(sb); held != 0 {
				t.Errorf("released bucket set still holds %d records", held)
			}
			if len(r.eng.execs) != 0 || len(r.eng.execFree) != 1 {
				t.Fatalf("%d active jobs, %d pooled executions; want 0 and 1", len(r.eng.execs), len(r.eng.execFree))
			}
			if r.eng.execFree[0].shuffle != nil {
				t.Error("the pooled execution kept its bucket set")
			}
		})
	}
}

// TestCountOnlyExecutionTakesNoBuckets pins the spine path: when no stage
// carries records the execution neither takes nor returns a bucket set.
func TestCountOnlyExecutionTakesNoBuckets(t *testing.T) {
	r := newRig(t, 2, flatCost(1))
	job := &Job{
		Name:  "spine",
		Input: makeInput(4, 2),
		Stages: []Stage{
			{Name: "map", Kind: ShuffleMap, OutPartitions: 2},
			{Name: "out", Kind: Result, Deps: []int{0}},
		},
	}
	created := 0
	saved := shuffleBufferPool.New
	shuffleBufferPool.New = func() any { created++; return saved() }
	defer func() { shuffleBufferPool.New = saved }()
	done := false
	peeked := false
	r.sim.At(0, func() {
		if _, err := r.eng.Submit(job, SubmitOptions{DiscardOutput: true, OnComplete: func(JobResult) { done = true }}); err != nil {
			t.Errorf("submit: %v", err)
		}
		for _, at := range []simtime.Time{0.5, 1.5, 2.5} {
			r.sim.At(at, func() {
				peeked = true
				if sb := liveShuffle(t, r.eng); sb != nil {
					t.Errorf("count-only execution holds a bucket set at t=%v", at)
				}
			})
		}
	})
	r.sim.Run()
	if !done || !peeked {
		t.Fatalf("done=%v peeked=%v", done, peeked)
	}
	if created != 0 {
		t.Errorf("a count-only job created %d bucket sets", created)
	}
}

// TestSynchronousResubmitReusesBuckets pins the hand-off order: the bucket
// set goes back before OnComplete, so the job a completion hook submits on
// the spot fills the very arrays its predecessor grew, and grows none.
func TestSynchronousResubmitReusesBuckets(t *testing.T) {
	r := newRig(t, 2, flatCost(1))
	job := chainJob(makeInput(6, 5), 3)
	const jobs = 6
	var sets []*shuffleBuffers
	var arrays [][]*Record
	var outputs [][]Record
	var opts SubmitOptions
	submit := func() {
		if _, err := r.eng.Submit(job, opts); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		// Stage b runs over [3, 6) after the job's start.
		r.sim.After(simtime.Duration(4.5), func() {
			sb := liveShuffle(t, r.eng)
			sets = append(sets, sb)
			arrays = append(arrays, bucketArrays(sb))
		})
	}
	opts.OnComplete = func(res JobResult) {
		outputs = append(outputs, res.Output)
		if !raceEnabled {
			// The set this job ran on is already back in the pool.
			sb := shuffleBufferPool.Get().(*shuffleBuffers)
			if len(sets) != len(outputs) || sb != sets[len(sets)-1] {
				t.Errorf("job %d: its bucket set was not released before OnComplete", len(outputs)-1)
			}
			shuffleBufferPool.Put(sb)
		}
		if len(outputs) < jobs {
			submit()
		}
	}
	r.sim.At(0, submit)
	r.sim.Run()
	if len(outputs) != jobs || len(sets) != jobs {
		t.Fatalf("%d jobs completed, %d observed mid-run; want %d", len(outputs), len(sets), jobs)
	}
	for i := 1; i < jobs; i++ {
		if !reflect.DeepEqual(outputs[i], outputs[0]) {
			t.Fatalf("job %d output differs from job 0", i)
		}
		if raceEnabled {
			continue
		}
		if sets[i] != sets[0] {
			t.Errorf("job %d ran on a different bucket set than job 0", i)
		}
		if !reflect.DeepEqual(arrays[i], arrays[1]) {
			t.Errorf("job %d grew or moved bucket arrays: %d arrays, job 1 had %d", i, len(arrays[i]), len(arrays[1]))
		}
	}
	// The struct is still recycled only after OnComplete, so two of them
	// took turns over the one bucket set.
	if len(r.eng.execFree) != 2 {
		t.Errorf("%d pooled executions after the chain, want 2", len(r.eng.execFree))
	}
}

// TestFreshEngineIgnoresBucketHistory runs the same job on fresh engines
// that find, in turn, whatever earlier tests left behind, a set released
// by a job of another shape (more stages, wider fan-out, larger buckets),
// and nothing at all: the results are the same records in the same order.
func TestFreshEngineIgnoresBucketHistory(t *testing.T) {
	run := func(job *Job) JobResult {
		r := newRig(t, 2, flatCost(1))
		var res JobResult
		if _, err := r.eng.Submit(job, SubmitOptions{OnComplete: func(got JobResult) { res = got }}); err != nil {
			t.Fatal(err)
		}
		r.sim.Run()
		return res
	}
	job := chainJob(makeInput(6, 5), 3)
	first := run(job)
	if len(first.Output) != 30 {
		t.Fatalf("output has %d records, want 30", len(first.Output))
	}
	wide := chainJob(makeInput(9, 40), 7)
	wide.Stages = append([]Stage{{Name: "pre", Kind: ShuffleMap, OutPartitions: 7}}, wide.Stages...)
	wide.Stages[1].Deps, wide.Stages[2].Deps, wide.Stages[3].Deps = []int{0}, []int{1}, []int{2}
	if got := run(wide); len(got.Output) != 360 {
		t.Fatalf("wide output has %d records, want 360", len(got.Output))
	}
	afterWide := run(job)
	// Two collections empty a sync.Pool (the second drops the victims).
	runtime.GC()
	runtime.GC()
	afterNothing := run(job)
	for name, got := range map[string]JobResult{"after a wider job": afterWide, "after an emptied pool": afterNothing} {
		if !reflect.DeepEqual(got.Output, first.Output) || !reflect.DeepEqual(got.Stages, first.Stages) || got.FinishedAt != first.FinishedAt {
			t.Errorf("%s: result differs from the first run", name)
		}
	}
}

// TestOrphanStageKeepsItsBuckets extends the degenerate-DAG guard to the
// bucket hand-off: an orphan ShuffleMap stage that still reads a parent's
// buckets when the Result stage completes the job must find them intact,
// so such an execution keeps its set (and its struct) to the end.
func TestOrphanStageKeepsItsBuckets(t *testing.T) {
	r := newRig(t, 4, flatCost(1))
	seen := 0
	job := &Job{
		Name:  "orphan-reader",
		Input: makeInput(2, 3),
		Stages: []Stage{
			{Name: "src", Kind: ShuffleMap, OutPartitions: 2},
			{Name: "orphan", Kind: ShuffleMap, OutPartitions: 2, Deps: []int{0}, PerRecordSec: 100,
				Compute: func(in []Record) []Record {
					for _, rec := range in {
						if rec.Key != "" {
							seen++
						}
					}
					return in
				}},
			{Name: "out", Kind: Result, Deps: []int{0}},
		},
	}
	completed := false
	var pooledAtCompletion int
	if _, err := r.eng.Submit(job, SubmitOptions{OnComplete: func(JobResult) {
		completed = true
		pooledAtCompletion = len(r.eng.execFree)
	}}); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	if !completed {
		t.Fatal("job did not complete")
	}
	if seen != 6 {
		t.Errorf("the orphan stage read %d intact records after the job completed, want 6", seen)
	}
	if pooledAtCompletion != 0 || len(r.eng.execFree) != 0 {
		t.Errorf("an execution with an orphan stage in flight was recycled (%d at completion, %d at the end)",
			pooledAtCompletion, len(r.eng.execFree))
	}
}
