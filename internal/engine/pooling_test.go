package engine

import (
	"math/rand"
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
	if r.eng.ActiveJobs() != 0 {
		t.Fatalf("%d jobs still active", r.eng.ActiveJobs())
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
		if oneShot != reused {
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
