package engine

import (
	"slices"
	"testing"

	"dias/internal/simtime"
)

// delayCost gives the delay job a setup of 2 s, 1 s tasks and a 5 s
// shuffle: setup [0,2), map [2,3), shuffle [3,8), out [8,9).
func delayCost() CostModel {
	return CostModel{TaskOverheadSec: 1, SetupBaseSec: 2, ShuffleBaseSec: 5}
}

const delayJobSec = 9

// delayJob is a two-stage job with both kinds of delay event: the setup
// before stage map and the shuffle between the stages.
func delayJob() *Job {
	return &Job{
		Name:  "delays",
		Input: makeInput(2, 1),
		Stages: []Stage{
			{Name: "map", Kind: ShuffleMap, OutPartitions: 2},
			{Name: "out", Kind: Result, Deps: []int{0}},
		},
	}
}

// pooled reports whether ex is on the engine's execution freelist.
func pooled(e *Engine, ex *execution) bool { return slices.Contains(e.execFree, ex) }

// TestStaleDelayEventsFireAndRecycle ends a job while one of its delay
// events is queued — killed during setup, killed during the shuffle delay,
// failed during the shuffle delay — and pins three things. The stale event
// is not cancelled: it fires at its original instant, so when it is the
// last event the run ends exactly there. Until it has fired the job's
// struct stays off the freelist, and afterwards it is back on it. A job
// submitted right after the end — from the same event after Kill, or from
// OnComplete after a failure — runs on another struct and is undisturbed
// by the stale event.
func TestStaleDelayEventsFireAndRecycle(t *testing.T) {
	endings := []struct {
		name      string
		endAt     simtime.Time
		staleAt   simtime.Time
		kill      bool
		completes bool // the ending reports through OnComplete
	}{
		{"kill during setup", 1, 2, true, false},
		{"kill during shuffle", 5, 8, true, false},
		{"fail during shuffle", 5, 8, false, true},
	}
	for _, ending := range endings {
		for _, resubmit := range []bool{false, true} {
			name := ending.name
			if resubmit {
				name += "/resubmit"
			}
			t.Run(name, func(t *testing.T) {
				r := newRig(t, 2, delayCost())
				var first, second *execution
				var secondRes JobResult
				submitSecond := func() {
					id, err := r.eng.Submit(delayJob(), SubmitOptions{DiscardOutput: true, OnComplete: func(res JobResult) { secondRes = res }})
					if err != nil {
						t.Fatal(err)
					}
					second = r.eng.execs[id]
				}
				opts := SubmitOptions{DiscardOutput: true}
				if ending.completes && resubmit {
					opts.OnComplete = func(res JobResult) {
						if !res.Failed {
							t.Errorf("the first job did not fail: %+v", res)
						}
						submitSecond()
					}
				}
				id, err := r.eng.Submit(delayJob(), opts)
				if err != nil {
					t.Fatal(err)
				}
				first = r.eng.execs[id]
				r.sim.At(ending.endAt, func() {
					if ending.kill {
						if _, err := r.eng.Kill(id); err != nil {
							t.Fatal(err)
						}
						if resubmit {
							submitSecond()
						}
					} else {
						r.eng.failJob(first, "injected")
					}
					if first.delays != 1 || !first.retired || pooled(r.eng, first) {
						t.Errorf("after the end: delays=%d retired=%v pooled=%v; want 1, true, false",
							first.delays, first.retired, pooled(r.eng, first))
					}
					if !resubmit {
						if next, ok := r.sim.NextEventTime(); !ok || next != ending.staleAt || r.sim.Pending() != 1 {
							t.Errorf("queue after the end: next %v/%v, %d pending; want the stale event at %v alone",
								next, ok, r.sim.Pending(), ending.staleAt)
						}
					}
					r.sim.At(ending.staleAt-0.5, func() {
						if pooled(r.eng, first) {
							t.Error("the struct was recycled before its stale event fired")
						}
					})
				})
				r.sim.Run()
				if !pooled(r.eng, first) || first.delays != 0 {
					t.Errorf("after the run: pooled=%v delays=%d; want true, 0", pooled(r.eng, first), first.delays)
				}
				if !resubmit {
					// The stale event was last, so the run ends at its instant.
					if got := r.sim.Now(); got != ending.staleAt {
						t.Errorf("the run ended at %v, want %v (the stale event)", got, ending.staleAt)
					}
					return
				}
				if second == nil || second == first {
					t.Fatalf("the second job ran on %p, the first on %p", second, first)
				}
				if secondRes.Failed || secondRes.TasksExecuted != 4 ||
					secondRes.FinishedAt.Sub(secondRes.StartedAt) != delayJobSec {
					t.Errorf("the second job was disturbed: %+v", secondRes)
				}
				if !pooled(r.eng, first) || !pooled(r.eng, second) {
					t.Error("both structs should be pooled once the run drains")
				}
			})
		}
	}
}

// TestOrphanShuffleDelayOutlivesCompletion covers the degenerate DAG whose
// orphan ShuffleMap stage finished its tasks before the Result stage but
// whose shuffle delay is still queued when the job completes. The job's
// struct must wait for that delay: a job OnComplete submits on the spot
// runs elsewhere, the delay fires at its instant as a no-op, and only then
// is the struct pooled.
func TestOrphanShuffleDelayOutlivesCompletion(t *testing.T) {
	// Setup 0; both input stages run [0,1). The orphan emits 10 records per
	// input record, so its shuffle lasts 1+20 s and ends at 22; the map's
	// lasts 1+2 s, so out runs [4,5) and the job completes at 5.
	cost := CostModel{TaskOverheadSec: 1, ShuffleBaseSec: 1, ShufflePerRecordSec: 1}
	job := func() *Job {
		return &Job{
			Name:  "orphan-delay",
			Input: makeInput(2, 1),
			Stages: []Stage{
				{Name: "orphan", Kind: ShuffleMap, OutPartitions: 2, Compute: func(in []Record) []Record {
					out := make([]Record, 0, 10*len(in))
					for range 10 {
						out = append(out, in...)
					}
					return out
				}},
				{Name: "map", Kind: ShuffleMap, OutPartitions: 2},
				{Name: "out", Kind: Result, Deps: []int{1}},
			},
		}
	}
	for _, resubmit := range []bool{false, true} {
		r := newRig(t, 4, cost)
		var first, second *execution
		var firstRes, secondRes JobResult
		opts := SubmitOptions{OnComplete: func(res JobResult) {
			firstRes = res
			if !resubmit {
				return
			}
			id, err := r.eng.Submit(job(), SubmitOptions{OnComplete: func(res JobResult) { secondRes = res }})
			if err != nil {
				t.Fatal(err)
			}
			second = r.eng.execs[id]
		}}
		id, err := r.eng.Submit(job(), opts)
		if err != nil {
			t.Fatal(err)
		}
		first = r.eng.execs[id]
		r.sim.At(21.5, func() {
			if pooled(r.eng, first) || first.delays != 1 {
				t.Errorf("resubmit=%v: before the orphan's delay: pooled=%v delays=%d", resubmit, pooled(r.eng, first), first.delays)
			}
		})
		r.sim.Run()
		if firstRes.FinishedAt != 5 || firstRes.Failed {
			t.Fatalf("resubmit=%v: first job %+v, want completed at 5", resubmit, firstRes)
		}
		if !pooled(r.eng, first) {
			t.Errorf("resubmit=%v: the struct was not pooled after its last delay", resubmit)
		}
		if !resubmit {
			if got := r.sim.Now(); got != 22 {
				t.Errorf("the run ended at %v, want 22 (the orphan's shuffle delay)", got)
			}
			continue
		}
		if second == nil || second == first {
			t.Fatalf("the resubmitted job ran on %p, the completed one on %p", second, first)
		}
		if secondRes.FinishedAt.Sub(secondRes.StartedAt) != 5 || secondRes.Failed {
			t.Errorf("the resubmitted job was disturbed: %+v", secondRes)
		}
	}
}
