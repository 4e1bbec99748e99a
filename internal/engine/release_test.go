package engine_test

import (
	"reflect"
	"testing"

	"dias/internal/engine"
)

// ownedOutputs wraps every Compute of the job pj builds so that it returns
// its records in a fresh array of its own, one record longer in capacity,
// so a Release may write into it whatever the inner Compute returned (its
// input, a shared slice), and its first element's address names the call.
// Each stage with a Compute gets release(stage) as its Release; a stage
// without one keeps a nil Compute and gets never(stage).
func ownedOutputs(pj planeJob, computed func(stage int, out []engine.Record), release, never func(stage int) func([]engine.Record)) planeJob {
	build := pj.build
	pj.build = func(t *testing.T) *engine.Job {
		job := build(t)
		for si := range job.Stages {
			st := &job.Stages[si]
			inner := st.Compute
			if inner == nil {
				st.Release = never(si)
				continue
			}
			st.Compute = func(in []engine.Record) []engine.Record {
				res := inner(in)
				out := make([]engine.Record, len(res), len(res)+1)
				copy(out, res)
				computed(si, out)
				return out
			}
			st.Release = release(si)
		}
		return job
	}
	return pj
}

var poisonRecord = engine.Record{Key: "poison", Value: "poison"}

// TestReleaseComesAfterTheLastRead is the oracle pair released ≡ kept: a
// Release that overwrites every record it is handed must change nothing a
// caller can observe — not an output record, a count or a timing — on
// either plane, under every perturbation the plane tests use. It fails
// when the engine hands an output back before it has copied or counted
// it, or hands back one a memo keeps.
func TestReleaseComesAfterTheLastRead(t *testing.T) {
	for _, sc := range planeScenarios {
		for _, pj := range planeJobs {
			for _, discard := range []bool{false, true} {
				released := 0
				poison := func(int) func([]engine.Record) {
					return func(out []engine.Record) {
						released++
						for i := range out {
							out[i] = poisonRecord
						}
					}
				}
				unset := func(int) func([]engine.Record) { return nil }
				ignore := func(int, []engine.Record) {}
				got := runPlane(t, ownedOutputs(pj, ignore, poison, poison), sc, discard)
				want := runPlane(t, ownedOutputs(pj, ignore, unset, unset), sc, discard)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s discard=%v: a poisoning Release changed the run:\nreleased %+v\nkept     %+v", sc.name, pj.name, discard, got, want)
				}
				if pj.name != "nil-compute" && released == 0 {
					t.Errorf("%s/%s discard=%v: Release never ran", sc.name, pj.name, discard)
				}
			}
		}
	}
}

// TestReleaseCallAccounting: Release runs exactly once for each output
// Compute made and no memo keeps — once per executed task of a stage that
// reads shuffle output, unless its execution replays published shuffle
// totals, and once per count-only fill of an input-reading stage — and
// never for an output its memo keeps or for a nil Compute.
func TestReleaseCallAccounting(t *testing.T) {
	for _, sc := range planeScenarios {
		for _, pj := range planeJobs {
			for _, discard := range []bool{false, true} {
				name := sc.name + "/" + pj.name
				if discard {
					name += "/count-only"
				}
				outstanding := map[*engine.Record]int{} // fresh outputs not yet released, by stage
				var computes, releases [16]int
				computed := func(si int, out []engine.Record) {
					computes[si]++
					outstanding[&out[:1][0]] = si
				}
				release := func(si int) func([]engine.Record) {
					return func(out []engine.Record) {
						releases[si]++
						id := &out[:1][0]
						if owner, ok := outstanding[id]; !ok || owner != si {
							t.Errorf("%s: stage %d released an output it does not hold, or twice", name, si)
						}
						delete(outstanding, id)
					}
				}
				never := func(si int) func([]engine.Record) {
					return func([]engine.Record) { t.Errorf("%s: stage %d has no Compute but was released", name, si) }
				}
				var job *engine.Job
				traced := ownedOutputs(pj, computed, release, never)
				build := traced.build
				traced.build = func(t *testing.T) *engine.Job {
					job = build(t)
					return job
				}
				out := runPlane(t, traced, sc, discard)

				// A clean run — count-only, nothing dropped — after the first
				// one that completed replays the shuffle totals that one
				// published: it computes nothing, so it releases nothing.
				executed := make([]int, len(job.Stages))
				published := false
				for _, res := range out.Results {
					clean := discard && res.TasksDropped == 0
					if !clean || !published {
						for si, st := range res.Stages {
							executed[si] += st.TasksExecuted
						}
					}
					published = published || clean && !res.Failed
				}
				// A stage carries records when a ShuffleMap stage or a kept
				// Result reads them; an input-reading stage that carries
				// keeps its outputs in its memo.
				carries := make([]bool, len(job.Stages))
				for si := range job.Stages {
					st := &job.Stages[si]
					if st.Kind == engine.Result {
						carries[si] = !discard
					}
					for _, d := range st.Deps {
						carries[d] = carries[d] || st.Kind == engine.ShuffleMap || carries[si]
					}
				}
				kept := func(si int) bool { return len(job.Stages[si].Deps) == 0 && carries[si] }
				for si := range job.Stages {
					st := &job.Stages[si]
					switch {
					case kept(si) && releases[si] != 0:
						t.Errorf("%s: stage %d: its memo keeps every output, yet %d were released", name, si, releases[si])
					case !kept(si) && releases[si] != computes[si]:
						t.Errorf("%s: stage %d: %d outputs computed, %d released", name, si, computes[si], releases[si])
					}
					// A kill ends tasks that no result counts.
					computedByTask := st.Compute != nil && (st.Kind == engine.ShuffleMap || carries[si])
					if len(st.Deps) > 0 && len(out.Attempts) == 0 && computedByTask && releases[si] != executed[si] {
						t.Errorf("%s: stage %d: %d tasks executed, %d outputs released", name, si, executed[si], releases[si])
					}
				}
				for _, si := range outstanding {
					if !kept(si) {
						t.Errorf("%s: stage %d kept an output no memo holds and never released it", name, si)
					}
				}
			}
		}
	}
}
