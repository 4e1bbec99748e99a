package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"dias/internal/analytics"
	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/runner"
	"dias/internal/simtime"
	"dias/internal/workload"
)

// withReplay runs fn with the replay of published shuffle totals switched
// on or off.
func withReplay(on bool, fn func()) {
	was := engine.SetReplay(on)
	defer engine.SetReplay(was)
	fn()
}

// TestReplayMatchesRecompute is the oracle pair replayed ≡ recomputed: a
// clean execution that replays its template's published shuffle totals
// must run exactly as one that computes every stage — every JobResult,
// attempt and end-of-run figure byte for byte — on every plane shape
// under every perturbation, with the shape's drops (nothing is clean) and
// with none (every submission is). Replay must never call Compute more,
// and must call it less where a ShuffleMap stage computes over shuffle
// output.
func TestReplayMatchesRecompute(t *testing.T) {
	for _, sc := range planeScenarios {
		for _, pj := range planeJobs {
			for _, drops := range [][]float64{pj.drops, nil} {
				name := fmt.Sprintf("%s/%s/drops=%v", sc.name, pj.name, drops)
				pj := pj
				pj.drops = drops
				var calls int
				counted := ownedOutputs(pj, func(int, []engine.Record) { calls++ },
					func(int) func([]engine.Record) { return nil },
					func(int) func([]engine.Record) { return nil })
				var on, off string
				withReplay(true, func() { on = fmt.Sprintf("%+v", *runPlane(t, counted, sc, true)) })
				onCalls := calls
				calls = 0
				withReplay(false, func() { off = fmt.Sprintf("%+v", *runPlane(t, counted, sc, true)) })
				offCalls := calls
				if on != off {
					t.Errorf("%s: replay changed the run:\nreplayed   %s\nrecomputed %s", name, on, off)
				}
				if onCalls > offCalls || drops == nil && computesShuffled(pj.build(t)) && onCalls == offCalls {
					t.Errorf("%s: %d Compute calls replayed, %d recomputed", name, onCalls, offCalls)
				}
			}
		}
	}
}

// computesShuffled reports whether a ShuffleMap stage of job computes over
// shuffle output: a clean execution runs its Compute on every task, a
// replayed one never. (Input-reading stages are memoized either way.)
func computesShuffled(job *engine.Job) bool {
	for si := range job.Stages {
		st := &job.Stages[si]
		if st.Kind == engine.ShuffleMap && len(st.Deps) > 0 && st.Compute != nil {
			return true
		}
	}
	return false
}

// triangleCell runs one runner cell: its own simulation, cluster and
// engine, on which a stream of overlapping triangle-count jobs over the
// shared template arrives, every third one dropping tasks as DiAS drops
// the low class and the rest clean. It returns everything the cell lets a
// caller observe, rendered.
func triangleCell(job *engine.Job, seed int64) (string, error) {
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.CoresPerNode = 4, 2
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		return "", err
	}
	eng, err := engine.New(sim, clu, nil, planeCost(), seed)
	if err != nil {
		return "", err
	}
	var results []engine.JobResult
	var submitErr error
	for i := 0; i < 12; i++ {
		var drops []float64
		if i%3 == 0 {
			drops = []float64{0, 0.3, 0.3, 0.3, 0.3, 0.3}
		}
		sim.At(simtime.Time(0).Add(simtime.Duration(7*i+int(seed))), func() {
			if _, err := eng.Submit(job, engine.SubmitOptions{
				DropRatios:    drops,
				DiscardOutput: true,
				OnComplete:    func(res engine.JobResult) { results = append(results, res) },
			}); err != nil {
				submitErr = err
			}
		})
	}
	sim.Run()
	if submitErr != nil {
		return "", submitErr
	}
	return fmt.Sprintf("%+v end=%v busy=%v energy=%v", results, sim.Now(), clu.BusySlotSeconds(), clu.EnergyJoules()), nil
}

// TestReplayMatchesRecomputeAcrossWorkers runs triangle-count cells over
// one template on a runner pool of 1 and of 8 workers, so totals are
// published and replayed across goroutines (meaningful under -race), with
// replay on and off: all four runs must render every cell byte for byte
// alike, and with replay on the clean jobs must have skipped Compute calls.
func TestReplayMatchesRecomputeAcrossWorkers(t *testing.T) {
	const cells = 8
	edges, err := workload.SynthesizeGraph(rand.New(rand.NewSource(9)), workload.GraphConfig{Nodes: 120, EdgesPerNode: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]string, int64) {
		var calls atomic.Int64
		job := analytics.TriangleCountJob("tc", analytics.EdgeDataset(edges, 8), 6, 1<<26)
		for si := range job.Stages {
			inner := job.Stages[si].Compute
			job.Stages[si].Compute = func(in []engine.Record) []engine.Record {
				calls.Add(1)
				return inner(in)
			}
		}
		tasks := make([]runner.Task[string], cells)
		for c := range tasks {
			tasks[c] = func(context.Context) (string, error) { return triangleCell(job, int64(c+1)) }
		}
		out, err := runner.Map(context.Background(), runner.New(workers), tasks)
		if err != nil {
			t.Fatal(err)
		}
		return out, calls.Load()
	}
	var want []string
	var recomputed int64
	withReplay(false, func() { want, recomputed = run(1) })
	for _, on := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			var got []string
			var calls int64
			withReplay(on, func() { got, calls = run(workers) })
			for c := range got {
				if got[c] != want[c] {
					t.Errorf("replay=%v workers=%d: cell %d differs from a serial recompute:\ngot  %s\nwant %s", on, workers, c, got[c], want[c])
				}
			}
			if on && calls >= recomputed {
				t.Errorf("replay=%v workers=%d: %d Compute calls, %d when recomputing: nothing was replayed", on, workers, calls, recomputed)
			}
		}
	}
}
