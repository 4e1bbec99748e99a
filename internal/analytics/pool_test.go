package analytics

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/simtime"
)

// TestReleasedRecordsPinNothing: an output array handed back through a
// stage's Release comes out of the pool with every record zero, its whole
// capacity included, so a pooled array keeps no key or value of a
// finished task alive. The dedup input holds duplicates, so that stage
// writes past the length it returns.
func TestReleasedRecordsPinNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled arrays at random")
	}
	rng := rand.New(rand.NewSource(9))
	edges := baGraph(rng, 40, 3)
	in := EdgeDataset(append(edges, edges[:20]...), 1)[0]
	stages := TriangleCountJob("pin", nil, 1, 0).Stages
	recycled := 0
	for si := range stages {
		st := &stages[si]
		out := st.Compute(in)
		if st.Release != nil && len(out) > 0 {
			next := append([]engine.Record(nil), out...)
			first := &out[0]
			st.Release(out)
			back := pooledRecords(0)
			if len(back) != 0 {
				t.Fatalf("%s: the pool handed out %d records", st.Name, len(back))
			}
			if cap(back) > 0 && &back[:1][0] == first {
				recycled++
				for i, r := range back[:cap(back)] {
					if r != (engine.Record{}) {
						t.Fatalf("%s: released array holds %+v at %d", st.Name, r, i)
					}
				}
			}
			releaseRecords(back)
			out = next
		}
		in = out
	}
	if recycled == 0 {
		t.Error("no released array came back from the pool")
	}
}

// TestConcurrentTriangleJobsShareThePool is the runner's shape for the
// graph workload — cells on worker goroutines, each with its own
// simulation and engine, over one shared template — so that the stages
// draw output arrays from and hand them back to one pool at once. Every
// job must return what a serial run returns; under -race this is the
// pool's race check.
func TestConcurrentTriangleJobsShareThePool(t *testing.T) {
	const workers, rounds = 4, 3
	edges := baGraph(rand.New(rand.NewSource(4)), 120, 3)
	job := TriangleCountJob("tc", EdgeDataset(edges, 8), 8, 1<<20)
	drops := []float64{0, 0.1, 0.1, 0, 0.1, 0}
	run := func(seed int64) ([]engine.JobResult, error) {
		sim := simtime.New()
		clu, err := cluster.New(sim, cluster.DefaultConfig())
		if err != nil {
			return nil, err
		}
		eng, err := engine.New(sim, clu, nil, engine.DefaultCostModel(), seed)
		if err != nil {
			return nil, err
		}
		var results []engine.JobResult
		for round := 0; round < rounds; round++ {
			for _, d := range [][]float64{nil, drops} {
				if _, err := eng.Submit(job, engine.SubmitOptions{
					DropRatios: d,
					OnComplete: func(r engine.JobResult) { results = append(results, r) },
				}); err != nil {
					return nil, err
				}
				sim.Run()
			}
		}
		return results, nil
	}
	want := make([][]engine.JobResult, workers)
	for w := range want {
		res, err := run(int64(w))
		if err != nil {
			t.Fatal(err)
		}
		want[w] = res
	}
	if got, err := TriangleCount(want[0][0].Output); err != nil || got != float64(ExactTriangles(edges)) {
		t.Fatalf("serial exact run counted %v (%v), want %d", got, err, ExactTriangles(edges))
	}

	got := make([][]engine.JobResult, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := run(int64(w))
			if err != nil {
				t.Error(err)
			}
			got[w] = res
		}()
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want[w]) {
			t.Errorf("worker %d: concurrent results differ from a serial run's:\ngot  %+v\nwant %+v", w, got[w], want[w])
		}
	}
}
