package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dias/internal/metrics"
)

// simulate is a deterministic stand-in for a scenario run: it derives every
// number from the seed alone, like the experiment scenarios do.
func simulate(seed int64) metrics.ScenarioResult {
	rng := rand.New(rand.NewSource(seed))
	return metrics.ScenarioResult{
		Name: "P",
		PerClass: []metrics.ClassStats{{
			Class:           0,
			Jobs:            10 + int(rng.Int63n(5)),
			MeanResponseSec: 100 * rng.Float64(),
			P95ResponseSec:  300 * rng.Float64(),
		}},
		EnergyJoules: 1e6 * rng.Float64(),
		MakespanSec:  1e4 * rng.Float64(),
	}
}

func seedTasks(seeds []int64) []Task[metrics.ScenarioResult] {
	tasks := make([]Task[metrics.ScenarioResult], len(seeds))
	for i, s := range seeds {
		s := s
		tasks[i] = func(context.Context) (metrics.ScenarioResult, error) {
			return simulate(s), nil
		}
	}
	return tasks
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := Seeds(7, 40)
	want, err := Map(context.Background(), New(1), seedTasks(seeds))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := Map(context.Background(), New(workers), seedTasks(seeds))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from single-worker run", workers)
		}
	}
}

func TestMapPreservesTaskOrder(t *testing.T) {
	// Tasks finish in reverse submission order; results must not.
	n := 8
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func(context.Context) (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i, nil
		}
	}
	got, err := Map(context.Background(), New(n), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
}

func TestMapTaskErrorCancelsSiblings(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	tasks := make([]Task[int], 50)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			// Later tasks observe the cancellation.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(2 * time.Millisecond):
				return i, nil
			}
		}
	}
	_, err := Map(context.Background(), New(2), tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("err %q does not name the failing task", err)
	}
	if n := started.Load(); n == 50 {
		t.Fatal("error did not stop the fan-out: all 50 tasks started")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	tasks := make([]Task[int], 100)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (int, error) {
			if i == 0 {
				cancel()
			}
			ran.Add(1)
			return i, nil
		}
	}
	_, err := Map(ctx, New(1), tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 100 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}

func TestMapEmptyAndNilPool(t *testing.T) {
	got, err := Map[int](context.Background(), nil, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("default pool has %d workers", w)
	}
	if w := New(-3).Workers(); w < 1 {
		t.Fatalf("negative pool has %d workers", w)
	}
	// A zero-value Pool (not built by New) must still drain its tasks
	// rather than deadlock.
	got, err = Map(context.Background(), &Pool{}, []Task[int]{
		func(context.Context) (int, error) { return 7, nil },
	})
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("zero-value pool: %v, %v", got, err)
	}
}

func TestTQuantileBands(t *testing.T) {
	if q := tQuantile(1); q != 12.706 {
		t.Fatalf("t(0.975,1) = %g", q)
	}
	if q := tQuantile(30); q != 2.042 {
		t.Fatalf("t(0.975,30) = %g", q)
	}
	if q := tQuantile(200); q != 1.96 {
		t.Fatalf("t(0.975,200) = %g", q)
	}
	if q := tQuantile(0); q != 0 {
		t.Fatalf("t(0.975,0) = %g", q)
	}
}

func TestReplicatedSeedOrder(t *testing.T) {
	seeds := Seeds(100, 6)
	got, err := Replicated(context.Background(), New(4), seeds,
		func(_ context.Context, seed int64) (int64, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seeds) {
		t.Fatalf("got %v, want %v", got, seeds)
	}
}

func TestSeeds(t *testing.T) {
	if got := Seeds(5, 3); !reflect.DeepEqual(got, []int64{5, 6, 7}) {
		t.Fatalf("Seeds(5,3) = %v", got)
	}
	if got := Seeds(1, 0); len(got) != 0 {
		t.Fatalf("Seeds(1,0) = %v", got)
	}
}

func TestSummarizeMeanAndCI(t *testing.T) {
	seeds := []int64{1, 2, 3}
	reps := []metrics.ScenarioResult{
		{Name: "DA", PerClass: []metrics.ClassStats{{MeanResponseSec: 10}}, EnergyJoules: 100},
		{Name: "DA", PerClass: []metrics.ClassStats{{MeanResponseSec: 20}}, EnergyJoules: 100},
		{Name: "DA", PerClass: []metrics.ClassStats{{MeanResponseSec: 30}}, EnergyJoules: 100},
	}
	s, err := Summarize(seeds, reps)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "DA" || !reflect.DeepEqual(s.Seeds, seeds) {
		t.Fatalf("summary header %+v", s)
	}
	m := s.PerClass[0].MeanResponseSec
	if m.Mean != 20 {
		t.Fatalf("mean = %g, want 20", m.Mean)
	}
	// sd = 10, CI95 = t(0.975, 2)*10/sqrt(3) = 4.303*10/sqrt(3) ≈ 24.843
	if m.CI95 < 24.8 || m.CI95 > 24.9 {
		t.Fatalf("CI95 = %g", m.CI95)
	}
	// Constant metric has zero CI.
	if s.EnergyJoules.CI95 != 0 || s.EnergyJoules.Mean != 100 {
		t.Fatalf("energy estimate %+v", s.EnergyJoules)
	}
}

func TestSummarizeSingleReplicateHasZeroCI(t *testing.T) {
	s, err := Summarize([]int64{1}, []metrics.ScenarioResult{
		{Name: "P", PerClass: []metrics.ClassStats{{MeanResponseSec: 42, P95ResponseSec: 99}},
			EnergyJoules: 1e5, MakespanSec: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := s.PerClass[0].MeanResponseSec
	if got.Mean != 42 || got.CI95 != 0 {
		t.Fatalf("estimate %+v", got)
	}
	// Every field of a single-seed summary must be a zero-width interval —
	// never NaN: a degenerate run still renders and serializes cleanly.
	for _, e := range []Estimate{
		s.PerClass[0].P95ResponseSec, s.PerClass[0].MeanQueueSec,
		s.EnergyJoules, s.MakespanSec, s.ResourceWastePct,
		s.FailureWastePct, s.FailedJobs, s.TasksRetried, s.MeanPoweredNodes,
	} {
		if math.IsNaN(e.Mean) || math.IsNaN(e.CI95) || e.CI95 != 0 {
			t.Fatalf("single-seed estimate not a clean zero-width interval: %+v", e)
		}
	}
	// The streaming-scale columns this run did not measure stay out of the
	// report; a measured one goes in.
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sim_jobs_per_wall_sec", "peak_in_flight_jobs"} {
		if strings.Contains(string(out), key) {
			t.Fatalf("unmeasured %s serialized: %s", key, out)
		}
	}
	s.PeakInFlightJobs = Estimate{Mean: 150}
	if out, _ = json.Marshal(s); !strings.Contains(string(out), `"peak_in_flight_jobs":{"mean":150,"ci95":0}`) {
		t.Fatalf("measured peak_in_flight_jobs not serialized: %s", out)
	}
}

// TestEstimateOfDegenerateInputs pins EstimateOf against the inputs that
// historically produced NaN or negative intervals: empty, single-value, and
// near-constant sequences whose Welford m2 rounds negative.
func TestEstimateOfDegenerateInputs(t *testing.T) {
	if e := EstimateOf(nil); e.Mean != 0 || e.CI95 != 0 {
		t.Fatalf("empty input: %+v", e)
	}
	if e := EstimateOf([]float64{7.5}); e.Mean != 7.5 || e.CI95 != 0 {
		t.Fatalf("single value: %+v", e)
	}
	// Constant inputs: exactly zero width.
	if e := EstimateOf([]float64{3, 3, 3, 3}); e.Mean != 3 || e.CI95 != 0 {
		t.Fatalf("constant input: %+v", e)
	}
	// Near-constant values around a large offset stress Welford's m2 into
	// the rounding regime where it can dip below zero.
	base := 1e15
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = base + float64(i%2)*1e-3
	}
	e := EstimateOf(xs)
	if math.IsNaN(e.Mean) || math.IsNaN(e.CI95) || e.CI95 < 0 {
		t.Fatalf("near-constant input produced NaN/negative CI: %+v", e)
	}
}

func TestSummarizeRejectsMismatch(t *testing.T) {
	if _, err := Summarize(nil, nil); err == nil {
		t.Fatal("empty replicates accepted")
	}
	if _, err := Summarize([]int64{1}, make([]metrics.ScenarioResult, 2)); err == nil {
		t.Fatal("seed/replicate length mismatch accepted")
	}
	reps := []metrics.ScenarioResult{{Name: "P"}, {Name: "NP"}}
	if _, err := Summarize([]int64{1, 2}, reps); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

func TestSummarizeAllPairsColumns(t *testing.T) {
	mk := func(name string, v float64) metrics.ScenarioResult {
		return metrics.ScenarioResult{Name: name, PerClass: []metrics.ClassStats{{MeanResponseSec: v}}}
	}
	seeds := []int64{1, 2}
	reps := [][]metrics.ScenarioResult{
		{mk("P", 10), mk("NP", 1)},
		{mk("P", 30), mk("NP", 3)},
	}
	got, err := SummarizeAll(seeds, reps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "P" || got[1].Name != "NP" {
		t.Fatalf("summaries %+v", got)
	}
	if got[0].PerClass[0].MeanResponseSec.Mean != 20 || got[1].PerClass[0].MeanResponseSec.Mean != 2 {
		t.Fatalf("column means wrong: %+v", got)
	}
	if _, err := SummarizeAll(seeds, [][]metrics.ScenarioResult{{mk("P", 1)}, {}}); err == nil {
		t.Fatal("ragged replicates accepted")
	}
}

// TestReplicatedSimulationGridEndToEnd exercises the scenario × seed grid
// path the CLI uses: replicate a grid, then aggregate, at several worker
// counts — aggregates must be identical.
func TestReplicatedSimulationGridEndToEnd(t *testing.T) {
	seeds := Seeds(11, 5)
	runGrid := func(workers int) []Summary {
		t.Helper()
		reps, err := Replicated(context.Background(), New(workers), seeds,
			func(_ context.Context, seed int64) ([]metrics.ScenarioResult, error) {
				grid := make([]metrics.ScenarioResult, 3)
				for i := range grid {
					grid[i] = simulate(seed*100 + int64(i))
					grid[i].Name = fmt.Sprintf("policy-%d", i)
				}
				return grid, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		sums, err := SummarizeAll(seeds, reps)
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	want := runGrid(1)
	for _, w := range []int{2, 7} {
		if got := runGrid(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: aggregates differ from serial run", w)
		}
	}
}
