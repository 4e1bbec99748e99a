package analytics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/simtime"
)

// runJob executes a job to completion on a fresh noise-free rig and returns
// the result.
func runJob(t *testing.T, job *engine.Job, drops []float64) engine.JobResult {
	t.Helper()
	sim := simtime.New()
	clu, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(sim, clu, nil, engine.CostModel{TaskOverheadSec: 0.1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var res engine.JobResult
	done := false
	_, err = eng.Submit(job, engine.SubmitOptions{
		DropRatios: drops,
		OnComplete: func(r engine.JobResult) { res = r; done = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !done {
		t.Fatal("job did not complete")
	}
	return res
}

func postsDataset(parts int, posts ...string) engine.Dataset {
	d := make(engine.Dataset, parts)
	for i, p := range posts {
		d[i%parts] = append(d[i%parts], engine.Record{Key: "post", Value: p})
	}
	return d
}

func TestWordPopularityExact(t *testing.T) {
	corpus := postsDataset(3,
		"go queue priority go",
		"spark drops tasks spark spark",
		"go spark",
	)
	job := WordPopularityJob("wc", corpus, 2, 1000)
	res := runJob(t, job, nil)
	counts := WordCounts(res.Output)
	want := map[string]float64{"go": 3, "queue": 1, "priority": 1, "spark": 4, "drops": 1, "tasks": 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for w, c := range want {
		if counts[w] != c {
			t.Fatalf("counts[%s] = %g, want %g", w, counts[w], c)
		}
	}
}

func TestTopWords(t *testing.T) {
	counts := map[string]float64{"a": 5, "b": 10, "c": 5, "d": 1}
	top := TopWords(counts, 3)
	if top[0] != "b" || top[1] != "a" || top[2] != "c" {
		t.Fatalf("top = %v", top)
	}
	if got := TopWords(counts, 100); len(got) != 4 {
		t.Fatalf("TopWords over-capacity = %v", got)
	}
}

func TestScaleCounts(t *testing.T) {
	in := map[string]float64{"a": 8}
	out := ScaleCounts(in, 0.8)
	if math.Abs(out["a"]-10) > 1e-12 {
		t.Fatalf("scaled = %g, want 10", out["a"])
	}
	// factor <= 0 leaves values untouched but still copies.
	same := ScaleCounts(in, 0)
	if same["a"] != 8 {
		t.Fatalf("unscaled = %g", same["a"])
	}
	same["a"] = 99
	if in["a"] != 8 {
		t.Fatal("ScaleCounts aliased its input")
	}
}

func TestWordAccuracyMAPE(t *testing.T) {
	exact := map[string]float64{"a": 100, "b": 50}
	approx := map[string]float64{"a": 90, "b": 55}
	got, err := WordAccuracyMAPE(exact, approx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 { // (10% + 10%) / 2
		t.Fatalf("MAPE = %g, want 10", got)
	}
	if _, err := WordAccuracyMAPE(map[string]float64{}, approx, 5); err == nil {
		t.Fatal("expected error for empty exact result")
	}
}

func TestWordCountWithDropUnderestimates(t *testing.T) {
	// 10 identical partitions; dropping 30% of map tasks must scale counts
	// down by exactly the dropped fraction (before estimator correction).
	posts := make([]string, 10)
	for i := range posts {
		posts[i] = "alpha beta alpha"
	}
	corpus := postsDataset(10, posts...)
	job := WordPopularityJob("wc", corpus, 2, 1000)
	res := runJob(t, job, []float64{0.3})
	counts := WordCounts(res.Output)
	// ⌈10·0.7⌉ = 7 executed map tasks → alpha = 14, beta = 7.
	if counts["alpha"] != 14 || counts["beta"] != 7 {
		t.Fatalf("counts = %v, want alpha=14 beta=7", counts)
	}
	// Estimator correction recovers the exact values.
	scaled := ScaleCounts(counts, 0.7)
	if math.Abs(scaled["alpha"]-20) > 1e-9 || math.Abs(scaled["beta"]-10) > 1e-9 {
		t.Fatalf("scaled = %v", scaled)
	}
}

// triangleGraph returns a small graph with a known triangle count:
// a K4 (4 triangles) plus a path that adds none.
func triangleGraph() []Edge {
	return []Edge{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4
		{3, 4}, {4, 5}, // tail
	}
}

func TestExactTriangles(t *testing.T) {
	if got := ExactTriangles(triangleGraph()); got != 4 {
		t.Fatalf("K4+tail = %d triangles, want 4", got)
	}
	// Duplicates, reversed edges and self-loops must not change the count.
	noisy := append([]Edge{}, triangleGraph()...)
	noisy = append(noisy, Edge{1, 0}, Edge{2, 0}, Edge{3, 3})
	if got := ExactTriangles(noisy); got != 4 {
		t.Fatalf("noisy graph = %d triangles, want 4", got)
	}
	if got := ExactTriangles(nil); got != 0 {
		t.Fatalf("empty graph = %d", got)
	}
}

func TestTriangleCountJobExact(t *testing.T) {
	edges := triangleGraph()
	job := TriangleCountJob("tc", EdgeDataset(edges, 3), 4, 1000)
	res := runJob(t, job, nil)
	got, err := TriangleCount(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("triangle count = %g, want 4", got)
	}
}

func TestTriangleCountJobLargerGraph(t *testing.T) {
	// Random graph; engine job must agree with the exact counter.
	rng := rand.New(rand.NewSource(3))
	var edges []Edge
	const n = 40
	for i := 0; i < 300; i++ {
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		edges = append(edges, Edge{u, v})
	}
	want := float64(ExactTriangles(edges))
	job := TriangleCountJob("tc", EdgeDataset(edges, 5), 6, 1000)
	res := runJob(t, job, nil)
	got, err := TriangleCount(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("triangle count = %g, want %g", got, want)
	}
}

func TestTriangleCountJobStructure(t *testing.T) {
	job := TriangleCountJob("tc", EdgeDataset(triangleGraph(), 2), 4, 1)
	// The paper's plan: six ShuffleMap stages and one Result stage (§5.1).
	if len(job.Stages) != 7 {
		t.Fatalf("stages = %d, want 7", len(job.Stages))
	}
	for i := range job.Stages[:6] {
		if kind := job.Stages[i].Kind; kind != engine.ShuffleMap {
			t.Fatalf("stage %d kind = %v, want ShuffleMap", i, kind)
		}
	}
	if job.Stages[6].Kind != engine.Result {
		t.Fatal("last stage is not Result")
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleDropLosesTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var edges []Edge
	for i := 0; i < 400; i++ {
		edges = append(edges, Edge{int64(rng.Intn(30)), int64(rng.Intn(30))})
	}
	exact := float64(ExactTriangles(edges))
	if exact == 0 {
		t.Fatal("test graph has no triangles")
	}
	job := TriangleCountJob("tc", EdgeDataset(edges, 10), 6, 1000)
	res := runJob(t, job, []float64{0.4, 0, 0, 0, 0, 0})
	raw, err := TriangleCount(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if raw >= exact {
		t.Fatalf("raw approximate count %g not below exact %g", raw, exact)
	}
	// The scaled estimate must be closer to exact than the raw count.
	est := ScaleTriangleEstimate(raw, []float64{0.4})
	if math.Abs(est-exact) >= math.Abs(raw-exact) {
		t.Fatalf("estimator did not improve: raw %g, est %g, exact %g", raw, est, exact)
	}
}

func TestScaleTriangleEstimate(t *testing.T) {
	got := ScaleTriangleEstimate(50, []float64{0.5, 0.2})
	want := 50 / (0.5 * 0.8)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("estimate = %g, want %g", got, want)
	}
	if ScaleTriangleEstimate(10, nil) != 10 {
		t.Fatal("no-drop estimate changed")
	}
	if ScaleTriangleEstimate(10, []float64{1}) != 10 {
		t.Fatal("theta=1 must be ignored (nothing sampled)")
	}
}

func TestRelativeErrorPct(t *testing.T) {
	if got := RelativeErrorPct(200, 170); math.Abs(got-15) > 1e-12 {
		t.Fatalf("err = %g, want 15", got)
	}
	if got := RelativeErrorPct(0, 5); got != 0 {
		t.Fatalf("zero-exact err = %g", got)
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := Edge{5, 2}.Canonical()
	if e.U != 2 || e.V != 5 {
		t.Fatalf("canonical = %+v", e)
	}
	parsed, ok := ParseEdgeKey("2,5")
	if !ok || parsed != e {
		t.Fatalf("parse = %+v, %v", parsed, ok)
	}
	if _, ok := ParseEdgeKey("bogus"); ok {
		t.Fatal("parsed bogus key")
	}
	if _, ok := ParseEdgeKey("a,b"); ok {
		t.Fatal("parsed non-numeric key")
	}
}

// Property: the dataflow triangle count always matches the exact counter on
// random graphs when nothing is dropped.
func TestPropertyTriangleJobMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(20)
		m := 10 + rng.Intn(100)
		var edges []Edge
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{int64(rng.Intn(n)), int64(rng.Intn(n))})
		}
		want := float64(ExactTriangles(edges))

		sim := simtime.New()
		clu, err := cluster.New(sim, cluster.DefaultConfig())
		if err != nil {
			return false
		}
		eng, err := engine.New(sim, clu, nil, engine.CostModel{TaskOverheadSec: 0.01}, seed)
		if err != nil {
			return false
		}
		job := TriangleCountJob("tc", EdgeDataset(edges, 3), 4, 100)
		var got float64
		ok := false
		if _, err := eng.Submit(job, engine.SubmitOptions{OnComplete: func(r engine.JobResult) {
			got, err = TriangleCount(r.Output)
			ok = err == nil
		}}); err != nil {
			return false
		}
		sim.Run()
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
