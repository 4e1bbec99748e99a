package analytics

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
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

// The map-based triangle stages the sort-based ones replaced, kept as the
// reference the rewrite must match record for record, order included.

func refDedup(in []engine.Record) []engine.Record {
	seen := make(map[string]Edge)
	for _, r := range in {
		if e, ok := r.Value.(Edge); ok {
			seen[r.Key] = e
		}
	}
	out := make([]engine.Record, 0, len(seen))
	for k, e := range seen {
		out = append(out, engine.Record{Key: k, Value: e})
	}
	sortRecords(out)
	return out
}

func refAdjacency(in []engine.Record) []engine.Record {
	out := make([]engine.Record, 0, 3*len(in))
	for _, r := range in {
		e, ok := r.Value.(Edge)
		if !ok {
			continue
		}
		out = append(out,
			engine.Record{Key: strconv.FormatInt(e.U, 10), Value: e.V},
			engine.Record{Key: strconv.FormatInt(e.V, 10), Value: e.U},
			engine.Record{Key: e.key(), Value: markerEdge},
		)
	}
	return out
}

func refWedges(in []engine.Record) []engine.Record {
	adj := make(map[string][]int64)
	var out []engine.Record
	for _, r := range in {
		switch v := r.Value.(type) {
		case int64:
			adj[r.Key] = append(adj[r.Key], v)
		case string:
			if v == markerEdge {
				out = append(out, r)
			}
		}
	}
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		ns := adj[k]
		slices.Sort(ns)
		ns = slices.Compact(ns)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				w := Edge{U: ns[i], V: ns[j]}
				out = append(out, engine.Record{Key: w.key(), Value: markerWedge})
			}
		}
	}
	return out
}

func refJoin(in []engine.Record) []engine.Record {
	wedges := make(map[string]float64)
	isEdge := make(map[string]bool)
	for _, r := range in {
		switch r.Value {
		case markerWedge:
			wedges[r.Key]++
		case markerEdge:
			isEdge[r.Key] = true
		}
	}
	var out []engine.Record
	keys := make([]string, 0, len(wedges))
	for k := range wedges {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if isEdge[k] {
			out = append(out, engine.Record{Key: k, Value: wedges[k]})
		}
	}
	return out
}

// vertexIDs are the ids random inputs draw from: a dense low range (so
// duplicates, hubs and closed triangles occur) plus the int64 extremes.
var vertexIDs = []int64{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 99, 100, 255, 256, 1000, -1, -7, -10, math.MinInt64, math.MaxInt64}

func randomEdge(rng *rand.Rand) Edge {
	return Edge{U: vertexIDs[rng.Intn(len(vertexIDs))], V: vertexIDs[rng.Intn(len(vertexIDs))]}
}

// foreignValue is a Value no triangle stage produces; every stage must
// skip it exactly as the reference does.
func foreignValue(rng *rand.Rand) any {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return 3.5
	case 2:
		return "X"
	case 3:
		return []int{1} // not comparable: == against a marker must not panic
	case 4:
		return int32(4)
	default:
		return struct{ U, V int64 }{1, 2}
	}
}

// stageInputs builds the seeded inputs of one stage: empty and nil
// partitions, then random ones of growing size in the record shapes the
// previous stage emits, salted with duplicates, self-loops and foreign
// values.
func stageInputs(rng *rand.Rand, record func(*rand.Rand) engine.Record) [][]engine.Record {
	inputs := [][]engine.Record{nil, {}, {{Key: "lonely", Value: foreignValue(rng)}}}
	for trial := 0; trial < 200; trial++ {
		in := make([]engine.Record, rng.Intn(3*trial/2+2))
		for i := range in {
			switch {
			case i > 0 && rng.Intn(6) == 0:
				in[i] = in[rng.Intn(i)] // exact duplicate
			case rng.Intn(12) == 0:
				in[i] = engine.Record{Key: record(rng).Key, Value: foreignValue(rng)}
			default:
				in[i] = record(rng)
			}
		}
		inputs = append(inputs, in)
	}
	return inputs
}

func edgeRecord(rng *rand.Rand) engine.Record {
	e := randomEdge(rng)
	key := e.key()
	if rng.Intn(8) == 0 {
		key = randomEdge(rng).key() // key and value disagree: the key decides
	}
	return engine.Record{Key: key, Value: e}
}

func adjacencyRecord(rng *rand.Rand) engine.Record {
	if rng.Intn(4) == 0 {
		return engine.Record{Key: randomEdge(rng).key(), Value: markerEdge}
	}
	e := randomEdge(rng)
	return engine.Record{Key: strconv.FormatInt(e.U, 10), Value: e.V}
}

func wedgeRecord(rng *rand.Rand) engine.Record {
	marker := markerWedge
	if rng.Intn(3) == 0 {
		marker = markerEdge
	}
	return engine.Record{Key: randomEdge(rng).Canonical().key(), Value: marker}
}

// hubInput is the adjacency of one vertex with n distinct neighbours, in
// shuffled order with repeats, beside a second small vertex.
func hubInput(rng *rand.Rand, n int) []engine.Record {
	var in []engine.Record
	for i := 0; i < n; i++ {
		in = append(in, engine.Record{Key: "7", Value: int64(i*37 - 50)})
		if i%9 == 0 {
			in = append(in, engine.Record{Key: "7", Value: int64(i*37 - 50)})
		}
	}
	in = append(in,
		engine.Record{Key: "70", Value: int64(1)},
		engine.Record{Key: "70", Value: int64(math.MinInt64)},
		engine.Record{Key: "7,70", Value: markerEdge},
	)
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	return in
}

// TestTriangleStagesMatchReference is the differential oracle of the
// map-free stages: on seeded random inputs each returns exactly what its
// map-based reference returns (nil versus empty included) and leaves its
// input untouched, as the TaskFunc purity contract requires.
func TestTriangleStagesMatchReference(t *testing.T) {
	stages := []struct {
		name     string
		got, ref engine.TaskFunc
		record   func(*rand.Rand) engine.Record
		extra    func(*rand.Rand) [][]engine.Record
	}{
		{name: "dedup", got: stageDedup, ref: refDedup, record: edgeRecord},
		{name: "adjacency", got: stageAdjacency, ref: refAdjacency, record: edgeRecord},
		{name: "wedges", got: stageWedges, ref: refWedges, record: adjacencyRecord,
			extra: func(rng *rand.Rand) [][]engine.Record {
				return [][]engine.Record{hubInput(rng, 100), hubInput(rng, 150)}
			}},
		{name: "join", got: stageJoin, ref: refJoin, record: wedgeRecord},
	}
	for si, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + si)))
			inputs := stageInputs(rng, st.record)
			if st.extra != nil {
				inputs = append(inputs, st.extra(rng)...)
			}
			for i, in := range inputs {
				before := slices.Clone(in)
				got, want := st.got(in), st.ref(in)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("input %d (%d records): got %d records %v\nwant %d records %v",
						i, len(in), len(got), got, len(want), want)
				}
				if !reflect.DeepEqual(in, before) {
					t.Fatalf("input %d: the stage changed its input", i)
				}
			}
		})
	}
}

// TestTriangleStagesChained runs the whole dedup → adjacency → wedges →
// join chain, each stage fed the previous one's output, so the record
// shapes the differential inputs imitate are also the real ones; every key
// a stage formats must be the canonical decimal form.
func TestTriangleStagesChained(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		var in []engine.Record
		for i := rng.Intn(120); i > 0; i-- {
			in = append(in, engine.Record{Key: "", Value: randomEdge(rng)})
		}
		got, want := stageCanonicalize(in), stageCanonicalize(in)
		for _, st := range []struct{ got, ref engine.TaskFunc }{
			{stageDedup, refDedup}, {stageAdjacency, refAdjacency}, {stageWedges, refWedges}, {stageJoin, refJoin},
		} {
			got, want = st.got(got), st.ref(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: chain diverged: got %v\nwant %v", trial, got, want)
			}
			for _, r := range got {
				if e, ok := parseEdgeKey(r.Key); ok && r.Key != e.key() {
					t.Fatalf("trial %d: key %q is not the canonical form %q", trial, r.Key, e.key())
				}
				if v, err := strconv.ParseInt(r.Key, 10, 64); err == nil && r.Key != strconv.FormatInt(v, 10) {
					t.Fatalf("trial %d: vertex key %q is not the canonical form", trial, r.Key)
				}
			}
		}
	}
}

// parseEdgeKey reads a "u,v" edge key back into its edge.
func parseEdgeKey(k string) (Edge, bool) {
	i := strings.IndexByte(k, ',')
	if i < 0 {
		return Edge{}, false
	}
	u, err1 := strconv.ParseInt(k[:i], 10, 64)
	v, err2 := strconv.ParseInt(k[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return Edge{}, false
	}
	return Edge{U: u, V: v}, true
}

func TestDecimalLen(t *testing.T) {
	xs := []int64{0, 9, 10, 99, 100, -1, -9, -10, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p, x := 0, int64(1); p < 18; p, x = p+1, x*10 {
		xs = append(xs, x-1, x, x+1, -x, -x+1, -x-1)
	}
	for _, x := range xs {
		if got, want := decimalLen(x), len(strconv.FormatInt(x, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestBoxCount pins the shared count boxes: every value comes back with
// its exact bits, the sign of zero and NaN included, and whole counts in
// 1..1023 cost no allocation.
func TestBoxCount(t *testing.T) {
	for _, v := range []float64{math.Copysign(0, -1), 0, math.NaN(), 0.5, 1, 7, 1023, 1023.5, 1024, 1e300, -3, math.Inf(1)} {
		got, ok := boxCount(v).(float64)
		if !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("boxCount(%v) = %v (%v), want the same bits", v, got, ok)
		}
	}
	for _, v := range []float64{1, 2, 512, 1023} {
		if allocs := testing.AllocsPerRun(10, func() { sinkValue = boxCount(v) }); allocs != 0 {
			t.Errorf("boxCount(%v): %v allocations, want 0", v, allocs)
		}
	}
}

var sinkValue any

// TestTriangleStageAllocations pins what each stage allocates per call:
// its output, one key block, and nothing that grows with the record
// count. Vertex ids span [0, 1000), past the runtime's 256 pre-boxed
// integers, because the stages box ids from vertexBoxes; the join's
// float64 counts are whole and small, so they share the boxes of
// countBoxes and cost nothing per record. A whole partial count returns a
// shared record, and canonicalize returns an EdgeDataset partition itself.
// Warm — each output handed back through its stage's Release before the
// next call, as the engine does — the pooled stages allocate no output
// array, so only the wedges' key block is left.
func TestTriangleStageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	stages := TriangleCountJob("alloc", nil, 1, 0).Stages
	for _, edges := range []int{8, 64, 512} {
		rng := rand.New(rand.NewSource(5))
		var in []engine.Record
		var list []Edge
		for i := 0; i < edges; i++ {
			e := Edge{U: int64(rng.Intn(1000)), V: int64(rng.Intn(1000))}
			in = append(in, engine.Record{Value: e})
			if e.U != e.V {
				list = append(list, e)
			}
		}
		canonical := stageCanonicalize(in)
		deduped := stageDedup(canonical)
		adjacent := stageAdjacency(deduped)
		wedged := stageWedges(adjacent)
		joined := stageJoin(wedged)
		for _, st := range []struct {
			stage      int
			in         []engine.Record
			cold, warm float64
		}{
			{0, EdgeDataset(list, 1)[0], 0, 0},
			{1, canonical, 1, 0},
			{2, deduped, 1, 0},
			{3, adjacent, 2, 1},
			{4, wedged, 1, 0},
			{5, joined, 0, 0},
		} {
			s := &stages[st.stage]
			s.Compute(st.in) // warm the scratch pool
			if got := testing.AllocsPerRun(20, func() { s.Compute(st.in) }); got > st.cold {
				t.Errorf("%s over %d records: %v allocations per call, ceiling %v", s.Name, len(st.in), got, st.cold)
			}
			call := func() { s.Compute(st.in) }
			if s.Release != nil {
				call = func() { s.Release(s.Compute(st.in)) }
			}
			call() // fill the output pool
			if got := testing.AllocsPerRun(20, call); got > st.warm {
				t.Errorf("%s over %d records, warm: %v allocations per call, ceiling %v", s.Name, len(st.in), got, st.warm)
			}
		}
	}
}

// refCanonicalize is the record-at-a-time rule stageCanonicalize follows:
// edges, by value or by pointer, that are canonical under their own key
// are kept as they are, other edges are re-keyed by their canonical form,
// and self-loops and non-edges are dropped.
func refCanonicalize(in []engine.Record) []engine.Record {
	out := make([]engine.Record, 0, len(in))
	for _, r := range in {
		var e Edge
		switch v := r.Value.(type) {
		case Edge:
			e = v
		case *Edge:
			if v == nil {
				continue
			}
			e = *v
		default:
			continue
		}
		switch c := e.Canonical(); {
		case e.U == e.V:
		case e == c && r.Key == e.key():
			out = append(out, r)
		default:
			out = append(out, engine.Record{Key: c.key(), Value: c})
		}
	}
	return out
}

// baGraph is a small Barabási–Albert graph: a clique on m+1 vertices,
// then each new vertex attached to m distinct earlier ones drawn in
// proportion to their degree, every such edge written (new, old), so
// U > V as in the synthetic graphs the figures use.
func baGraph(rng *rand.Rand, nodes, m int) []Edge {
	var edges []Edge
	var endpoints []int64
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, Edge{int64(u), int64(v)})
			endpoints = append(endpoints, int64(u), int64(v))
		}
	}
	for v := m + 1; v < nodes; v++ {
		var targets []int64
		for len(targets) < m {
			if t := endpoints[rng.Intn(len(endpoints))]; !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			edges = append(edges, Edge{int64(v), t})
			endpoints = append(endpoints, int64(v), t)
		}
	}
	return edges
}

// TestEdgeDatasetCanonical pins EdgeDataset's layout: edge i in partition
// i % nParts in input order, in canonical orientation under its "u,v"
// key, and no partition beyond the edges.
func TestEdgeDatasetCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := baGraph(rng, 60, 3)
	edges = append(edges, Edge{5, 5}, Edge{-3, 7}, Edge{math.MaxInt64, math.MinInt64})
	for _, nParts := range []int{0, 1, 4, 7, len(edges) + 3} {
		d := EdgeDataset(edges, nParts)
		if want := max(nParts, 1); len(d) != want {
			t.Fatalf("nParts %d: %d partitions, want %d", nParts, len(d), want)
		}
		next := make([]int, len(d))
		for i, e := range edges {
			p := i % len(d)
			r := d[p][next[p]]
			next[p]++
			c := e.Canonical()
			if got, ok := r.Value.(*Edge); !ok || *got != c || r.Key != c.key() {
				t.Fatalf("nParts %d, edge %d %v: record %q %#v, want %q %v", nParts, i, e, r.Key, r.Value, c.key(), c)
			}
		}
		for p, part := range d {
			if len(part) != next[p] {
				t.Fatalf("nParts %d: partition %d holds %d records, want %d", nParts, p, len(part), next[p])
			}
			if len(part) == 0 && part != nil {
				t.Fatalf("nParts %d: empty partition %d is not nil", nParts, p)
			}
		}
	}
}

// TestCanonicalizeAliasesEdgeDataset: over every partition of an
// EdgeDataset built from a self-loop-free edge list, stageCanonicalize
// returns its input's own backing array, so the stage memo holds no
// second copy of the template.
func TestCanonicalizeAliasesEdgeDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, nParts := range []int{1, 8, 100} {
		for p, in := range EdgeDataset(baGraph(rng, 300, 3), nParts) {
			out := stageCanonicalize(in)
			if len(out) != len(in) || &out[0] != &in[0] {
				t.Fatalf("nParts %d, partition %d: output is not the input itself", nParts, p)
			}
		}
	}
}

// TestCanonicalizeMatchesReference is the differential oracle of
// stageCanonicalize's aliasing and copying paths: on seeded random inputs
// — canonical and reversed edges, self-loops, records whose key is not
// their edge's, *Edge values and foreign values — it returns exactly what
// refCanonicalize returns and leaves its input untouched.
func TestCanonicalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	record := func(rng *rand.Rand) engine.Record {
		r := edgeRecord(rng)
		e := r.Value.(Edge)
		if rng.Intn(2) == 0 && r.Key == e.key() {
			e = e.Canonical() // mostly canonical, as EdgeDataset stores them
			r = engine.Record{Key: e.key(), Value: e}
		}
		if rng.Intn(3) == 0 {
			r.Value = &e
		}
		return r
	}
	inputs := stageInputs(rng, record)
	// A nil *Edge, and canonical edges one of which is not under its own
	// key: each input must take the copying path as a whole.
	inputs = append(inputs,
		[]engine.Record{{Key: "1,2", Value: (*Edge)(nil)}},
		[]engine.Record{{Key: "1,2", Value: Edge{1, 2}}, {Key: "1,3", Value: &Edge{1, 2}}},
		[]engine.Record{{Key: "01,2", Value: Edge{1, 2}}, {Key: "2,3", Value: Edge{2, 3}}},
	)
	for _, edges := range [][]Edge{baGraph(rng, 40, 2), {{1, 2}, {2, 1}}, {{3, 3}}} {
		for _, part := range EdgeDataset(edges, 3) {
			inputs = append(inputs, part)
		}
	}
	aliased := 0
	for i, in := range inputs {
		before := slices.Clone(in)
		got, want := stageCanonicalize(in), refCanonicalize(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %d (%d records): got %v\nwant %v", i, len(in), got, want)
		}
		if !reflect.DeepEqual(in, before) {
			t.Fatalf("input %d: the stage changed its input", i)
		}
		if len(got) > 0 && &got[0] == &in[0] {
			aliased++
		}
	}
	if aliased < 3 {
		t.Fatalf("only %d inputs took the aliasing path", aliased)
	}
}

// TestPartialCountSharedRecords: a whole partial count below 1024 is one
// of the shared records, with the value a fresh box would hold; any other
// sum is boxed afresh with its exact bits.
func TestPartialCountSharedRecords(t *testing.T) {
	for _, want := range []float64{0, 1, 2, 3.5, 1023, 1024, 1e9} {
		in := []engine.Record{{Key: "k", Value: want / 2}, {Key: "k", Value: "W"}, {Key: "k", Value: want / 2}}
		got := stagePartialCount(in)
		if len(got) != 1 || got[0].Key != "partial" || got[0].Value != any(want) {
			t.Fatalf("sum %v: got %v", want, got)
		}
	}
	if a, b := stagePartialCount(nil), stagePartialCount([]engine.Record{{Value: 0.0}}); &a[0] != &b[0] {
		t.Fatal("two zero sums did not share one record")
	}
}
