// Package analytics implements the paper's two evaluation applications as
// dataflow-engine jobs (§5.1):
//
//   - text analysis: word-popularity counting over per-topic post corpora
//     (the StackExchange workload) as a map + reduce job, and
//   - graph analysis: triangle counting (the GraphX workload) as a chain of
//     six ShuffleMap stages plus one Result stage.
//
// It also provides the accuracy metrics the paper reports: ApproxHadoop-
// style inverse-sampling estimators and the relative error of approximate
// results against exact ones (Figure 6, §5.2.4).
package analytics

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dias/internal/engine"
)

// --- Text analysis -------------------------------------------------------

// WordPopularityJob builds the paper's text-analysis job: stage 0 parses
// posts and emits per-partition word counts (a map-side combine, as Spark
// does), stage 1 sums counts per word and delivers (word, count) records.
// Input partitions hold post records whose Value is the post body text.
func WordPopularityJob(name string, corpus engine.Dataset, reducers int, sizeBytes int64) *engine.Job {
	return &engine.Job{
		Name:      name,
		Input:     corpus,
		SizeBytes: sizeBytes,
		Stages: []engine.Stage{
			{
				Name: "parse+count", Kind: engine.ShuffleMap, OutPartitions: reducers,
				Compute: mapWordCounts,
			},
			{
				Name: "aggregate", Kind: engine.Result, Deps: []int{0},
				Compute: reduceWordCounts,
			},
		},
	}
}

// countsPool recycles the per-task word-count scratch maps. Tasks of
// concurrent scenario runs execute these stages on different goroutines,
// so the scratch state is pooled rather than package-global; the map's
// bucket array survives reuse, which removes the dominant allocation of
// the text workload's hot path.
var countsPool = sync.Pool{
	New: func() any { return make(map[string]float64, 512) },
}

func mapWordCounts(in []engine.Record) []engine.Record {
	counts := countsPool.Get().(map[string]float64)
	for _, r := range in {
		body, ok := r.Value.(string)
		if !ok {
			continue
		}
		// FieldsSeq splits exactly like strings.Fields without
		// materializing the field slice.
		for w := range strings.FieldsSeq(body) {
			counts[w]++
		}
	}
	out := countsToRecords(counts)
	clear(counts)
	countsPool.Put(counts)
	return out
}

func reduceWordCounts(in []engine.Record) []engine.Record {
	counts := countsPool.Get().(map[string]float64)
	for _, r := range in {
		if v, ok := r.Value.(float64); ok {
			counts[r.Key] += v
		}
	}
	out := countsToRecords(counts)
	clear(counts)
	countsPool.Put(counts)
	return out
}

func countsToRecords(counts map[string]float64) []engine.Record {
	out := make([]engine.Record, 0, len(counts))
	for k, v := range counts {
		out = append(out, engine.Record{Key: k, Value: boxCount(v)})
	}
	// Deterministic order keeps downstream bucketing and tests stable.
	sortRecords(out)
	return out
}

// countBoxes holds float64(i) boxed as an interface for each whole count
// i in 1..1023 (index 0 unused): boxing a float64 allocates, and almost
// every count the stages emit is one of these. Sharing a box is safe
// because Go never writes through an interface's data pointer.
var countBoxes = func() (b [1024]any) {
	for i := 1; i < len(b); i++ {
		b[i] = float64(i)
	}
	return b
}()

// boxCount returns v as a Record.Value, from countBoxes when v is a whole
// count it holds. Anything else, -0 and NaN included, is boxed afresh, so
// the value and its sign bit are kept exactly.
func boxCount(v float64) any {
	if v >= 1 && v < float64(len(countBoxes)) {
		if i := int(v); float64(i) == v {
			return countBoxes[i]
		}
	}
	return v
}

// WordCounts folds a word-popularity result into a count map.
func WordCounts(output []engine.Record) map[string]float64 {
	counts := make(map[string]float64, len(output))
	for _, r := range output {
		if v, ok := r.Value.(float64); ok {
			counts[r.Key] += v
		}
	}
	return counts
}

// ScaleCounts applies the inverse-sampling correction: counts computed from
// a fraction (1-θ) of the tasks are scaled by 1/(1-θ) to stay unbiased, as
// ApproxHadoop does. factor is executedTasks/totalTasks of the sampled
// stage; factor <= 0 leaves counts untouched.
func ScaleCounts(counts map[string]float64, factor float64) map[string]float64 {
	out := make(map[string]float64, len(counts))
	if factor <= 0 {
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
	inv := 1 / factor
	for k, v := range counts {
		out[k] = v * inv
	}
	return out
}

// TopWords returns the n highest-count words, ties broken alphabetically.
func TopWords(counts map[string]float64, n int) []string {
	type wc struct {
		w string
		c float64
	}
	all := make([]wc, 0, len(counts))
	for w, c := range counts {
		all = append(all, wc{w, c})
	}
	slices.SortFunc(all, func(a, b wc) int {
		if a.c != b.c {
			if a.c > b.c {
				return -1
			}
			return 1
		}
		return strings.Compare(a.w, b.w)
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].w
	}
	return out
}

// WordAccuracyMAPE returns the mean absolute percentage error of approx
// against exact over exact's top-n words — the paper's accuracy-loss metric
// for text analysis (Figure 6). Missing words count as zero.
func WordAccuracyMAPE(exact, approx map[string]float64, topN int) (float64, error) {
	words := TopWords(exact, topN)
	if len(words) == 0 {
		return 0, fmt.Errorf("analytics: no words in exact result")
	}
	var sum float64
	for _, w := range words {
		e := exact[w]
		a := approx[w]
		if e == 0 {
			continue
		}
		d := (a - e) / e
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return 100 * sum / float64(len(words)), nil
}

// --- Graph analysis ------------------------------------------------------

// Edge is an undirected graph edge.
type Edge struct {
	U, V int64
}

// Canonical returns the edge with U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// maxEdgeKey is the longest "u,v" key: two 20-byte int64s and a comma.
const maxEdgeKey = 41

// appendEdgeKey appends e's "u,v" key.
func appendEdgeKey(b []byte, e Edge) []byte {
	b = strconv.AppendInt(b, e.U, 10)
	b = append(b, ',')
	return strconv.AppendInt(b, e.V, 10)
}

func (e Edge) key() string {
	var buf [maxEdgeKey]byte
	return string(appendEdgeKey(buf[:0], e))
}

// keyedBy reports whether key is e's "u,v" key, formatting it into a
// stack buffer rather than a new string.
func keyedBy(key string, e Edge) bool {
	var buf [maxEdgeKey]byte
	return string(appendEdgeKey(buf[:0], e)) == key
}

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

// edgeOf returns the edge a record value carries. The triangle stages
// accept an Edge by value, as hand-built inputs hold it, or by pointer, as
// EdgeDataset holds it.
func edgeOf(v any) (Edge, bool) {
	switch e := v.(type) {
	case Edge:
		return e, true
	case *Edge:
		if e != nil {
			return *e, true
		}
	}
	return Edge{}, false
}

// EdgeDataset partitions an edge list into nParts input partitions, edge i
// going to partition i % nParts. Every edge is stored in canonical
// orientation (U <= V) under its "u,v" key, so the canonicalize stage
// returns a self-loop-free partition as it is and its memo holds no second
// copy of the graph. A partition costs three allocations: its edges live
// in one []Edge that the records point into, its keys are substrings of
// one string, and its records fill one slice.
func EdgeDataset(edges []Edge, nParts int) engine.Dataset {
	if nParts < 1 {
		nParts = 1
	}
	d := make(engine.Dataset, nParts)
	for p := range min(nParts, len(edges)) {
		block := make([]Edge, 0, (len(edges)-p+nParts-1)/nParts)
		size := 0
		for i := p; i < len(edges); i += nParts {
			c := edges[i].Canonical()
			block = append(block, c)
			size += decimalLen(c.U) + 1 + decimalLen(c.V)
		}
		// Grown to its final size the builder never moves, so every
		// String() below is a view of the same backing array.
		var keys strings.Builder
		keys.Grow(size)
		part := make(engine.Partition, len(block))
		for j := range block {
			var buf [maxEdgeKey]byte
			start := keys.Len()
			keys.Write(appendEdgeKey(buf[:0], block[j]))
			part[j] = engine.Record{Key: keys.String()[start:], Value: &block[j]}
		}
		d[p] = part
	}
	return d
}

// Marker values distinguishing record roles in the triangle-count shuffle.
const (
	markerEdge  = "E"
	markerWedge = "W"
)

// isMarker reports whether v is the marker m. A typed assertion is cheaper
// than comparing interfaces and answers the same for every value.
func isMarker(v any, m string) bool {
	s, ok := v.(string)
	return ok && s == m
}

// TriangleCountJob builds the paper's graph-analysis job as six ShuffleMap
// stages plus one Result stage, mirroring the GraphX triangle-count plan
// (§5.1): canonicalize edges, deduplicate, build adjacency, enumerate
// wedges alongside edge markers, join wedges with edges, aggregate partial
// counts, and produce the global count. Every triangle is matched at all
// three of its wedges, so the Result stage divides by three.
func TriangleCountJob(name string, edges engine.Dataset, buckets int, sizeBytes int64) *engine.Job {
	return &engine.Job{
		Name:      name,
		Input:     edges,
		SizeBytes: sizeBytes,
		Stages: []engine.Stage{
			{Name: "canonicalize", Kind: engine.ShuffleMap, OutPartitions: buckets, Compute: stageCanonicalize},
			{Name: "dedup", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{0}, Compute: stageDedup},
			{Name: "adjacency", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{1}, Compute: stageAdjacency},
			{Name: "wedges", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{2}, Compute: stageWedges},
			{Name: "join", Kind: engine.ShuffleMap, OutPartitions: buckets, Deps: []int{3}, Compute: stageJoin},
			{Name: "partial-count", Kind: engine.ShuffleMap, OutPartitions: 1, Deps: []int{4}, Compute: stagePartialCount},
			{Name: "total", Kind: engine.Result, Deps: []int{5}, Compute: stageTotal},
		},
	}
}

// allCanonicalAsIs reports whether stageCanonicalize keeps every record
// of in as it is: each a non-loop edge in canonical orientation under its
// own "u,v" key.
func allCanonicalAsIs(in []engine.Record) bool {
	for _, r := range in {
		if e, ok := edgeOf(r.Value); !ok || e.U >= e.V || !keyedBy(r.Key, e) {
			return false
		}
	}
	return true
}

// stageCanonicalize re-keys every edge by its canonical (min,max) form and
// drops self-loops and non-edges. A record already canonical under its own
// key is kept as it is, and an input made only of such records — every
// EdgeDataset partition of a self-loop-free graph — is returned itself, so
// the stage memo aliases the template instead of copying it.
func stageCanonicalize(in []engine.Record) []engine.Record {
	if len(in) > 0 && allCanonicalAsIs(in) {
		return in
	}
	out := make([]engine.Record, 0, len(in))
	for _, r := range in {
		e, ok := edgeOf(r.Value)
		switch {
		case !ok || e.U == e.V:
			continue // self-loops form no triangles
		case e.U < e.V && keyedBy(r.Key, e):
			out = append(out, r)
		default:
			c := e.Canonical()
			out = append(out, engine.Record{Key: c.key(), Value: c})
		}
	}
	return out
}

// The four hot stages below (dedup, adjacency, wedges, join) run ~100 tasks
// of ~20 records each per job, so they group and de-duplicate through
// small sorts and pooled open-addressed hash indexes rather than maps, and
// they format each task's decimal keys into one backing string (the
// engine's TaskFunc contract lets returned records share key storage).

// yieldToCollector lets the garbage collector's background mark worker
// onto the processor; each of the four hot stages calls it on entry. The
// simulation kernel's goroutine never blocks, and a process with one P —
// the benchmark of record, a `-workers 1` run on a one-core box —
// schedules the collector's fractional mark worker only when that
// goroutine enters the scheduler. Left to sysmon's forced preemption that
// is 10–20 ms into a mark phase, and everything the stages allocate
// meanwhile is allocated live: at the triangle job's ~270 MB/s one such
// cycle overshoots the heap goal by 4 MB and doubles the next goal
// (docs/BENCHMARKING.md, "peak_sys_mib anatomy"). A yield costs ~0.2 µs
// against the ≥ 10 µs of a task.
func yieldToCollector() { runtime.Gosched() }

// triScratch is the scratch of one stageWedges or stageJoin call. Every
// string field is cleared before the scratch goes back to the pool, so a
// pooled scratch pins no task's records.
type triScratch struct {
	table   []int32   // hash index over verts or edges: index+1, 0 when empty
	verts   []string  // stageWedges: distinct vertex keys, first-seen order
	vertex  []int32   // stageWedges: each neighbour record's index in verts
	neigh   []int64   // stageWedges: each neighbour record's neighbour
	grouped []int64   // stageWedges: the neighbours in one run per vertex
	starts  []int32   // stageWedges: start of each vertex's run in grouped
	order   []int32   // stageWedges: vertex indices in key order
	digits  []byte    // stageWedges: one vertex's neighbours in decimal
	ends    []int     // stageWedges: end offset of each neighbour in digits
	edges   []string  // stageJoin: the bucket's edge keys, sorted
	counts  []float64 // stageJoin: wedges matched per edge key
}

var triScratchPool = sync.Pool{New: func() any { return new(triScratch) }}

// hashKey is 64-bit FNV-1a followed by a multiplicative mix. The index
// reads its top bits: every key of one shuffle bucket shares the engine's
// 32-bit FNV-1a residue modulo the bucket count, and the low bits of
// FNV-1a follow the same recurrence at either width, so they collide.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h * 0x9e3779b97f4a7c15
}

// resetIndex empties sc.table at the power-of-two size of at least 2n
// slots and returns the shift that maps a hashKey onto it.
func (sc *triScratch) resetIndex(n int) uint {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	if size := 1 << bits; cap(sc.table) < size {
		sc.table = make([]int32, size)
	} else {
		sc.table = sc.table[:size]
		clear(sc.table)
	}
	return 64 - bits
}

// probe returns the slot of sc.table that holds key's index into keys, or
// the empty slot where that index belongs.
func (sc *triScratch) probe(shift uint, keys []string, key string) (slot uint64, found bool) {
	mask := uint64(len(sc.table) - 1)
	for i := hashKey(key) >> shift; ; i = (i + 1) & mask {
		j := sc.table[i]
		if j == 0 {
			return i, false
		}
		if keys[j-1] == key {
			return i, true
		}
	}
}

// decimalLen returns len(strconv.FormatInt(x, 10)).
func decimalLen(x int64) int {
	n, u := 1, uint64(x)
	if x < 0 {
		n, u = 2, -u // -MinInt64 wraps to 1<<63, its magnitude
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// vertexBoxes holds int64(i) boxed as an interface for each vertex id i
// in 0..1023: boxing an int64 of 256 or more allocates, and the triangle
// stages emit one vertex id per adjacency record. Like countBoxes, the
// boxes are shared because Go never writes through an interface.
var vertexBoxes = func() (b [1024]any) {
	for i := range b {
		b[i] = int64(i)
	}
	return b
}()

// boxVertex returns x as a Record.Value, from vertexBoxes when it holds x.
func boxVertex(x int64) any {
	if x >= 0 && x < int64(len(vertexBoxes)) {
		return vertexBoxes[x]
	}
	return x
}

func compareKeys(a, b engine.Record) int { return strings.Compare(a.Key, b.Key) }

// stageDedup removes duplicate edges; canonical keys co-locate duplicates.
// Of the records sharing a key the last one in input order is kept, and
// the output is sorted by key.
func stageDedup(in []engine.Record) []engine.Record {
	yieldToCollector()
	out := make([]engine.Record, 0, len(in))
	for _, r := range in {
		if _, ok := edgeOf(r.Value); ok {
			out = append(out, r)
		}
	}
	slices.SortStableFunc(out, compareKeys)
	kept := 0
	for i, r := range out {
		if i+1 < len(out) && out[i+1].Key == r.Key {
			continue // a later duplicate supersedes it
		}
		out[kept] = r
		kept++
	}
	clear(out[kept:])
	return out[:kept]
}

// stageAdjacency emits each edge under both endpoint keys so the next
// stage sees complete neighborhoods, plus one edge marker under the
// canonical key for the later join. When a record's key is its edge's
// "u,v" — as canonicalize and dedup leave it — the endpoint keys "u" and
// "v" are substrings of that key; otherwise the key is formatted afresh.
func stageAdjacency(in []engine.Record) []engine.Record {
	yieldToCollector()
	out := make([]engine.Record, 0, 3*len(in))
	for _, r := range in {
		e, ok := edgeOf(r.Value)
		if !ok {
			continue
		}
		key := r.Key
		if !keyedBy(key, e) {
			key = e.key()
		}
		comma := decimalLen(e.U)
		out = append(out,
			engine.Record{Key: key[:comma], Value: boxVertex(e.V)},
			engine.Record{Key: key[comma+1:], Value: boxVertex(e.U)},
			engine.Record{Key: key, Value: markerEdge},
		)
	}
	return out
}

// stageWedges groups neighbors per vertex and emits one wedge record per
// neighbor pair, forwarding edge markers unchanged: markers first in input
// order, then the wedges of each vertex in key order, each vertex's
// distinct neighbours paired in ascending order. Vertex keys are interned
// through a hash index and the neighbours counting-sorted into one run per
// vertex, so only the few distinct vertex keys are sorted as strings.
func stageWedges(in []engine.Record) []engine.Record {
	yieldToCollector()
	sc := triScratchPool.Get().(*triScratch)
	verts, vertex, neigh := sc.verts[:0], sc.vertex[:0], sc.neigh[:0]
	markers := 0
	shift := sc.resetIndex(len(in))
	for _, r := range in {
		switch v := r.Value.(type) {
		case int64:
			slot, found := sc.probe(shift, verts, r.Key)
			if !found {
				verts = append(verts, r.Key)
				sc.table[slot] = int32(len(verts))
			}
			vertex = append(vertex, sc.table[slot]-1)
			neigh = append(neigh, v)
		case string:
			if v == markerEdge {
				markers++
			}
		}
	}

	// Counting sort: starts[v] ends as the start of vertex v's run in
	// grouped, and starts[len(verts)] is the end of the last run.
	starts := append(sc.starts[:0], make([]int32, len(verts)+1)...)
	for _, v := range vertex {
		starts[v]++
	}
	for v := 1; v < len(verts); v++ {
		starts[v] += starts[v-1]
	}
	starts[len(verts)] = int32(len(neigh))
	grouped := append(sc.grouped[:0], neigh...)
	for i, v := range vertex {
		starts[v]--
		grouped[starts[v]] = neigh[i]
	}
	order := sc.order[:0]
	for v := range verts {
		order = append(order, int32(v))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(verts[a], verts[b]) })

	// Sort and de-duplicate each run; a vertex with d distinct neighbours
	// of l_1..l_d digits yields d(d-1)/2 wedges "a,b" whose keys take
	// (d-1)·Σl + d(d-1)/2 bytes. Each run's distinct length replaces its
	// entry in vertex, which has served its purpose.
	wedges, size := 0, 0
	for v := range verts {
		run := grouped[starts[v]:starts[v+1]]
		slices.Sort(run)
		d := len(slices.Compact(run))
		digits := 0
		for _, n := range run[:d] {
			digits += decimalLen(n)
		}
		vertex[v] = int32(d)
		wedges += d * (d - 1) / 2
		size += (d-1)*digits + d*(d-1)/2
	}

	var out []engine.Record
	if markers+wedges > 0 {
		out = make([]engine.Record, 0, markers+wedges)
		for _, r := range in {
			if isMarker(r.Value, markerEdge) {
				out = append(out, r)
			}
		}
	}
	var keys strings.Builder // never moves once grown; see EdgeDataset
	keys.Grow(size)
	digits, ends := sc.digits, sc.ends
	for _, v := range order {
		run := grouped[starts[v] : starts[v]+vertex[v]]
		digits, ends = digits[:0], ends[:0]
		for _, n := range run {
			digits = strconv.AppendInt(digits, n, 10)
			ends = append(ends, len(digits))
		}
		for i, from := 0, 0; i < len(run); from, i = ends[i], i+1 {
			for j := i + 1; j < len(run); j++ {
				start := keys.Len()
				keys.Write(digits[from:ends[i]])
				keys.WriteByte(',')
				keys.Write(digits[ends[j-1]:ends[j]])
				out = append(out, engine.Record{Key: keys.String()[start:], Value: markerWedge})
			}
		}
	}

	clear(verts)
	sc.verts, sc.vertex, sc.neigh, sc.grouped = verts, vertex, neigh, grouped
	sc.starts, sc.order, sc.digits, sc.ends = starts, order, digits, ends
	triScratchPool.Put(sc)
	return out
}

// stageJoin counts, per canonical pair key, wedges that close into
// triangles because the pair is also an edge; the output is sorted by key.
// The sorted edge keys are hash-indexed, so each wedge costs one probe.
func stageJoin(in []engine.Record) []engine.Record {
	yieldToCollector()
	sc := triScratchPool.Get().(*triScratch)
	edges := sc.edges[:0]
	for _, r := range in {
		if isMarker(r.Value, markerEdge) {
			edges = append(edges, r.Key)
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges) // zeroes the tail it drops
	counts := append(sc.counts[:0], make([]float64, len(edges))...)
	matched := 0
	if len(edges) > 0 {
		shift := sc.resetIndex(len(edges))
		for i, k := range edges {
			slot, _ := sc.probe(shift, edges, k)
			sc.table[slot] = int32(i + 1)
		}
		for _, r := range in {
			if !isMarker(r.Value, markerWedge) {
				continue
			}
			if slot, found := sc.probe(shift, edges, r.Key); found {
				i := sc.table[slot] - 1
				if counts[i] == 0 {
					matched++
				}
				counts[i]++
			}
		}
	}
	var out []engine.Record
	if matched > 0 {
		out = make([]engine.Record, 0, matched)
		for i, k := range edges {
			if counts[i] > 0 {
				out = append(out, engine.Record{Key: k, Value: boxCount(counts[i])})
			}
		}
	}
	clear(edges)
	sc.edges, sc.counts = edges, counts
	triScratchPool.Put(sc)
	return out
}

// partialRecords holds, for each whole sum i in 0..1023, the one-record
// output of stagePartialCount: immutable and shared by every call, as the
// TaskFunc contract allows, so a bucket's partial count costs nothing.
var partialRecords = func() (p [1024][]engine.Record) {
	for i := range p {
		p[i] = []engine.Record{{Key: "partial", Value: boxCount(float64(i))}}
	}
	return p
}()

// stagePartialCount sums matched wedges within its bucket.
func stagePartialCount(in []engine.Record) []engine.Record {
	var sum float64
	for _, r := range in {
		if v, ok := r.Value.(float64); ok {
			sum += v
		}
	}
	if sum >= 0 && sum < float64(len(partialRecords)) && !math.Signbit(sum) {
		if i := int(sum); float64(i) == sum {
			return partialRecords[i]
		}
	}
	return []engine.Record{{Key: "partial", Value: boxCount(sum)}}
}

// stageTotal sums partial counts; each triangle was matched at its three
// wedges, so divide by three.
func stageTotal(in []engine.Record) []engine.Record {
	var sum float64
	for _, r := range in {
		if v, ok := r.Value.(float64); ok {
			sum += v
		}
	}
	return []engine.Record{{Key: "triangles", Value: sum / 3}}
}

// TriangleCount extracts the count from a TriangleCountJob result.
func TriangleCount(output []engine.Record) (float64, error) {
	var sum float64
	var found bool
	for _, r := range output {
		if r.Key == "triangles" {
			if v, ok := r.Value.(float64); ok {
				sum += v
				found = true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("analytics: no triangle count in %d output records", len(output))
	}
	return sum, nil
}

// ScaleTriangleEstimate applies the inverse-sampling correction for
// per-stage task dropping: with stage drop ratios thetas applied to the
// sampling-sensitive stages, the raw count underestimates roughly by the
// product of retained fractions, so scale by its inverse.
func ScaleTriangleEstimate(raw float64, thetas []float64) float64 {
	scale := 1.0
	for _, th := range thetas {
		if th > 0 && th < 1 {
			scale /= 1 - th
		}
	}
	return raw * scale
}

// RelativeErrorPct returns |approx-exact|/exact in percent.
func RelativeErrorPct(exact, approx float64) float64 {
	if exact == 0 {
		return 0
	}
	d := (approx - exact) / exact
	if d < 0 {
		d = -d
	}
	return 100 * d
}

// ExactTriangles counts triangles directly (sorted adjacency intersection),
// the reference for accuracy measurements.
func ExactTriangles(edges []Edge) int64 {
	adj := make(map[int64][]int64)
	seen := make(map[Edge]bool)
	for _, e := range edges {
		c := e.Canonical()
		if c.U == c.V || seen[c] {
			continue
		}
		seen[c] = true
		adj[c.U] = append(adj[c.U], c.V)
		adj[c.V] = append(adj[c.V], c.U)
	}
	for v := range adj {
		slices.Sort(adj[v])
	}
	var count int64
	for e := range seen {
		// Intersect neighbor lists of u and v, counting w > v to count each
		// triangle exactly once (u < v < w with all three edges present).
		nu, nv := adj[e.U], adj[e.V]
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				if nu[i] > e.V {
					count++
				}
				i++
				j++
			}
		}
	}
	return count
}

// sortRecords orders records by key without sort.Slice's reflection-based
// swapper, a measurable win on the per-task shuffle outputs.
func sortRecords(rs []engine.Record) {
	slices.SortFunc(rs, compareKeys)
}
