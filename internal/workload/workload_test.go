package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dias/internal/analytics"
)

func TestSynthesizeCorpusShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultCorpusConfig()
	cfg.Partitions = 5
	cfg.PostsPerPartition = 10
	ds, err := SynthesizeCorpus(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 5 {
		t.Fatalf("%d partitions, want 5", len(ds))
	}
	for p, part := range ds {
		if len(part) != 10 {
			t.Fatalf("partition %d has %d posts, want 10", p, len(part))
		}
		for _, rec := range part {
			body, ok := rec.Value.(string)
			if !ok {
				t.Fatalf("post value is %T", rec.Value)
			}
			words := strings.Fields(body)
			if len(words) != cfg.WordsPerPost {
				t.Fatalf("post has %d words, want %d", len(words), cfg.WordsPerPost)
			}
			for _, w := range words {
				if !strings.HasPrefix(w, "w") {
					t.Fatalf("unexpected word %q", w)
				}
			}
		}
	}
}

func TestSynthesizeCorpusValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []func(*CorpusConfig){
		func(c *CorpusConfig) { c.Partitions = 0 },
		func(c *CorpusConfig) { c.VocabSize = 1 },
		func(c *CorpusConfig) { c.ZipfS = 1 },
		func(c *CorpusConfig) { c.TopicSkew = 1.5 },
		func(c *CorpusConfig) { c.TopicVocab = 0 },
		// Non-finite exponents used to pass validation and then spin
		// forever in rand.Zipf's rejection loop; a NaN skew slipped by.
		func(c *CorpusConfig) { c.ZipfS = math.NaN() },
		func(c *CorpusConfig) { c.ZipfS = math.Inf(1) },
		func(c *CorpusConfig) { c.TopicSkew = math.NaN() },
		func(c *CorpusConfig) { c.TopicSkew = math.Inf(-1) },
	}
	for i, mutate := range cases {
		cfg := DefaultCorpusConfig()
		mutate(&cfg)
		if _, err := SynthesizeCorpus(rng, cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

// TestSynthesizeCorpusPinned pins a SHA-256 over every key and body of
// four corpora: the text, the RNG draws behind it and their order are the
// figures' input, so any drift here moves every text figure.
func TestSynthesizeCorpusPinned(t *testing.T) {
	small := DefaultCorpusConfig()
	small.Partitions, small.PostsPerPartition = 7, 13
	wide := small
	wide.Partitions, wide.VocabSize, wide.TopicVocab, wide.WordsPerPost = 120, 100000, 900, 3
	skewed := small
	skewed.ZipfS, skewed.TopicSkew, skewed.WordsPerPost = 2.5, 1, 30
	for i, tc := range []struct {
		cfg  CorpusConfig
		want string
	}{
		{DefaultCorpusConfig(), "386ecc6d79d2ce1d0c92c21b7d79118e3e8364c2656b38ea8462a4e67fffe53f"},
		{small, "9236dd7a26503d50c2c32adb2dea35acd7c0ae70b33d8f482eeacd0c724da478"},
		{wide, "9ed6abf850a9d8a5dbd073716db6ea43a4597961079b59b5627df0387be1250c"},
		{skewed, "d6bd0afa1733993db0ac295ce8ff4559b47403690daf87c60d4f0a49f3152668"},
	} {
		ds, err := SynthesizeCorpus(rand.New(rand.NewSource(int64(11+i))), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, part := range ds {
			for _, rec := range part {
				fmt.Fprintf(h, "%s\x00%s\x01", rec.Key, rec.Value.(string))
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("config %d: corpus digest %s, want %s", i, got, tc.want)
		}
	}
}

// TestSynthesizeCorpusAllocations pins the allocation budget: per
// partition its record slice and its backing string (one spare), per post
// the box of its body in Record.Value, and nothing per word.
func TestSynthesizeCorpusAllocations(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.Partitions, cfg.PostsPerPartition = 6, 40
	rng := rand.New(rand.NewSource(3))
	got := testing.AllocsPerRun(10, func() {
		if _, err := SynthesizeCorpus(rng, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if ceiling := float64(cfg.Partitions*(cfg.PostsPerPartition+3) + 4); got > ceiling {
		t.Fatalf("%v allocations per corpus, ceiling %v", got, ceiling)
	}
}

func TestCorpusIsZipfSkewed(t *testing.T) {
	// The most common word should dominate: Zipf, not uniform.
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultCorpusConfig()
	cfg.Partitions = 10
	cfg.PostsPerPartition = 50
	cfg.TopicSkew = 0
	ds, err := SynthesizeCorpus(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	total := 0
	for _, part := range ds {
		for _, rec := range part {
			for _, w := range strings.Fields(rec.Value.(string)) {
				counts[w]++
				total++
			}
		}
	}
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / float64(total); frac < 0.05 {
		t.Fatalf("top word holds %.3f of mass; expected Zipf-like concentration", frac)
	}
}

func TestTopicSkewIncreasesPartitionVariance(t *testing.T) {
	// With topic skew, partitions disagree more about word frequencies.
	variance := func(skew float64) float64 {
		rng := rand.New(rand.NewSource(3))
		cfg := DefaultCorpusConfig()
		cfg.Partitions = 20
		cfg.PostsPerPartition = 40
		cfg.TopicSkew = skew
		ds, err := SynthesizeCorpus(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Per-partition count of the globally most common word w1.
		var counts []float64
		for _, part := range ds {
			var c float64
			for _, rec := range part {
				for _, w := range strings.Fields(rec.Value.(string)) {
					if w == "w1" {
						c++
					}
				}
			}
			counts = append(counts, c)
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		var v float64
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		if mean == 0 {
			return 0
		}
		return v / float64(len(counts)) / (mean * mean) // squared CV
	}
	if v0, v1 := variance(0), variance(0.8); v1 <= v0 {
		t.Fatalf("partition variance did not grow with skew: %g vs %g", v0, v1)
	}
}

func TestSynthesizeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := GraphConfig{Nodes: 200, EdgesPerNode: 3}
	edges, err := SynthesizeGraph(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clique on 4 vertices (6 edges) + 196 vertices x 3 edges.
	want := 6 + 196*3
	if len(edges) != want {
		t.Fatalf("%d edges, want %d", len(edges), want)
	}
	deg := map[int64]int{}
	for _, e := range edges {
		if e.U == e.V {
			t.Fatalf("self loop %+v", e)
		}
		if e.U < 0 || e.U >= 200 || e.V < 0 || e.V >= 200 {
			t.Fatalf("edge out of range %+v", e)
		}
		deg[e.U]++
		deg[e.V]++
	}
	// Preferential attachment yields a heavy tail: max degree well above m.
	var maxDeg int
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 3*cfg.EdgesPerNode {
		t.Fatalf("max degree %d suggests no preferential attachment", maxDeg)
	}
	// A scale-free graph of this density has triangles.
	if analytics.ExactTriangles(edges) == 0 {
		t.Fatal("no triangles in scale-free graph")
	}
}

// TestSynthesizeGraphIsDeterministic pins the edge list: it is a pure
// function of the seed within a process (two calls agree) and across
// processes (both agree with the constant), which a map-ordered target
// set was not.
func TestSynthesizeGraphIsDeterministic(t *testing.T) {
	const golden = "4b56b30264a351f309834b3bc19e14970cb551b2d9f714e346d8ae41d967b4b4"
	cfg := GraphConfig{Nodes: 300, EdgesPerNode: 3}
	digest := func() string {
		edges, err := SynthesizeGraph(rand.New(rand.NewSource(1)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, e := range edges {
			fmt.Fprintf(h, "%d,%d;", e.U, e.V)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	first, second := digest(), digest()
	if first != second {
		t.Fatalf("two calls at one seed disagree: %s vs %s", first, second)
	}
	if first != golden {
		t.Errorf("edge list digest %s, want %s", first, golden)
	}
}

func TestSynthesizeGraphValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []GraphConfig{
		{Nodes: 2, EdgesPerNode: 1},
		{Nodes: 10, EdgesPerNode: 0},
		{Nodes: 10, EdgesPerNode: 10},
	}
	for _, cfg := range bad {
		if _, err := SynthesizeGraph(rng, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestPoissonMix(t *testing.T) {
	pm, err := NewPoissonMix([]float64{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pm.total != 10 {
		t.Fatalf("total = %g", pm.total)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	var gaps float64
	classes := map[int]int{}
	for i := 0; i < n; i++ {
		gap, k := pm.Next(rng)
		gaps += gap
		classes[k]++
	}
	// Mean gap = 1/10.
	if got := gaps / n; math.Abs(got-0.1) > 0.005 {
		t.Fatalf("mean gap = %g, want 0.1", got)
	}
	// Class 0 fraction = 0.9.
	if frac := float64(classes[0]) / n; math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("class-0 fraction = %g, want 0.9", frac)
	}
}

func TestPoissonMixValidation(t *testing.T) {
	if _, err := NewPoissonMix(nil); err == nil {
		t.Fatal("empty rates accepted")
	}
	if _, err := NewPoissonMix([]float64{-1, 2}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := NewPoissonMix([]float64{0, 0}); err == nil {
		t.Fatal("zero rates accepted")
	}
	// Non-finite rates would schedule arrivals at NaN or at t = 0 forever.
	for _, rates := range [][]float64{{math.NaN(), 1}, {math.Inf(1), 1}, {math.Inf(-1), 1}, {math.MaxFloat64, math.MaxFloat64}} {
		if _, err := NewPoissonMix(rates); err == nil {
			t.Fatalf("rates %v accepted", rates)
		}
		if _, err := NewGamma(rates, 2); err == nil {
			t.Fatalf("gamma rates %v accepted", rates)
		}
	}
}

func TestStream(t *testing.T) {
	pm, err := NewPoissonMix([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	arr := StreamOf(pm, rng, 100)
	if len(arr) != 100 {
		t.Fatalf("%d arrivals", len(arr))
	}
	prev := 0.0
	for _, a := range arr {
		if a.At <= prev {
			t.Fatalf("non-increasing arrival times: %g after %g", a.At, prev)
		}
		prev = a.At
		if a.Class != 0 && a.Class != 1 {
			t.Fatalf("class %d", a.Class)
		}
	}
}

func TestMixFromRatio(t *testing.T) {
	rates, err := MixFromRatio([]float64{9, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-1.8) > 1e-12 || math.Abs(rates[1]-0.2) > 1e-12 {
		t.Fatalf("rates = %v", rates)
	}
	if _, err := MixFromRatio(nil, 1); err == nil {
		t.Fatal("empty ratio accepted")
	}
	if _, err := MixFromRatio([]float64{1}, 0); err == nil {
		t.Fatal("zero total accepted")
	}
	if _, err := MixFromRatio([]float64{0, 0}, 1); err == nil {
		t.Fatal("zero weights accepted")
	}
	for _, total := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := MixFromRatio([]float64{9, 1}, total); err == nil {
			t.Fatalf("total %g accepted", total)
		}
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := MixFromRatio([]float64{w, 1}, 1); err == nil {
			t.Fatalf("weight %g accepted", w)
		}
	}
}

func TestCalibrateTotalRate(t *testing.T) {
	// Classes with exec 100 s and 50 s mixed 9:1 -> mean 95 s.
	// For util 0.8: λ = 0.8/95.
	rate, err := CalibrateTotalRate([]float64{100, 50}, []float64{0.9, 0.1}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-0.8/95) > 1e-12 {
		t.Fatalf("rate = %g, want %g", rate, 0.8/95)
	}
	if _, err := CalibrateTotalRate([]float64{100}, []float64{1}, 1.5); err == nil {
		t.Fatal("util > 1 accepted")
	}
	if _, err := CalibrateTotalRate([]float64{100}, []float64{1, 2}, 0.5); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := CalibrateTotalRate([]float64{0}, []float64{1}, 0.5); err == nil {
		t.Fatal("zero exec accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct{ exec, mix, util float64 }{
		{100, 1, nan}, {100, 1, inf}, {100, 1, -inf},
		{nan, 1, 0.5}, {inf, 1, 0.5},
		{100, nan, 0.5}, {100, inf, 0.5},
	}
	for _, c := range bad {
		if _, err := CalibrateTotalRate([]float64{c.exec}, []float64{c.mix}, c.util); err == nil {
			t.Fatalf("exec %g mix %g util %g accepted", c.exec, c.mix, c.util)
		}
	}
}

// Property: arrival rates from MixFromRatio always sum to the total and
// preserve proportions.
func TestPropertyMixFromRatio(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		ratio := make([]float64, n)
		for i := range ratio {
			ratio[i] = rng.Float64() + 0.01
		}
		total := rng.Float64()*10 + 0.1
		rates, err := MixFromRatio(ratio, total)
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range rates {
			sum += r
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: corpus generation is deterministic for a fixed seed.
func TestPropertyCorpusDeterministic(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.Partitions = 3
	cfg.PostsPerPartition = 5
	gen := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		ds, err := SynthesizeCorpus(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, part := range ds {
			for _, rec := range part {
				sb.WriteString(rec.Value.(string))
				sb.WriteByte('|')
			}
		}
		return sb.String()
	}
	if gen(42) != gen(42) {
		t.Fatal("same seed produced different corpora")
	}
	if gen(42) == gen(43) {
		t.Fatal("different seeds produced identical corpora")
	}
}
