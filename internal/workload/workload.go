package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"dias/internal/analytics"
	"dias/internal/engine"
)

// --- Text corpora --------------------------------------------------------

// CorpusConfig shapes a synthetic per-topic corpus.
type CorpusConfig struct {
	// Partitions is the number of input partitions (RDD partitions; the
	// paper splits each dataset into 50).
	Partitions int
	// PostsPerPartition controls the data volume.
	PostsPerPartition int
	// WordsPerPost is the exact number of words in every post.
	WordsPerPost int
	// VocabSize is the global vocabulary size.
	VocabSize int
	// ZipfS is the Zipf exponent of word frequencies (>1).
	ZipfS float64
	// TopicSkew in [0,1] is the fraction of words drawn from a
	// partition-local topic vocabulary instead of the global one. Higher
	// skew means partitions differ more, so dropping tasks loses more
	// accuracy — this knob reproduces the Figure 6 error curve.
	TopicSkew float64
	// TopicVocab is the size of each partition's topic slice.
	TopicVocab int
}

// DefaultCorpusConfig mirrors the paper's setup at laptop scale: 50
// partitions per dataset with moderately topic-skewed Zipf text.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		Partitions:        50,
		PostsPerPartition: 60,
		WordsPerPost:      12,
		VocabSize:         2000,
		ZipfS:             1.3,
		TopicSkew:         0.35,
		TopicVocab:        50,
	}
}

func (c CorpusConfig) validate() error {
	switch {
	case c.Partitions <= 0 || c.PostsPerPartition <= 0 || c.WordsPerPost <= 0:
		return fmt.Errorf("workload: corpus shape %d/%d/%d must be positive",
			c.Partitions, c.PostsPerPartition, c.WordsPerPost)
	case c.VocabSize <= 1 || c.TopicVocab <= 1:
		return fmt.Errorf("workload: vocab sizes %d/%d too small", c.VocabSize, c.TopicVocab)
	case !(c.ZipfS > 1 && c.ZipfS <= math.MaxFloat64):
		return fmt.Errorf("workload: zipf exponent %g must be finite and exceed 1", c.ZipfS)
	case !(c.TopicSkew >= 0 && c.TopicSkew <= 1):
		return fmt.Errorf("workload: topic skew %g out of [0,1]", c.TopicSkew)
	}
	return nil
}

// SynthesizeCorpus builds a partitioned corpus of posts. Each partition
// leans toward its own topic vocabulary, so word counts vary across
// partitions and task dropping incurs a measurable accuracy loss.
//
// A partition's keys and post bodies are slices of one backing string:
// holding any one record keeps its whole partition's text alive.
func SynthesizeCorpus(rng *rand.Rand, cfg CorpusConfig) (engine.Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	global := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.VocabSize-1))
	topic := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.TopicVocab-1))
	vocab := uint64(cfg.VocabSize)
	posts := cfg.PostsPerPartition
	// A bound on a partition's text, so the buffer never regrows: a word
	// is "w", its id's digits and a separator; a key is "post-p-q".
	text := make([]byte, 0, posts*(cfg.WordsPerPost*(2+decimalLen(cfg.VocabSize-1))+
		6+decimalLen(cfg.Partitions-1)+decimalLen(posts-1)))
	ends := make([]int, 2*posts) // body ends, then key ends, in text
	ds := make(engine.Dataset, cfg.Partitions)
	for p := range ds {
		// Each partition's topic occupies a distinct vocabulary slice.
		topicBase := uint64((p * cfg.TopicVocab) % cfg.VocabSize)
		text = text[:0]
		for q := 0; q < posts; q++ {
			for w := 0; w < cfg.WordsPerPost; w++ {
				var id uint64
				if rng.Float64() < cfg.TopicSkew {
					id = topicBase + topic.Uint64()
				} else {
					id = global.Uint64()
				}
				if w > 0 {
					text = append(text, ' ')
				}
				text = append(text, 'w')
				text = strconv.AppendUint(text, id%vocab, 10)
			}
			ends[q] = len(text)
		}
		for q := 0; q < posts; q++ {
			text = append(text, "post-"...)
			text = strconv.AppendInt(text, int64(p), 10)
			text = append(text, '-')
			text = strconv.AppendInt(text, int64(q), 10)
			ends[posts+q] = len(text)
		}
		s := string(text)
		part := make(engine.Partition, posts)
		body, key := 0, ends[posts-1]
		for q := range part {
			part[q] = engine.Record{Key: s[key:ends[posts+q]], Value: s[body:ends[q]]}
			body, key = ends[q], ends[posts+q]
		}
		ds[p] = part
	}
	return ds, nil
}

// decimalLen is the number of decimal digits of n >= 0.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// --- Graphs --------------------------------------------------------------

// GraphConfig shapes a synthetic scale-free graph.
type GraphConfig struct {
	// Nodes is the vertex count.
	Nodes int
	// EdgesPerNode is the preferential-attachment out-degree m.
	EdgesPerNode int
}

// SynthesizeGraph grows a Barabási–Albert preferential-attachment graph:
// new vertices attach m edges to existing vertices with probability
// proportional to degree, yielding the power-law degree distribution of
// web graphs.
func SynthesizeGraph(rng *rand.Rand, cfg GraphConfig) ([]analytics.Edge, error) {
	if cfg.Nodes < 3 || cfg.EdgesPerNode < 1 || cfg.EdgesPerNode >= cfg.Nodes {
		return nil, fmt.Errorf("workload: graph config %+v invalid", cfg)
	}
	m := cfg.EdgesPerNode
	edges := make([]analytics.Edge, 0, cfg.Nodes*m)
	// Repeated-endpoint list implements degree-proportional sampling.
	var endpoints []int64
	// Seed with a small clique on m+1 vertices.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, analytics.Edge{U: int64(u), V: int64(v)})
			endpoints = append(endpoints, int64(u), int64(v))
		}
	}
	// Targets stay in selection order in a slice, never in a map, so the
	// edge list is a pure function of the RNG stream in every process.
	targets := make([]int64, 0, m)
	for v := m + 1; v < cfg.Nodes; v++ {
		targets = targets[:0]
		for len(targets) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != int64(v) && !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			edges = append(edges, analytics.Edge{U: int64(v), V: t})
			endpoints = append(endpoints, int64(v), t)
		}
	}
	return edges, nil
}

// --- Arrival processes ---------------------------------------------------

// Arrival is one job arrival in a stream.
type Arrival struct {
	// At is the arrival time in seconds from stream start.
	At float64
	// Class is the priority class index (higher = higher priority).
	Class int
}

// PoissonMix generates a superposed Poisson stream: exponential gaps at the
// total rate, each arrival labeled class k with probability rate_k/total.
// This is the marked Poisson special case of the paper's MMAP[K] (§4).
type PoissonMix struct {
	rates []float64
	total float64
}

// NewPoissonMix builds a mixed Poisson arrival process from per-class
// rates (jobs per second; index = class). Every rate must be finite and
// non-negative, and at least one positive.
func NewPoissonMix(rates []float64) (*PoissonMix, error) {
	if len(rates) == 0 {
		return nil, errors.New("workload: no arrival rates")
	}
	var total float64
	for k, r := range rates {
		if !(r >= 0 && r <= math.MaxFloat64) {
			return nil, fmt.Errorf("workload: rate[%d] = %g not finite and non-negative", k, r)
		}
		total += r
	}
	if !(total > 0 && total <= math.MaxFloat64) {
		return nil, fmt.Errorf("workload: total arrival rate %g not finite and positive", total)
	}
	cp := make([]float64, len(rates))
	copy(cp, rates)
	return &PoissonMix{rates: cp, total: total}, nil
}

// Next draws the gap to the next arrival and its class.
func (p *PoissonMix) Next(rng *rand.Rand) (gap float64, class int) {
	gap = rng.ExpFloat64() / p.total
	return gap, markClass(rng, p.rates, p.total)
}

// MixFromRatio converts a priority ratio (e.g. 9:1 low:high as []float64{9,1},
// index = class) and a total rate into per-class rates. The total and
// every weight must be finite; the total and the weights' sum positive.
func MixFromRatio(ratio []float64, totalRate float64) ([]float64, error) {
	if len(ratio) == 0 || !(totalRate > 0 && totalRate <= math.MaxFloat64) {
		return nil, fmt.Errorf("workload: ratio %v total %g", ratio, totalRate)
	}
	var sum float64
	for k, w := range ratio {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("workload: ratio[%d] = %g not finite and non-negative", k, w)
		}
		sum += w
	}
	if !(sum > 0 && sum <= math.MaxFloat64) {
		return nil, fmt.Errorf("workload: ratio weights sum to %g", sum)
	}
	out := make([]float64, len(ratio))
	for k, w := range ratio {
		out[k] = totalRate * w / sum
	}
	return out, nil
}

// CalibrateTotalRate returns the total arrival rate that loads a
// one-job-at-a-time engine to targetUtil, given each class's mean solo
// execution time and the class mix (fractions summing to 1):
// util = λ_total · Σ_k frac_k · E[S_k].
func CalibrateTotalRate(meanExecSec []float64, mix []float64, targetUtil float64) (float64, error) {
	if len(meanExecSec) != len(mix) || len(mix) == 0 {
		return 0, fmt.Errorf("workload: %d exec means vs %d mix entries", len(meanExecSec), len(mix))
	}
	if !(targetUtil > 0 && targetUtil < 1) {
		return 0, fmt.Errorf("workload: target utilization %g out of (0,1)", targetUtil)
	}
	var mixSum, weighted float64
	for k := range mix {
		if !(mix[k] >= 0 && mix[k] <= math.MaxFloat64) || !(meanExecSec[k] > 0 && meanExecSec[k] <= math.MaxFloat64) {
			return 0, fmt.Errorf("workload: class %d mix %g exec %g", k, mix[k], meanExecSec[k])
		}
		mixSum += mix[k]
		weighted += mix[k] * meanExecSec[k]
	}
	if !(mixSum > 0 && mixSum <= math.MaxFloat64) || !(weighted > 0 && weighted <= math.MaxFloat64) {
		return 0, errors.New("workload: degenerate mix")
	}
	weighted /= mixSum
	return targetUtil / weighted, nil
}
