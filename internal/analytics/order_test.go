package analytics

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dias/internal/engine"
)

// shuffleBucket is the engine's shuffle partitioner: 32-bit FNV-1a of the
// key modulo the bucket count.
func shuffleBucket(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// bucketCounts returns how many records of out land in each of n buckets.
func bucketCounts(out []engine.Record, n int) []int {
	counts := make([]int, n)
	for _, r := range out {
		counts[shuffleBucket(r.Key, n)]++
	}
	return counts
}

// partialRecord is a join output: a matched edge key and its wedge count.
func partialRecord(rng *rand.Rand) engine.Record {
	return engine.Record{Key: randomEdge(rng).Canonical().key(), Value: boxCount(float64(1 + rng.Intn(4)))}
}

// postRecord is a post over a small vocabulary, so words repeat within and
// across posts; post keys repeat too.
func postRecord(rng *rand.Rand) engine.Record {
	words := []string{"go", "spark", "queue", "drop", "sprint", "task", "stage", "job"}
	body := make([]string, rng.Intn(9))
	for i := range body {
		body[i] = words[rng.Intn(len(words))]
	}
	return engine.Record{Key: "post" + words[rng.Intn(3)], Value: strings.Join(body, " ")}
}

// TestShuffleCountsIgnoreInputOrder holds every ShuffleMap Compute to the
// TaskFunc contract the engine's replay of shuffle totals rests on: a
// task's input arrives in the order its upstream tasks completed, so the
// number of records its output puts in each bucket must depend on the
// input multiset alone. Each stage runs over seeded inputs with duplicate
// keys and over the records the stage before it emits on a real graph,
// and each input, permuted, must leave the per-bucket counts unchanged
// for 1, 7 and 64 buckets.
func TestShuffleCountsIgnoreInputOrder(t *testing.T) {
	stages := []struct {
		name    string
		compute engine.TaskFunc
		record  func(*rand.Rand) engine.Record
	}{
		{"canonicalize", stageCanonicalize, edgeRecord},
		{"dedup", stageDedup, edgeRecord},
		{"adjacency", stageAdjacency, edgeRecord},
		{"wedges", stageWedges, adjacencyRecord},
		{"join", stageJoin, wedgeRecord},
		{"partial-count", stagePartialCount, partialRecord},
		{"text-map", mapWordCounts, postRecord},
	}
	// The chained inputs: a graph with duplicate, reversed and self-loop
	// edges, through the triangle stages in order.
	rng := rand.New(rand.NewSource(23))
	var chain []engine.Record
	for _, e := range baGraph(rng, 80, 3) {
		chain = append(chain, engine.Record{Key: e.key(), Value: e})
		if rng.Intn(4) == 0 {
			chain = append(chain, engine.Record{Key: e.key(), Value: Edge{e.V, e.U}})
		}
		if rng.Intn(20) == 0 {
			chain = append(chain, engine.Record{Key: e.key(), Value: Edge{e.U, e.U}})
		}
	}
	for si, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(101 + si)))
			inputs := stageInputs(rng, st.record)
			if st.name == "wedges" {
				inputs = append(inputs, hubInput(rng, 100))
			}
			if st.name != "text-map" {
				inputs = append(inputs, chain)
			}
			duplicated := false
			for i, in := range inputs {
				want := make([][]int, 0, 3)
				for _, n := range []int{1, 7, 64} {
					want = append(want, bucketCounts(st.compute(in), n))
				}
				for k := range in {
					duplicated = duplicated || slices.ContainsFunc(in[:k], func(r engine.Record) bool { return r.Key == in[k].Key })
				}
				for trial := 0; trial < 3; trial++ {
					perm := slices.Clone(in)
					rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
					for j, n := range []int{1, 7, 64} {
						if got := bucketCounts(st.compute(perm), n); !slices.Equal(got, want[j]) {
							t.Fatalf("input %d (%d records), permutation %d, %d buckets: counts %v, in input order %v",
								i, len(in), trial, n, got, want[j])
						}
					}
				}
			}
			if !duplicated {
				t.Fatal("no input repeated a key; strengthen the inputs")
			}
		})
		if st.name != "text-map" && st.name != "partial-count" {
			chain = slices.Clone(st.compute(chain))
		}
	}
}
