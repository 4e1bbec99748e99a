package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamOfMatchesPoissonStream(t *testing.T) {
	pm, err := NewPoissonMix([]float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	a := pm.Stream(rand.New(rand.NewSource(5)), 50)
	b := StreamOf(pm, rand.New(rand.NewSource(5)), 50)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReplayPreservesGapsAndCycles(t *testing.T) {
	seq := []Arrival{{At: 1, Class: 0}, {At: 3, Class: 1}, {At: 3.5, Class: 0}}
	r, err := NewReplay(seq)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	wantGaps := []float64{1, 2, 0.5, 1, 2, 0.5} // two full cycles
	wantClass := []int{0, 1, 0, 0, 1, 0}
	for i := range wantGaps {
		gap, class := r.Next(nil)
		if math.Abs(gap-wantGaps[i]) > 1e-12 || class != wantClass[i] {
			t.Fatalf("step %d: gap %g class %d, want %g/%d", i, gap, class, wantGaps[i], wantClass[i])
		}
	}
	// Cumulative times across a cycle boundary keep increasing.
	arr := StreamOf(mustReplay(t, seq), nil, 7)
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatalf("time went backwards at %d: %g < %g", i, arr[i].At, arr[i-1].At)
		}
	}
}

func mustReplay(t *testing.T, seq []Arrival) *Replay {
	t.Helper()
	r, err := NewReplay(seq)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewReplayRejectsBadSequences(t *testing.T) {
	cases := map[string][]Arrival{
		"empty":        nil,
		"unsorted":     {{At: 2}, {At: 1}},
		"negativeTime": {{At: -1}},
		"negClass":     {{At: 1, Class: -2}},
	}
	for name, seq := range cases {
		if _, err := NewReplay(seq); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// Property: for any valid recorded sequence, replaying it through StreamOf
// reproduces the original absolute arrival times in the first cycle.
func TestReplayFirstCycleIdentityProperty(t *testing.T) {
	f := func(raw []uint16, classesRaw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		arr := make([]Arrival, len(raw))
		var tcum float64
		for i, g := range raw {
			tcum += float64(g) / 100
			class := 0
			if i < len(classesRaw) {
				class = int(classesRaw[i]) % 3
			}
			arr[i] = Arrival{At: tcum, Class: class}
		}
		r, err := NewReplay(arr)
		if err != nil {
			return false
		}
		got := StreamOf(r, nil, len(arr))
		for i := range arr {
			if math.Abs(got[i].At-arr[i].At) > 1e-9*(1+arr[i].At) || got[i].Class != arr[i].Class {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
