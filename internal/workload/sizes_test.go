package workload

import (
	"math"
	"math/rand"
	"testing"

	"dias/internal/engine"
)

func TestFixedCount(t *testing.T) {
	c := FixedCount(7)
	if c.Sample(nil) != 7 || c.Max() != 7 {
		t.Fatal("fixed count broken")
	}
}

// TestUniformCountPMFAndSampling: draws stay in [Lo, Hi] and their
// frequencies match the uniform PMF, 1/(Hi-Lo+1) per count.
func TestUniformCountPMFAndSampling(t *testing.T) {
	u, err := NewUniformCount(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if u.Max() != 6 {
		t.Fatalf("Max = %d, want 6", u.Max())
	}
	rng := rand.New(rand.NewSource(2))
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		v := u.Sample(rng)
		if v < 3 || v > 6 {
			t.Fatalf("sample %d out of [3,6]", v)
		}
		seen[v]++
	}
	for v := 3; v <= 6; v++ {
		frac := float64(seen[v]) / 4000
		if math.Abs(frac-0.25) > 0.04 {
			t.Errorf("count %d frequency %.3f, want ~0.25", v, frac)
		}
	}
	if _, err := NewUniformCount(0, 3); err == nil {
		t.Fatal("lo=0 accepted")
	}
	if _, err := NewUniformCount(5, 4); err == nil {
		t.Fatal("hi<lo accepted")
	}
}

func testTemplate(t *testing.T, parts int) *engine.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultCorpusConfig()
	cfg.Partitions = parts
	cfg.PostsPerPartition = 5
	corpus, err := SynthesizeCorpus(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Job{
		Name:  "tpl",
		Input: corpus,
		Stages: []engine.Stage{
			{Name: "map", Kind: engine.ShuffleMap, OutPartitions: 4},
			{Name: "red", Kind: engine.Result, Deps: []int{0}},
		},
		SizeBytes: 1000,
	}
}

func TestSubJobTruncatesAndScales(t *testing.T) {
	base := testTemplate(t, 10)
	sub, err := SubJob(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Input) != 4 {
		t.Fatalf("sub input %d partitions", len(sub.Input))
	}
	if sub.SizeBytes != 400 {
		t.Fatalf("sub size %d, want 400", sub.SizeBytes)
	}
	if len(base.Input) != 10 || base.SizeBytes != 1000 {
		t.Fatal("SubJob mutated the base")
	}
	// The stages are the base's own (a truncation is the same template, and
	// shares its stage memo); the kept partitions alias the base's too.
	if &sub.Stages[0] != &base.Stages[0] || &sub.Input[3][0] != &base.Input[3][0] {
		t.Fatal("SubJob copied the stage slice or the input partitions")
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub job invalid: %v", err)
	}
	if _, err := SubJob(base, 0); err == nil {
		t.Fatal("tasks=0 accepted")
	}
	if _, err := SubJob(base, 11); err == nil {
		t.Fatal("tasks>partitions accepted")
	}
	if _, err := SubJob(nil, 1); err == nil {
		t.Fatal("nil base accepted")
	}
}

func TestFixedJobsSource(t *testing.T) {
	tpl := testTemplate(t, 5)
	src := FixedJobs{tpl, tpl}
	if src.Classes() != 2 {
		t.Fatalf("classes %d", src.Classes())
	}
	j, err := src.Job(nil, 1)
	if err != nil || j != tpl {
		t.Fatalf("job %v err %v", j, err)
	}
	if _, err := src.Job(nil, 2); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if _, err := (FixedJobs{nil}).Job(nil, 0); err == nil {
		t.Fatal("nil template accepted")
	}
}

func TestVariableJobsSamplesWithinTemplate(t *testing.T) {
	tpl := testTemplate(t, 12)
	u, err := NewUniformCount(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewVariableJobs([]*engine.Job{tpl}, []TaskCountDist{u})
	if err != nil {
		t.Fatal(err)
	}
	if src.Classes() != 1 {
		t.Fatalf("classes %d, want 1", src.Classes())
	}
	rng := rand.New(rand.NewSource(8))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		j, err := src.Job(rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(j.Input)
		if n < 2 || n > 12 {
			t.Fatalf("variant with %d partitions", n)
		}
		seen[n] = true
		if err := j.Validate(); err != nil {
			t.Fatalf("variant invalid: %v", err)
		}
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct sizes in 200 draws", len(seen))
	}
	if _, err := src.Job(rng, 1); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestNewVariableJobsValidation(t *testing.T) {
	tpl := testTemplate(t, 4)
	big, err := NewUniformCount(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVariableJobs([]*engine.Job{tpl}, []TaskCountDist{big}); err == nil {
		t.Fatal("distribution exceeding template accepted")
	}
	if _, err := NewVariableJobs(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	ok := FixedCount(4)
	if _, err := NewVariableJobs([]*engine.Job{tpl, tpl}, []TaskCountDist{ok}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewVariableJobs([]*engine.Job{nil}, []TaskCountDist{ok}); err == nil {
		t.Fatal("nil template accepted")
	}
}
