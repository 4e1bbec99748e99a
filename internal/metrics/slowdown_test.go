package metrics

import (
	"math"
	"testing"

	"dias/internal/core"
)

func slowdownRecords() []core.JobRecord {
	// Low class (0): response 30 over exec 10 -> slowdown 3.
	// High class (1): response 12 over exec 10 -> slowdown 1.2.
	var recs []core.JobRecord
	for i := 0; i < 10; i++ {
		recs = append(recs,
			core.JobRecord{Class: 0, ResponseSec: 30, ExecSec: 10},
			core.JobRecord{Class: 1, ResponseSec: 12, ExecSec: 10},
		)
	}
	return recs
}

// slowdowns folds records through a SlowdownAccumulator sized for them.
func slowdowns(records []core.JobRecord, classes int, warmupFraction float64) []SlowdownStats {
	a := NewSlowdownAccumulator(classes, len(records), warmupFraction)
	for _, r := range records {
		a.Add(r)
	}
	return a.Classes()
}

func TestSlowdowns(t *testing.T) {
	s := slowdowns(slowdownRecords(), 2, 0)
	if len(s) != 2 {
		t.Fatalf("%d classes", len(s))
	}
	if math.Abs(s[0].MeanSlowdown-3) > 1e-12 || math.Abs(s[1].MeanSlowdown-1.2) > 1e-12 {
		t.Fatalf("slowdowns %+v", s)
	}
	if s[0].Jobs != 10 || s[1].Jobs != 10 {
		t.Fatalf("job counts %+v", s)
	}
	if got := SlowdownRatio(s); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("ratio %g, want 2.5", got)
	}
}

func TestSlowdownsSkipsWarmupAndBadRecords(t *testing.T) {
	recs := []core.JobRecord{
		{Class: 0, ResponseSec: 100, ExecSec: 1}, // warmup, skipped
		{Class: 0, ResponseSec: 20, ExecSec: 10},
		{Class: 0, ResponseSec: 5, ExecSec: 0}, // zero exec, skipped
		{Class: 9, ResponseSec: 5, ExecSec: 1}, // out of range, skipped
		{Class: 0, ResponseSec: 40, ExecSec: 10},
	}
	s := slowdowns(recs, 1, 0.2)
	if s[0].Jobs != 2 {
		t.Fatalf("%d jobs counted, want 2", s[0].Jobs)
	}
	if math.Abs(s[0].MeanSlowdown-3) > 1e-12 {
		t.Fatalf("mean slowdown %g, want 3", s[0].MeanSlowdown)
	}
}

func TestSlowdownRatioDegenerate(t *testing.T) {
	if got := SlowdownRatio(nil); got != 0 {
		t.Fatalf("nil ratio %g", got)
	}
	empty := []SlowdownStats{{Class: 0}, {Class: 1}}
	if got := SlowdownRatio(empty); got != 0 {
		t.Fatalf("empty ratio %g", got)
	}
}
