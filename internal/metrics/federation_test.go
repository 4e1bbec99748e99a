package metrics

import (
	"strings"
	"testing"

	"dias/internal/core"
)

func fedRecord(class int, resp float64) core.JobRecord {
	return core.JobRecord{Class: class, ResponseSec: resp, ExecSec: resp / 2, QueueSec: resp / 2}
}

func TestFederationAccumulatorPartitionsRecords(t *testing.T) {
	// 20 expected records, 10% warmup: the first 2 are skipped everywhere.
	a := NewFederationAccumulator(2, 2, 20, 0.1)
	for i := 0; i < 20; i++ {
		a.Add(i%2, fedRecord(i%2, float64(10+i)))
	}
	overall := a.OverallClasses()
	var overallJobs, clusterJobs int
	for _, cs := range overall {
		overallJobs += cs.Jobs
	}
	if overallJobs != 18 {
		t.Fatalf("overall kept %d jobs, want 18 (2 warmup skipped)", overallJobs)
	}
	for i := 0; i < 2; i++ {
		for _, cs := range a.ClusterClasses(i) {
			clusterJobs += cs.Jobs
		}
	}
	if clusterJobs != overallJobs {
		t.Fatalf("per-cluster jobs %d != overall %d (partition property violated)", clusterJobs, overallJobs)
	}
	// Records alternate cluster==class, so each cluster holds exactly its
	// class's jobs.
	if got := a.ClusterClasses(0)[1].Jobs; got != 0 {
		t.Fatalf("cluster 0 claims %d class-1 jobs", got)
	}
}

func TestFederationAccumulatorIgnoresBadCluster(t *testing.T) {
	a := NewFederationAccumulator(2, 1, 10, 0)
	a.Add(-1, fedRecord(0, 1))
	a.Add(5, fedRecord(0, 1))
	a.Add(0, fedRecord(0, 1))
	var jobs int
	for _, cs := range a.OverallClasses() {
		jobs += cs.Jobs
	}
	if jobs != 1 {
		t.Fatalf("kept %d jobs, want 1", jobs)
	}
}

func TestFormatFederationTable(t *testing.T) {
	a := NewFederationAccumulator(2, 2, 4, 0)
	a.Add(0, fedRecord(0, 10))
	a.Add(0, fedRecord(1, 5))
	a.Add(1, fedRecord(0, 20))
	a.Add(1, fedRecord(1, 8))
	res := FederationScenarioResult{
		Name: "JSQ/2",
		Overall: ScenarioResult{
			Name: "JSQ/2", PerClass: a.OverallClasses(),
			EnergyJoules: 5e6, MakespanSec: 1000,
		},
		PerCluster: []ClusterResult{
			{Name: "a", RoutedJobs: 2, PerClass: a.ClusterClasses(0), EnergyJoules: 2e6, UtilizationPct: 40},
			{Name: "b", RoutedJobs: 2, PerClass: a.ClusterClasses(1), EnergyJoules: 3e6, UtilizationPct: 60},
		},
	}
	out := FormatFederationTable(res)
	for _, want := range []string{"JSQ/2", "overall", "[a", "[b", "routed", "util", "High", "Low"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
