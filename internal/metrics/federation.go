package metrics

import (
	"fmt"
	"strings"

	"dias/internal/core"
)

// ClusterResult is one member cluster's slice of a federation run.
type ClusterResult struct {
	// Name labels the member (federation.MemberSpec.Name).
	Name string
	// RoutedJobs is how many arrivals the dispatcher sent here.
	RoutedJobs int
	// PerClass aggregates the jobs this member completed (post-warmup).
	PerClass []ClassStats
	// EnergyJoules is this member's cluster energy over the run.
	EnergyJoules float64
	// ResourceWastePct is evicted machine time over all machine time on
	// this member, in percent.
	ResourceWastePct float64
	// UtilizationPct is busy slot-seconds over slot capacity x makespan,
	// the time-averaged busy share of this member.
	UtilizationPct float64
}

// FederationScenarioResult is one routing policy's outcome on a federated
// workload: the federation-wide rollup plus the per-cluster breakdown.
type FederationScenarioResult struct {
	// Name is the scenario label (e.g. "JSQ/4").
	Name string
	// Overall aggregates across every member: per-class stats over all
	// completions, summed energy, waste over summed machine time, and the
	// shared-clock makespan.
	Overall ScenarioResult
	// PerCluster breaks the run down by member, in member order.
	PerCluster []ClusterResult
}

// FederationAccumulator folds the completed-job records of a federation
// run into per-cluster and federation-wide statistics as they stream in
// (wire Add to federation.Config.OnRecord). Warmup is federation-wide:
// the first warmupFraction of the expected completions is skipped
// everywhere, so the per-cluster stats partition exactly the records the
// overall stats aggregate.
type FederationAccumulator struct {
	skip, seen int
	overall    *Accumulator
	perCluster []*Accumulator
}

// NewFederationAccumulator sizes an accumulator for a federation of the
// given member count and class count, expecting expectedRecords total
// completions.
func NewFederationAccumulator(clusters, classes, expectedRecords int, warmupFraction float64) *FederationAccumulator {
	return newFederationAccumulator(clusters, classes, expectedRecords, warmupFraction, false)
}

// NewBoundedFederationAccumulator is the strictly O(clusters × classes)
// variant for million-job streaming runs: every member and the overall
// rollup use NewBoundedAccumulator, so no per-job response samples are
// retained anywhere (P95, like P99, comes from the streaming log
// histogram; counts stay exact).
func NewBoundedFederationAccumulator(clusters, classes, expectedRecords int, warmupFraction float64) *FederationAccumulator {
	return newFederationAccumulator(clusters, classes, expectedRecords, warmupFraction, true)
}

func newFederationAccumulator(clusters, classes, expectedRecords int, warmupFraction float64, bounded bool) *FederationAccumulator {
	a := &FederationAccumulator{
		skip:       int(float64(expectedRecords) * clampWarmup(warmupFraction)),
		overall:    newAccumulator(classes, 0, 0, bounded),
		perCluster: make([]*Accumulator, clusters),
	}
	for i := range a.perCluster {
		a.perCluster[i] = newAccumulator(classes, 0, 0, bounded)
	}
	return a
}

// Add folds one completed-job record from the given member cluster.
// Records from out-of-range clusters are ignored, mirroring how
// Accumulator treats out-of-range classes.
func (a *FederationAccumulator) Add(cluster int, rec core.JobRecord) {
	a.seen++
	if a.seen <= a.skip || cluster < 0 || cluster >= len(a.perCluster) {
		return
	}
	a.overall.Add(rec)
	a.perCluster[cluster].Add(rec)
}

// OverallClasses finalizes and returns the federation-wide per-class
// statistics.
func (a *FederationAccumulator) OverallClasses() []ClassStats { return a.overall.Classes() }

// ClusterClasses finalizes and returns one member's per-class statistics.
func (a *FederationAccumulator) ClusterClasses(i int) []ClassStats {
	return a.perCluster[i].Classes()
}

// FormatFederationTable renders a federation scenario: the overall rollup
// line plus one line per member cluster.
func FormatFederationTable(r FederationScenarioResult) string {
	var b strings.Builder
	classes := len(r.Overall.PerClass)
	fmt.Fprintf(&b, "%-16s overall: energy %8.0f kJ  waste %4.1f%%  makespan %8.0fs\n",
		r.Name, r.Overall.EnergyJoules/1000, r.Overall.ResourceWastePct, r.Overall.MakespanSec)
	for k := classes - 1; k >= 0; k-- {
		cs := r.Overall.PerClass[k]
		fmt.Fprintf(&b, "  %-7s mean %9.2fs   p95 %9.2fs   (n=%d)\n",
			classLabel(k, classes), cs.MeanResponseSec, cs.P95ResponseSec, cs.Jobs)
	}
	for _, c := range r.PerCluster {
		fmt.Fprintf(&b, "  [%-4s] routed %5d  util %5.1f%%  energy %8.0f kJ",
			c.Name, c.RoutedJobs, c.UtilizationPct, c.EnergyJoules/1000)
		for k := len(c.PerClass) - 1; k >= 0; k-- {
			fmt.Fprintf(&b, "  %s mean %8.1fs", classLabel(k, len(c.PerClass)), c.PerClass[k].MeanResponseSec)
		}
		b.WriteString("\n")
	}
	return b.String()
}
