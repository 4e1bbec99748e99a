// Package metrics aggregates per-job records into the quantities the
// paper reports: per-class mean and 95th-percentile response times, the
// queueing/execution decomposition (Table 2), resource waste from
// evictions (§5.1), energy, and the motivation's latency slowdowns.
//
// Aggregation is streaming-first: Accumulator and SlowdownAccumulator
// fold records one at a time (typically wired to core.Config.OnRecord
// with DiscardRecords set), so experiment drivers never materialize the
// full per-job record slice of a run. Memory stays O(classes) plus the
// retained response-time samples that exact percentiles require. The
// batch entry point Aggregate is a thin wrapper over Accumulator and
// produces bit-identical results for the same record sequence.
//
// Comparison helpers (Compare, FormatComparisonTable,
// FormatDecompositionTable) render the paper's relative-difference
// figures and tables from ScenarioResult values.
package metrics
