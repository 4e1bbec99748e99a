// Package trace persists and replays scheduler-level arrival traces.
//
// StreamReader/StreamWriter move arrival records (time, class, size, home
// cluster) through the line-oriented "#dias-trace v1" text format
// incrementally over bufio, one record in memory at a time, so
// million-job traces replay in O(1) space regardless of file length.
// Synthesize writes such a trace deterministically from per-class rates,
// and workload.EmpiricalStream turns any trace stream back into an
// arrival process (see docs/WORKLOADS.md for the format spec).
//
// The format round-trips losslessly: times are formatted with strconv's
// shortest exact representation, so write → read → write is
// byte-identical.
//
// Scheduler events (arrivals, dispatches, evictions, sprint transitions,
// completions, rejections) are not recorded here: the telemetry package
// is the one event log.
package trace
