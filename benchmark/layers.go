package main

// The --trace 1 path: one untraced reference repetition, one traced
// repetition whose digest must match it, the isolated probes, and the
// per-layer metrics assembled from all three.

import (
	"fmt"
	"time"
)

// layerMetrics declares every per-layer metric, <layer>.<metric> with the
// layers being this repository's packages. Traced values come from the
// traced repetition's spans and boundary counts, the rest from probes.go.
var layerMetrics = []metricDef{
	{"analytics.compute.busy_s", "s", "lower"},
	{"analytics.compute.calls", "count", "lower"},
	{"analytics.compute.records_in", "count", "lower"},
	{"analytics.compute.records_out", "count", "lower"},
	{"analytics.compute.wall_share_pct", "%", "lower"},
	{"analytics.map.ns_per_record", "ns/rec", "lower"},
	{"analytics.reduce.ns_per_record", "ns/rec", "lower"},
	{"analytics.triangle.ns_per_record", "ns/rec", "lower"},
	{"engine.tasks_executed", "count", "lower"},
	{"engine.tasks_dropped", "count", "higher"},
	{"engine.memo_hit_pct", "%", "higher"},
	{"engine.evictions", "count", "lower"},
	{"engine.wasted_slot_s", "s", "lower"},
	{"engine.noop_task.ns", "ns", "lower"},
	{"engine.noop_job.allocs", "allocs", "lower"},
	{"engine.shuffle.ns_per_record", "ns/rec", "lower"},
	{"engine.kill_resubmit.ns", "ns", "lower"},
	{"simtime.schedule_fire.ns", "ns", "lower"},
	{"simtime.allocs_per_event", "allocs", "lower"},
	{"simtime.reschedule.ns", "ns", "lower"},
	{"simtime.timer_reset.ns", "ns", "lower"},
	{"core.arrive_buffered.ns", "ns", "lower"},
	{"cluster.acquire_release.ns", "ns", "lower"},
	{"cluster.busy_slot_s", "s", "lower"},
	{"cluster.utilization_pct", "%", "higher"},
	{"spine.self_s", "s", "lower"},
	{"spine.self_share_pct", "%", "lower"},
	{"federation.route.busy_s", "s", "lower"},
	{"federation.route.calls", "count", "lower"},
	{"federation.spills", "count", "lower"},
	{"federation.peak_in_flight", "count", "lower"},
	{"federation.route.random.ns", "ns", "lower"},
	{"federation.route.round-robin.ns", "ns", "lower"},
	{"federation.route.jsq.ns", "ns", "lower"},
	{"federation.route.least-loaded.ns", "ns", "lower"},
	{"federation.route.sprint-aware.ns", "ns", "lower"},
	{"federation.route.data-local.ns", "ns", "lower"},
	{"federation.route_outage.jsq.ns", "ns", "lower"},
	{"dfs.read_time.ns", "ns", "lower"},
	{"workload.next.busy_s", "s", "lower"},
	{"workload.next.calls", "count", "lower"},
	{"workload.next.poisson.ns", "ns", "lower"},
	{"workload.next.gamma.ns", "ns", "lower"},
	{"workload.corpus_synth.ns_per_post", "ns/post", "lower"},
	{"metrics.add.busy_s", "s", "lower"},
	{"metrics.add.calls", "count", "lower"},
	{"metrics.add.ns", "ns", "lower"},
	{"stats.loghist_add.ns", "ns", "lower"},
	{"stats.loghist_quantile.ns", "ns", "lower"},
	{"trace.stream_write.ns_per_rec", "ns/rec", "lower"},
	{"trace.stream_read.ns_per_rec", "ns/rec", "lower"},
	{"telemetry.traced_job.overhead_pct", "%", "lower"},
	{"telemetry.export.ns_per_event", "ns/event", "lower"},
	{"admission.admit.token-bucket.ns", "ns", "lower"},
	{"admission.admit.slo-budget.ns", "ns", "lower"},
	{"faults.task_started.ns", "ns", "lower"},
	{"runner.map.us_per_task", "us", "lower"},
	{"experiments.fig.motivation.wall_s", "s", "lower"},
	{"experiments.fig.4.wall_s", "s", "lower"},
	{"experiments.fig.5.wall_s", "s", "lower"},
	{"experiments.fig.6.wall_s", "s", "lower"},
	{"experiments.fig.7.wall_s", "s", "lower"},
	{"experiments.fig.8.wall_s", "s", "lower"},
	{"experiments.fig.9.wall_s", "s", "lower"},
	{"experiments.fig.faults.wall_s", "s", "lower"},
	{"experiments.fig.elasticity.wall_s", "s", "lower"},
	{"experiments.fig.overload.wall_s", "s", "lower"},
	{"experiments.fig.federation-scaleout.wall_s", "s", "lower"},
	{"model.predict_mean_response.ms", "ms", "lower"},
	{"queueing.mean_response_times.us", "us", "lower"},
	{"phdist.fit_mean_scv.us", "us", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.heap_live_peak_mib", "MiB", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"sim.low_mean_response_s", "s", "lower"},
	{"sim.high_mean_response_s", "s", "lower"},
	{"sim.high_p95_response_s", "s", "lower"},
	{"sim.energy_kj_per_job", "kJ/job", "lower"},
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// runTraced is the --trace 1 path.
func runTraced(w workloadSpec, opt options) (*report, error) {
	rep := newReport(opt, w)
	tr := newTracer()
	runStart := time.Now()

	prep, setupSecs, err := prepareTimed(w, opt.seed, false)
	if err != nil {
		return nil, err
	}
	tr.span(spanSetup, spanRun).add(time.Duration(setupSecs[0] * float64(time.Second)))
	n := rep.Env.Jobs
	if rep.Env.WarmJobs > 0 {
		if _, err := measured(prep, rep.Env.WarmJobs, nil); err != nil {
			return nil, fmt.Errorf("warm-up of %s: %w", w.name, err)
		}
	}
	ref, err := measured(prep, n, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced repetition of %s: %w", w.name, err)
	}
	rt := startRuntimeProbe()
	traced, err := measured(prep, n, tr)
	gcCPU, gcCycles, pauseMs, peakLiveMiB := rt.finish()
	if err != nil {
		return nil, fmt.Errorf("traced repetition of %s: %w", w.name, err)
	}
	drive := traced.wallSec
	tr.span(spanDrive, spanRun).add(time.Duration(drive * float64(time.Second)))

	// Traced ≡ untraced proves the wrappers are transparent.
	rep.Digest = ref.digest
	rep.Attempted = ref.attempted + traced.attempted
	rep.Failed = ref.failed + traced.failed
	if traced.digest != ref.digest {
		rep.Failed = rep.Attempted
	}
	rep.Correct = rep.Failed == 0

	if err := addProbes(rep, opt); err != nil {
		return nil, err
	}

	jobs := traced.attempted
	count := func(v uint64) value { return counted(float64(v), "count", jobs) }
	compute := tr.busy(spanCompute)
	rep.set("analytics.compute.busy_s", counted(compute, "s", int(tr.calls(spanCompute))))
	rep.set("analytics.compute.calls", count(tr.calls(spanCompute)))
	rep.set("analytics.compute.records_in", count(tr.recordsIn))
	rep.set("analytics.compute.records_out", count(tr.recordsOut))
	rep.set("analytics.compute.wall_share_pct", counted(pct(compute, drive), "%", int(tr.calls(spanCompute))))
	rep.set("engine.tasks_executed", count(uint64(traced.tasksExecuted)))
	rep.set("engine.tasks_dropped", count(uint64(traced.tasksDropped)))
	memoHit := 0.0
	if traced.stage0Executed > 0 {
		memoHit = 100 * (1 - float64(tr.stage0Calls)/float64(traced.stage0Executed))
	}
	rep.set("engine.memo_hit_pct", counted(memoHit, "%", traced.stage0Executed))
	rep.set("engine.evictions", count(uint64(traced.evictions)))
	rep.set("engine.wasted_slot_s", counted(traced.wastedSlotSec, "s", jobs))
	rep.set("cluster.busy_slot_s", counted(traced.busySlotSec, "s", jobs))
	rep.set("cluster.utilization_pct", counted(traced.utilizationPct, "%", jobs))
	self := tr.selfSeconds(spanDrive)
	rep.set("spine.self_s", counted(self, "s", jobs))
	rep.set("spine.self_share_pct", counted(pct(self, drive), "%", jobs))
	rep.set("federation.route.busy_s", counted(tr.busy(spanRoute), "s", int(tr.calls(spanRoute))))
	rep.set("federation.route.calls", count(tr.calls(spanRoute)))
	rep.set("federation.spills", count(uint64(traced.spills)))
	rep.set("federation.peak_in_flight", count(uint64(traced.peakInFlight)))
	rep.set("workload.next.busy_s", counted(tr.busy(spanNext), "s", int(tr.calls(spanNext))))
	rep.set("workload.next.calls", count(tr.calls(spanNext)))
	rep.set("metrics.add.busy_s", counted(tr.busy(spanAdd), "s", int(tr.calls(spanAdd))))
	rep.set("metrics.add.calls", count(tr.calls(spanAdd)))
	for _, name := range figureDrivers {
		rep.set("experiments.fig."+name+".wall_s", counted(traced.figWallSec[name], "s", 1))
	}
	rep.set("runtime.gc_cpu_s", counted(gcCPU, "s", int(gcCycles)))
	rep.set("runtime.gc_cycles", counted(float64(gcCycles), "count", 1))
	rep.set("runtime.gc_pause_total_ms", counted(pauseMs, "ms", int(gcCycles)))
	rep.set("runtime.heap_live_peak_mib", counted(peakLiveMiB, "MiB", 1))
	rep.set("bench.trace_overhead_pct", counted(pct(traced.wallSec-ref.wallSec, ref.wallSec), "%", 1))
	rep.set("sim.low_mean_response_s", counted(traced.sim.lowMeanSec, "s", jobs))
	rep.set("sim.high_mean_response_s", counted(traced.sim.highMeanSec, "s", traced.sim.highSamples))
	rep.set("sim.high_p95_response_s", counted(traced.sim.highP95Sec, "s", traced.sim.highSamples))
	rep.set("sim.energy_kj_per_job", counted(traced.sim.energyKJPerJob, "kJ/job", jobs))

	tr.span(spanRun, "").add(time.Since(runStart))
	counters := make(map[string]float64, len(rep.Metrics))
	for name, v := range rep.Metrics {
		counters[name] = v.Value
	}
	if err := tr.write(opt.outDir, w.name, rep.Env, counters); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return rep, nil
}
