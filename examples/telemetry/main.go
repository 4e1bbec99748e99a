// Telemetry walkthrough: one fault-stressed DiAS stack traced end to
// end — lifecycle spans, node-churn events and simtime gauges collected
// while the run executes, then exported three ways: a Chrome trace_event
// file (open trace.json at https://ui.perfetto.dev or chrome://tracing),
// the raw event stream as JSONL (feed to cmd/dias-trace), and the gauge
// timeline as CSV. The run itself is byte-identical to an untraced one:
// tracing observes, it never perturbs.
//
//	go run ./examples/telemetry
//	go run ./cmd/dias-trace -events events.jsonl
package main

import (
	"fmt"
	"math/rand"
	"os"

	"dias"
	"dias/internal/analytics"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry:", err)
		os.Exit(1)
	}
}

func run() error {
	// The usual two-class word-popularity workload.
	rng := rand.New(rand.NewSource(7))
	corpus, err := workload.SynthesizeCorpus(rng, workload.DefaultCorpusConfig())
	if err != nil {
		return err
	}
	lowJob := analytics.WordPopularityJob("low", corpus, 10, 1<<28)
	highJob := analytics.WordPopularityJob("high", corpus[:len(corpus)/2], 10, 1<<27)

	// A registry keys collectors by run name; one collector holds one
	// run's spans, events and gauge timeline under fixed memory bounds
	// (reservoir-sampled job spans, capped event ring). A 30s simtime
	// gauge cadence samples queue depth, busy slots, powered nodes,
	// utilization and the admission reject rate.
	reg := telemetry.NewRegistry(telemetry.Config{GaugeIntervalSec: 30, Seed: 7})
	col := reg.Collector("walkthrough")

	// Full DiAS (differential approximation + sprinting) under node
	// churn, task faults and stragglers — the event mix that exercises
	// every tracer hook. StackConfig.Telemetry is the only extra line a
	// traced stack needs.
	stack, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyDiAS([]float64{0.2, 0}, core.SprintPolicy{
			TimeoutSec:     []float64{60, 0},
			BudgetJoules:   22e3,
			DrainWatts:     900,
			ReplenishWatts: 90,
		}),
		Faults: &faults.Config{
			Churn: &faults.ChurnConfig{MTTFSec: 900, MTTRSec: 60, HorizonSec: 4000},
			Tasks: &faults.TaskFaultConfig{
				FailProb: 0.05, MaxAttempts: 3,
				StragglerProb: 0.05, StragglerFactor: 4,
			},
			Seed: 7,
		},
		Telemetry: col,
		Seed:      7,
	})
	if err != nil {
		return err
	}
	pm, err := workload.NewPoissonMix([]float64{0.018, 0.002})
	if err != nil {
		return err
	}
	if err := stack.SubmitStream(pm, workload.FixedJobs([]*engine.Job{lowJob, highJob}), 60, 7); err != nil {
		return err
	}
	// Run drives the gauge sampler transparently: events fire at the
	// same instants as an untraced run and the clock ends in the same
	// place — gauge ticks are never simulation events.
	stack.Run()

	fmt.Printf("traced %d jobs (%d spans sampled), %d events (%d shed by the caps), %d gauge samples\n",
		col.SeenJobs(), col.SampledJobs(), len(col.Events()), col.Dropped(), col.Timeline().Len())

	// Export. The Chrome trace lays runs out as processes with lifecycle
	// / engine / cluster lanes plus per-member counter tracks; Perfetto
	// renders job spans as nestable async intervals.
	for _, x := range []struct {
		path  string
		write func(*os.File) error
	}{
		{"trace.json", func(f *os.File) error { return reg.WriteChromeTrace(f) }},
		{"events.jsonl", func(f *os.File) error { return reg.WriteEventsJSONL(f) }},
		{"timeline.csv", func(f *os.File) error { return reg.WriteTimelineCSV(f) }},
	} {
		f, err := os.Create(x.path)
		if err != nil {
			return err
		}
		if err := x.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", x.path)
	}

	// The same digest dias-trace prints: per-class span statistics and
	// the slowest job's stage-level critical path.
	f, err := os.Open("events.jsonl")
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := telemetry.ReadEventsJSONL(f)
	if err != nil {
		return err
	}
	fmt.Print(telemetry.Render(telemetry.Summarize(evs, 1)))
	return nil
}
