// Trace replay: record the arrivals of one run as a "#dias-trace v1"
// stream (the format of internal/trace, the analogue of the production
// cluster traces the paper's motivation analyzes), then replay the exact
// same arrival sequence under a different policy — an apples-to-apples
// comparison with identical arrival instants, the methodology trace
// studies use.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"

	"dias"
	"dias/internal/analytics"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/metrics"
	"dias/internal/trace"
	"dias/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(1)
	}
}

func buildJobs() ([]*engine.Job, error) {
	rng := rand.New(rand.NewSource(42))
	lowCfg := workload.DefaultCorpusConfig()
	lowCfg.PostsPerPartition = 50
	lowCorpus, err := workload.SynthesizeCorpus(rng, lowCfg)
	if err != nil {
		return nil, err
	}
	highCfg := workload.DefaultCorpusConfig()
	highCfg.PostsPerPartition = 21
	highCorpus, err := workload.SynthesizeCorpus(rng, highCfg)
	if err != nil {
		return nil, err
	}
	return []*engine.Job{
		analytics.WordPopularityJob("low-text", lowCorpus, 10, 1117<<20),
		analytics.WordPopularityJob("high-text", highCorpus, 10, 473<<20),
	}, nil
}

func run() error {
	jobs, err := buildJobs()
	if err != nil {
		return err
	}

	// 1. Record: run P on a fresh Poisson stream.
	recorder, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyP(2), Seed: 1})
	if err != nil {
		return err
	}
	mix, err := workload.NewPoissonMix([]float64{0.055, 0.0062})
	if err != nil {
		return err
	}
	if err := recorder.SubmitStream(mix, workload.FixedJobs(jobs), 120, 7); err != nil {
		return err
	}
	recorder.Run()

	// 2. Persist the arrivals through the streamed trace format, as a
	// field study would with a real cluster trace. Records come back in
	// completion order; the format wants arrival order.
	recs := slices.Clone(recorder.Records())
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ArrivedAt < recs[j].ArrivedAt })
	var buf bytes.Buffer
	sw, err := trace.NewStreamWriter(&buf)
	if err != nil {
		return err
	}
	lowEvictions := 0
	for _, r := range recs {
		if err := sw.Write(trace.Rec{At: r.ArrivedAt.Seconds(), Class: r.Class, Home: -1}); err != nil {
			return err
		}
		if r.Class == 0 {
			lowEvictions += r.Evictions
		}
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded trace: %d arrivals (%d B %s), %d evictions of low-priority jobs\n",
		sw.Count(), buf.Len(), trace.StreamHeader, lowEvictions)

	// 3. Replay the identical arrival sequence under DA(0,20).
	replayProc, err := workload.NewEmpiricalStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	replayer, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyDA([]float64{0.2, 0}),
		Seed:   1,
	})
	if err != nil {
		return err
	}
	if err := replayer.SubmitStream(replayProc, workload.FixedJobs(jobs), sw.Count(), 7); err != nil {
		return err
	}
	replayer.Run()

	report := func(name string, st *dias.Stack) {
		agg := metrics.Aggregate(st.Records(), 2, 0.1)
		fmt.Printf("%-9s low mean %7.1fs p95 %7.1fs   high mean %6.1fs   evictions %d\n",
			name, agg[0].MeanResponseSec, agg[0].P95ResponseSec,
			agg[1].MeanResponseSec, agg[0].Evictions)
	}
	fmt.Println("same arrival instants, two policies:")
	report("P", recorder)
	report("DA(0,20)", replayer)
	return nil
}
