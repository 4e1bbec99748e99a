// Quickstart: run a two-priority job stream through DiAS and print
// per-class latencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"

	"dias"
	"dias/internal/analytics"
	"dias/internal/core"
	"dias/internal/engine"
	"dias/internal/metrics"
	"dias/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// DiAS policy: drop 20% of low-priority map tasks, never touch the
	// high class (the paper's DA(0,20)).
	stack, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyDA([]float64{0.2, 0}),
		Seed:   1,
	})
	if err != nil {
		return err
	}

	// Two corpora: low-priority jobs are ~2.4x larger, like the paper's
	// reference setup.
	rng := rand.New(rand.NewSource(42))
	lowCfg := workload.DefaultCorpusConfig()
	lowCfg.PostsPerPartition = 50
	lowCorpus, err := workload.SynthesizeCorpus(rng, lowCfg)
	if err != nil {
		return err
	}
	highCfg := workload.DefaultCorpusConfig()
	highCfg.PostsPerPartition = 21
	highCorpus, err := workload.SynthesizeCorpus(rng, highCfg)
	if err != nil {
		return err
	}
	jobs := []*engine.Job{
		analytics.WordPopularityJob("low-text", lowCorpus, 10, 1117<<20),
		analytics.WordPopularityJob("high-text", highCorpus, 10, 473<<20),
	}

	// Poisson arrivals, 9:1 low:high.
	mix, err := workload.NewPoissonMix([]float64{0.018, 0.002})
	if err != nil {
		return err
	}
	for _, a := range workload.StreamOf(mix, rng, 60) {
		stack.SubmitAt(a.At, a.Class, jobs[a.Class])
	}
	stack.Run()

	stats := metrics.Aggregate(stack.Records(), 2, 0.1)
	fmt.Println("DiAS DA(0,20) on a 9:1 two-priority stream:")
	for k := 1; k >= 0; k-- {
		label := [2]string{"low ", "high"}[k]
		fmt.Printf("  %s  mean %7.1fs   p95 %7.1fs   jobs %d\n",
			label, stats[k].MeanResponseSec, stats[k].P95ResponseSec, stats[k].Jobs)
	}
	fmt.Printf("  energy: %.0f kJ, makespan %.0f s, no evictions, no waste\n",
		stack.Cluster.EnergyJoules()/1000, stack.Sim.Now().Seconds())
	return nil
}
