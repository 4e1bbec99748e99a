// Text analysis: quantify the latency-accuracy tradeoff of differential
// approximation on the StackExchange-style word-popularity workload.
// For each drop ratio, the example reports the solo job latency, the
// latency under a loaded two-priority stream, and the accuracy loss of the
// estimator-corrected word counts — the tradeoff the DiAS deflator
// navigates (§5.2).
//
//	go run ./examples/textanalysis
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
		fmt.Fprintln(os.Stderr, "textanalysis:", err)
		os.Exit(1)
	}
}

func buildCorpus(seed int64, posts int) (engine.Dataset, error) {
	cfg := workload.DefaultCorpusConfig()
	cfg.PostsPerPartition = posts
	rng := rand.New(rand.NewSource(seed))
	return workload.SynthesizeCorpus(rng, cfg)
}

// soloRun measures one job alone on an idle stack, returning its duration
// and output word counts.
func soloRun(job *engine.Job, theta float64, seed int64) (float64, map[string]float64, error) {
	policy := core.PolicyDA([]float64{theta})
	policy.KeepOutputs = true
	stack, err := dias.NewStack(dias.StackConfig{Policy: policy, Seed: seed})
	if err != nil {
		return 0, nil, err
	}
	stack.SubmitAt(0, 0, job)
	stack.Run()
	recs := stack.Records()
	if len(recs) != 1 {
		return 0, nil, fmt.Errorf("expected 1 record, got %d", len(recs))
	}
	counts := analytics.WordCounts(recs[0].Output)
	if theta > 0 {
		counts = analytics.ScaleCounts(counts, 1-recs[0].EffectiveDropRatio)
	}
	return recs[0].ExecSec, counts, nil
}

// loadedRun measures low-class latency under a 9:1 loaded stream.
func loadedRun(low, high *engine.Job, theta float64, seed int64) (lowMean, highMean float64, err error) {
	stack, err := dias.NewStack(dias.StackConfig{
		Policy: core.PolicyDA([]float64{theta, 0}),
		Seed:   seed,
	})
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	mix, err := workload.NewPoissonMix([]float64{0.0225, 0.0025}) // ~80% load
	if err != nil {
		return 0, 0, err
	}
	jobs := []*engine.Job{low, high}
	for _, a := range workload.StreamOf(mix, rng, 120) {
		stack.SubmitAt(a.At, a.Class, jobs[a.Class])
	}
	stack.Run()
	cs := metrics.Aggregate(stack.Records(), 2, 0.1)
	return cs[0].MeanResponseSec, cs[1].MeanResponseSec, nil
}

func run() error {
	lowCorpus, err := buildCorpus(7, 50)
	if err != nil {
		return err
	}
	highCorpus, err := buildCorpus(8, 21)
	if err != nil {
		return err
	}
	lowJob := analytics.WordPopularityJob("low-text", lowCorpus, 10, 1117<<20)
	highJob := analytics.WordPopularityJob("high-text", highCorpus, 10, 473<<20)

	_, exact, err := soloRun(lowJob, 0, 99)
	if err != nil {
		return err
	}

	fmt.Println("Differential approximation tradeoff (low-priority text job):")
	fmt.Println("theta  solo[s]  loaded-low[s]  loaded-high[s]  accuracy-loss[%]")
	for _, theta := range []float64{0, 0.1, 0.2, 0.4} {
		solo, counts, err := soloRun(lowJob, theta, 99)
		if err != nil {
			return err
		}
		mape := 0.0
		if theta > 0 {
			mape, err = analytics.WordAccuracyMAPE(exact, counts, 100)
			if err != nil {
				return err
			}
		}
		lowMean, highMean, err := loadedRun(lowJob, highJob, theta, 31)
		if err != nil {
			return err
		}
		fmt.Printf("%5.2f  %7.1f  %13.1f  %14.1f  %16.1f\n", theta, solo, lowMean, highMean, mape)
	}
	fmt.Println("\nDropping low-priority tasks cuts their latency under load at a")
	fmt.Println("bounded accuracy loss, without evicting anything (paper §5.2).")
	return nil
}
