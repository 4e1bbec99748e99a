// Adaptive deflation: the paper picks drop ratios offline and re-searches
// "upon every workload change" (§5.3). This example closes the loop with
// core.AdaptiveDeflator: a two-priority stream runs calm for its first
// half, then the arrival rate nearly doubles; the controller walks the
// low class's θ up only when the overload hits and back down if it clears,
// so accuracy is spent exactly when latency needs it.
//
//	go run ./examples/adaptive
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
	"dias/internal/simtime"
	"dias/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}

func buildJobs(seed int64) ([]*engine.Job, error) {
	rng := rand.New(rand.NewSource(seed))
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

// steppedStream builds a calm half followed by an overloaded half.
func steppedStream(seed int64, n int) ([]workload.Arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	calm, err := workload.NewPoissonMix([]float64{0.042, 0.0047}) // ~60% load
	if err != nil {
		return nil, err
	}
	hot, err := workload.NewPoissonMix([]float64{0.078, 0.0087}) // ~110% load
	if err != nil {
		return nil, err
	}
	arr := workload.StreamOf(calm, rng, n/2)
	offset := arr[len(arr)-1].At
	for _, a := range workload.StreamOf(hot, rng, n-n/2) {
		arr = append(arr, workload.Arrival{At: offset + a.At, Class: a.Class})
	}
	return arr, nil
}

func run() error {
	jobs, err := buildJobs(42)
	if err != nil {
		return err
	}
	arrivals, err := steppedStream(43, 120)
	if err != nil {
		return err
	}

	runOne := func(name string, mkPolicy func(*dias.Stack) error) (*dias.Stack, error) {
		stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(2), Seed: 1})
		if err != nil {
			return nil, err
		}
		if mkPolicy != nil {
			if err := mkPolicy(stack); err != nil {
				return nil, err
			}
		}
		replay, err := workload.NewReplay(arrivals)
		if err != nil {
			return nil, err
		}
		if err := stack.SubmitStream(replay, workload.FixedJobs(jobs), len(arrivals), 1); err != nil {
			return nil, err
		}
		stack.Run()
		return stack, nil
	}

	// Baseline: plain NP, no dropping.
	np, err := runOne("NP", nil)
	if err != nil {
		return err
	}

	// Adaptive: target 3x the low job's unloaded execution, ceiling 0.4.
	// StackConfig.Deflation binds the controller to the stack's clock at
	// construction time; the closure keeps the concrete handle for the
	// decision log below.
	var ctl *core.AdaptiveDeflator
	adaptive, err := func() (*dias.Stack, error) {
		stack, err := dias.NewStack(dias.StackConfig{
			Policy: core.PolicyNP(2),
			Deflation: func(sim *simtime.Simulation) (core.Deflator, error) {
				var err error
				ctl, err = core.NewAdaptiveDeflator(sim, core.AdaptiveConfig{
					TargetResponseSec: []float64{60, 0},
					MaxTheta:          []float64{0.4, 0},
					Window:            6,
					Step:              0.05,
					Hysteresis:        0.6,
				})
				return ctl, err
			},
			Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		replay, err := workload.NewReplay(arrivals)
		if err != nil {
			return nil, err
		}
		if err := stack.SubmitStream(replay, workload.FixedJobs(jobs), len(arrivals), 1); err != nil {
			return nil, err
		}
		stack.Run()
		return stack, nil
	}()
	if err != nil {
		return err
	}

	report := func(name string, st *dias.Stack) {
		agg := metrics.Aggregate(st.Records(), 2, 0)
		var dropSum float64
		var n int
		for _, r := range st.Records() {
			if r.Class == 0 {
				dropSum += r.EffectiveDropRatio
				n++
			}
		}
		fmt.Printf("%-9s low mean %7.1fs  p95 %7.1fs   high mean %6.1fs   mean drop %4.1f%%\n",
			name, agg[0].MeanResponseSec, agg[0].P95ResponseSec,
			agg[1].MeanResponseSec, 100*dropSum/float64(n))
	}
	fmt.Println("Load step (calm -> ~110% load) on a 9:1 two-priority stream:")
	report("NP", np)
	report("adaptive", adaptive)
	fmt.Printf("controller decisions: %d (theta now %.2f)\n", len(ctl.History()), ctl.Theta(0))
	for _, h := range ctl.History() {
		fmt.Printf("  t=%7.0fs  theta -> %.2f  (windowed mean %.0fs)\n", h.At.Seconds(), h.Theta, h.WindowAvg)
	}
	return nil
}
