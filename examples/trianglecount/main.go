// Triangle count: run the full DiAS design (approximation + sprinting) on
// the graph-analytics workload and compare it with the preemptive
// baseline, including energy (§5.3 / Figure 11).
//
//	go run ./examples/trianglecount
package main

import (
	"fmt"
	"math"
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
		fmt.Fprintln(os.Stderr, "trianglecount:", err)
		os.Exit(1)
	}
}

// runPolicy pushes the same 3:7 high:low graph stream through one policy.
func runPolicy(policy core.Config, job *engine.Job) (metrics.ScenarioResult, error) {
	stack, err := dias.NewStack(dias.StackConfig{Policy: policy, Seed: 5})
	if err != nil {
		return metrics.ScenarioResult{}, err
	}
	rng := rand.New(rand.NewSource(17))
	mix, err := workload.NewPoissonMix([]float64{0.0105, 0.0045}) // 7:3
	if err != nil {
		return metrics.ScenarioResult{}, err
	}
	for _, a := range workload.StreamOf(mix, rng, 100) {
		stack.SubmitAt(a.At, a.Class, job)
	}
	stack.Run()
	res := metrics.ScenarioResult{
		PerClass:     metrics.Aggregate(stack.Records(), 2, 0.1),
		EnergyJoules: stack.Cluster.EnergyJoules(),
		MakespanSec:  stack.Sim.Now().Seconds(),
	}
	useful := stack.Cluster.BusySlotSeconds() - stack.Engine.WastedSlotSeconds()
	if total := useful + stack.Engine.WastedSlotSeconds(); total > 0 {
		res.ResourceWastePct = 100 * stack.Engine.WastedSlotSeconds() / total
	}
	return res, nil
}

func run() error {
	// Synthetic scale-free graph standing in for the Google web graph.
	rng := rand.New(rand.NewSource(3))
	edges, err := workload.SynthesizeGraph(rng, workload.GraphConfig{Nodes: 400, EdgesPerNode: 4})
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d edges, %d triangles (exact)\n\n", len(edges), analytics.ExactTriangles(edges))
	job := analytics.TriangleCountJob("tc", analytics.EdgeDataset(edges, 40), 40, 600<<20)

	sprint := core.SprintPolicy{
		TimeoutSec:   []float64{-1, 0}, // sprint high-priority from dispatch
		BudgetJoules: math.Inf(1),      // unlimited scenario
	}
	policies := []struct {
		name   string
		policy core.Config
	}{
		{"P (preemptive baseline)", core.PolicyP(2)},
		{"NP", core.PolicyNP(2)},
		{"DiAS(0,20)+sprint", core.PolicyDiAS([]float64{0.2, 0}, sprint)},
	}
	var base metrics.ScenarioResult
	for i, p := range policies {
		res, err := runPolicy(p.policy, job)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if i == 0 {
			base = res
			fmt.Printf("%-24s  low mean %7.1fs  high mean %7.1fs  waste %4.1f%%  energy %6.0f kJ\n",
				p.name, res.PerClass[0].MeanResponseSec, res.PerClass[1].MeanResponseSec,
				res.ResourceWastePct, res.EnergyJoules/1000)
			continue
		}
		cmp := metrics.Compare(base, res)[0]
		fmt.Printf("%-24s  low mean %+6.1f%%  high mean %+6.1f%%  waste %4.1f%%  energy %+5.1f%%\n",
			p.name, cmp.MeanDiffPct[0], cmp.MeanDiffPct[1], res.ResourceWastePct, cmp.EnergyDiffPct)
	}
	fmt.Println("\nFull DiAS improves both priority classes and cuts energy despite")
	fmt.Println("sprinting, with zero machine time wasted on evictions (§5.3).")
	return nil
}
