package experiments

// Fault-tolerance and elasticity experiments: the paper evaluates DiAS on
// a healthy, fixed-size testbed, but its scheduling and sprinting
// trade-offs matter most when the substrate misbehaves — nodes churn,
// tasks fail and straggle, load swings over the day. FaultTolerance grids
// availability regimes against scheduling policies on the fault-injection
// layer (internal/faults); Elasticity drives a diurnal arrival stream
// against fixed and autoscaled clusters (core.Autoscaler); and
// FederationOutage stresses the routing policies with whole-cluster
// outages (federation.ScheduleOutage).

import (
	"fmt"

	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/faults"
	"dias/internal/metrics"
	"dias/internal/workload"
)

// FaultFigure is the output shape of the fault and elasticity drivers: a
// flat grid of scenario rows (no paper baseline to diff against).
type FaultFigure struct {
	Title string
	Rows  []metrics.ScenarioResult
	// Elastic switches rendering to the capacity/energy columns.
	Elastic bool
}

// String renders the grid.
func (f *FaultFigure) String() string {
	if f.Elastic {
		return f.Title + "\n" + metrics.FormatElasticityTable(f.Rows...)
	}
	return f.Title + "\n" + metrics.FormatFaultTable(f.Rows...)
}

// Scenarios returns the rows the benchmark report aggregates.
func (f *FaultFigure) Scenarios() []metrics.ScenarioResult { return f.Rows }

// faultRegime is one availability level of the FaultTolerance grid.
type faultRegime struct {
	name string
	plan *faults.Config
}

// faultRegimes is the availability axis: healthy baseline, light and
// heavy node churn, task-level faults with bounded retries, injected
// stragglers, and everything at once.
func faultRegimes() []faultRegime {
	lightChurn := &faults.ChurnConfig{MTTFSec: 3600, MTTRSec: 60}
	heavyChurn := &faults.ChurnConfig{MTTFSec: 900, MTTRSec: 120}
	taskFaults := &faults.TaskFaultConfig{FailProb: 0.03, MaxAttempts: 3}
	stragglers := &faults.TaskFaultConfig{StragglerProb: 0.05, StragglerFactor: 4}
	return []faultRegime{
		{"healthy", nil},
		{"churn", &faults.Config{Churn: lightChurn}},
		{"churn-heavy", &faults.Config{Churn: heavyChurn}},
		{"taskfaults", &faults.Config{Tasks: taskFaults}},
		{"stragglers", &faults.Config{Tasks: stragglers}},
		{"combined", &faults.Config{
			Churn: lightChurn,
			Tasks: &faults.TaskFaultConfig{
				FailProb: 0.03, MaxAttempts: 3,
				StragglerProb: 0.05, StragglerFactor: 4,
			},
		}},
	}
}

// FaultTolerance runs the two-class reference workload across the
// availability x policy grid: each fault regime against the paper's
// preemptive baseline P, plain differential approximation DA(0,20) and
// the full DiAS system (DA + sprinting). Expected shape: churn and task
// faults inflate latencies and failure waste for every policy, but the
// non-preemptive approximating policies degrade more gracefully than P
// (whose evictions compound with failure re-execution); under the
// bounded-retry regimes a small tail of jobs is reported failed with
// retries exhausted rather than retried forever.
func FaultTolerance(scale Scale) (*FaultFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	mix, err := referenceMix(scale.Seed+170, referenceSetup())
	if err != nil {
		return nil, err
	}
	// 70% nominal load: the faulty regimes shave capacity, and 80% would
	// push them into saturation.
	rates, err := mix.rates(0.7)
	if err != nil {
		return nil, err
	}
	policies := []namedPolicy{
		{"P", core.PolicyP(2)},
		{"DA(0,20)", core.PolicyDA([]float64{0.2, 0})},
		{"DiAS(0,20)", federationPolicy()},
	}
	var scs []scenario
	for _, p := range policies {
		for _, reg := range faultRegimes() {
			scs = append(scs, scenario{
				name:      fmt.Sprintf("%s/%s", p.name, reg.name),
				policy:    p.policy,
				rates:     rates,
				jobs:      mix.jobs,
				cost:      textCostModel(),
				cluster:   cluster.DefaultConfig(),
				scale:     scale,
				faultPlan: reg.plan,
			})
		}
	}
	rows, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &FaultFigure{
		Title: "Fault tolerance: availability x policy grid (churn, bounded-retry task faults, stragglers)",
		Rows:  rows,
	}, nil
}

// Elasticity drives a diurnal arrival stream (sinusoidal rate, 4 swings
// over the run) against fixed-size and autoscaled clusters running the
// full DiAS policy. Expected shape: the fixed small cluster saturates at
// the peaks, the fixed large one wastes idle energy in the troughs, and
// the autoscalers (backlog- and latency-driven, 4..16 nodes, scale-in
// suppressed while sprinting) track the swing — latency near the large
// cluster's at an energy bill near the small one's. AvgNodes in the
// output is the capacity actually paid for.
//
// Measurement note: the autoscaled cells' makespan/energy include up to
// one tick interval (30 s) of idle accrual after the last completion —
// the already-armed tick advances the clock once before finding the
// simulation drained and disarming. The offset is deterministic per
// seed (it never reads as drift to the bench gate) and small next to the
// arrival span; ticking cannot stop earlier without also freezing
// scale-in during genuine load troughs.
func Elasticity(scale Scale) (*FaultFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	small := cluster.DefaultConfig() // 10 nodes
	big := cluster.DefaultConfig()
	big.Nodes = 16
	mix, err := referenceMix(scale.Seed+180, referenceSetup())
	if err != nil {
		return nil, err
	}
	// Mean load 60% of the small cluster's capacity; a 0.75 amplitude
	// swings the instantaneous load between 15% and 105% of it.
	totalRate, err := mix.totalRate(0.6)
	if err != nil {
		return nil, err
	}
	rates, err := workload.MixFromRatio(mix.ratio, totalRate)
	if err != nil {
		return nil, err
	}
	// Four full swings across the expected arrival span.
	period := float64(scale.Jobs) / totalRate / 4
	diasPolicy := federationPolicy()
	backlogAS := &core.AutoscalerConfig{
		Policy:       core.BacklogScalePolicy{ScaleOutAbove: 3, ScaleInBelow: 1, Step: 3},
		MinNodes:     4,
		MaxNodes:     16,
		InitialNodes: 10,
		IntervalSec:  30,
		CooldownSec:  60,
	}
	latencyAS := &core.AutoscalerConfig{
		Policy: core.LatencyScalePolicy{
			TargetSec: 2.5 * mix.solo[0],
			Headroom:  0.3,
			Step:      3,
		},
		MinNodes:     4,
		MaxNodes:     16,
		InitialNodes: 10,
		IntervalSec:  30,
		CooldownSec:  60,
	}
	cells := []struct {
		name    string
		cluster cluster.Config
		as      *core.AutoscalerConfig
	}{
		{"fixed-10", small, nil},
		{"fixed-16", big, nil},
		{"backlog-as", big, backlogAS},
		{"latency-as", big, latencyAS},
	}
	var scs []scenario
	for _, c := range cells {
		proc, err := workload.NewDiurnalMix(rates, 0.75, period)
		if err != nil {
			return nil, err
		}
		scs = append(scs, scenario{
			name:      c.name,
			policy:    diasPolicy,
			rates:     rates,
			jobs:      mix.jobs,
			cost:      textCostModel(),
			cluster:   c.cluster,
			scale:     scale,
			proc:      proc,
			autoscale: c.as,
		})
	}
	rows, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &FaultFigure{
		Title:   "Elasticity: diurnal load (0.75 amplitude, 4 swings) on fixed vs autoscaled clusters",
		Rows:    rows,
		Elastic: true,
	}, nil
}
