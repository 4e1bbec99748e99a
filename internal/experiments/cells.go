package experiments

// Cell API for the hypothesis harness (internal/hypotheses): one exported,
// deliberately narrow way to run the two-class reference workload through
// a single stack or a federation with exactly one knob turned. The figure
// drivers in this package compose whole grids; a hypothesis cell is one
// point of such a grid, built from the same profiled workload, calibration
// and seed discipline so findings stay comparable with the figures.

import (
	"fmt"
	"math"

	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/federation"
	"dias/internal/metrics"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// ReferenceWorkload is the paper's two-class text workload, profiled and
// calibrated under one seed: job templates, solo durations, and the
// per-class arrival rates that load ONE default cluster at 100% of its
// capacity. Build one per seed (job corpora and profiling noise derive
// from it) and run any number of cells against it; scale CapacityRates by
// a load factor (and, for federations, the capacity factor) to set the
// offered load.
type ReferenceWorkload struct {
	Seed    int64
	LowJob  *engine.Job
	HighJob *engine.Job
	// LowSoloSec / HighSoloSec are the profiled mean solo durations the
	// calibration used.
	LowSoloSec, HighSoloSec float64
	// CapacityRates[k] is class k's arrival rate at 100% utilization of
	// one default cluster (9:1 low:high mix, as the paper's evaluation).
	CapacityRates []float64

	cost   engine.CostModel
	cluCfg cluster.Config
}

// NewReferenceWorkload builds and profiles the reference jobs under the
// given seed, at offsets +191..+194. The Overload figure uses the same
// offsets, so at equal seeds a hypothesis cell runs exactly Overload's
// job templates and profiles; every other figure driver's offsets differ.
func NewReferenceWorkload(seed int64) (*ReferenceWorkload, error) {
	mix, err := referenceMix(seed+190, referenceSetup())
	if err != nil {
		return nil, err
	}
	// The calibrator requires a target strictly inside (0,1); calibrate at
	// one half of capacity and double, which is exact (util is linear in
	// the total rate).
	halfRate, err := mix.totalRate(0.5)
	if err != nil {
		return nil, err
	}
	rates, err := workload.MixFromRatio(mix.ratio, 2*halfRate)
	if err != nil {
		return nil, err
	}
	return &ReferenceWorkload{
		Seed:          seed,
		LowJob:        mix.jobs[0],
		HighJob:       mix.jobs[1],
		LowSoloSec:    mix.solo[0],
		HighSoloSec:   mix.solo[1],
		CapacityRates: rates,
		cost:          textCostModel(),
		cluCfg:        cluster.DefaultConfig(),
	}, nil
}

// Rates returns CapacityRates scaled to the given load factor (1.0 =
// saturating one default cluster).
func (w *ReferenceWorkload) Rates(loadFactor float64) []float64 {
	return scaleRates(w.CapacityRates, loadFactor)
}

// StackCell configures one single-cluster run of the reference workload.
// Exactly the fields a controlled experiment varies are exposed; the
// scheduling policy is always the full DiAS reference configuration so
// admission/fault cells differ from the figures in one dimension only.
type StackCell struct {
	// Name labels the resulting scenario (the hypothesis cell name).
	Name string
	// Jobs is the arrival count; WarmupFraction of completions is excluded
	// from statistics (0 means the standard 0.1).
	Jobs           int
	WarmupFraction float64
	// LoadFactor is the offered load as a fraction of one cluster's
	// capacity (1.0 = saturation, 3.0 = 3x overload).
	LoadFactor float64
	// Admission, when non-nil, builds a fresh admission policy for the run
	// (policies are stateful — one instance per run).
	Admission func() admission.Policy
	// Faults, when non-nil, arms the fault-injection layer.
	Faults *faults.Config
	// Telemetry, when non-nil, traces the cell into a collector named
	// after the cell (observational only; results are unchanged).
	Telemetry *telemetry.Registry
}

// RunStackCell executes one single-cluster cell to completion.
func (w *ReferenceWorkload) RunStackCell(c StackCell) (metrics.ScenarioResult, error) {
	if !(c.LoadFactor > 0 && c.LoadFactor <= math.MaxFloat64) {
		return metrics.ScenarioResult{}, fmt.Errorf("experiments: cell %q load factor %g", c.Name, c.LoadFactor)
	}
	warm := c.WarmupFraction
	if warm == 0 {
		warm = 0.1
	}
	sc := scenario{
		name:      c.Name,
		policy:    federationPolicy(), // full DiAS: DA(0,20) + sprinting
		rates:     w.Rates(c.LoadFactor),
		jobs:      []*engine.Job{w.LowJob, w.HighJob},
		cost:      w.cost,
		cluster:   w.cluCfg,
		scale:     Scale{Jobs: c.Jobs, WarmupFraction: warm, Seed: w.Seed, Telemetry: c.Telemetry},
		faultPlan: c.Faults,
		admit:     c.Admission,
	}
	return sc.run()
}

// FederationCell configures one federation run of the reference workload:
// homogeneous default members, the DiAS per-member policy, data homes
// spread round-robin — the scale-out figure's setup with the routing
// policy and utilization as the only knobs.
type FederationCell struct {
	// Name labels the resulting scenario (the hypothesis cell name).
	Name string
	// Jobs and WarmupFraction as in StackCell.
	Jobs           int
	WarmupFraction float64
	// Members is the homogeneous member-cluster count.
	Members int
	// Utilization is the per-cluster nominal load (the federation's rate
	// is Utilization x Members x one cluster's capacity).
	Utilization float64
	// Routing builds a fresh routing policy per run; the seed passed in is
	// the run's derived routing seed (stateful policies, own RNG streams).
	Routing func(seed int64) federation.RoutingPolicy
	// Arrivals, when non-nil, builds the run's arrival process from the
	// calibrated per-class rates — the burstiness knob (e.g.
	// workload.NewGamma at CV 3.5, workload.NewMMPP). Nil means the
	// Poisson mix at the same rates, so a cell pair varying only this
	// field compares burstiness at equal mean load.
	Arrivals func(rates []float64) (workload.Process, error)
	// Telemetry, when non-nil, traces the cell into a collector named
	// after the cell (observational only; results are unchanged).
	Telemetry *telemetry.Registry
}

// RunFederationCell executes one federation cell to completion and returns
// the federation-wide rollup.
func (w *ReferenceWorkload) RunFederationCell(c FederationCell) (metrics.ScenarioResult, error) {
	if c.Members < 1 {
		return metrics.ScenarioResult{}, fmt.Errorf("experiments: cell %q needs members", c.Name)
	}
	if !(c.Utilization > 0 && c.Utilization <= math.MaxFloat64) {
		return metrics.ScenarioResult{}, fmt.Errorf("experiments: cell %q utilization %g", c.Name, c.Utilization)
	}
	if c.Routing == nil {
		return metrics.ScenarioResult{}, fmt.Errorf("experiments: cell %q has no routing policy", c.Name)
	}
	warm := c.WarmupFraction
	if warm == 0 {
		warm = 0.1
	}
	members := homogeneousMembers(c.Members)
	sc := fedScenario{
		name:    c.Name,
		members: members,
		policy:  fedPolicyFactory{name: c.Name, make: c.Routing},
		rates:   w.Rates(capacityFactor(members) * c.Utilization),
		variants: variantSource{
			fedVariants(w.LowJob, c.Members),
			fedVariants(w.HighJob, c.Members),
		},
		scale:    Scale{Jobs: c.Jobs, WarmupFraction: warm, Seed: w.Seed, Telemetry: c.Telemetry},
		arrivals: c.Arrivals,
	}
	res, err := sc.run()
	if err != nil {
		return metrics.ScenarioResult{}, err
	}
	return res.Overall, nil
}
