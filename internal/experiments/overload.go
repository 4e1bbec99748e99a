package experiments

// Overload experiment: the paper's evaluation holds every deployment below
// saturation, so nothing in Figures 7-11 says what DiAS does when offered
// load exceeds capacity. This driver sweeps offered load from half capacity
// to 3x across the admission-policy grid (no control, token bucket, queue
// depth, SLO budget) on the full DiAS stack, and adds federation rows at
// 3x comparing reject-on-overload against deferred re-routing (spill). The
// output deliberately prints latency and shed work side by side: at 3x a
// token bucket "wins" every latency column, and the adjacent rejection
// fraction shows what that win costs.

import (
	"fmt"

	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/federation"
	"dias/internal/metrics"
)

// OverloadFigure is the overload sweep's output: a flat grid of scenario
// rows rendered with the goodput/rejection columns.
type OverloadFigure struct {
	Title string
	Rows  []metrics.ScenarioResult
}

// String renders the grid.
func (f *OverloadFigure) String() string {
	return f.Title + "\n" + metrics.FormatOverloadTable(f.Rows...)
}

// Scenarios returns the rows the benchmark report aggregates.
func (f *OverloadFigure) Scenarios() []metrics.ScenarioResult { return f.Rows }

// OverloadLoads is the offered-load axis, as multiples of the calibrated
// cluster capacity.
var OverloadLoads = []float64{0.5, 1.0, 2.0, 3.0}

// overloadCalibrationUtil anchors the rate calibration: rates are computed
// at this utilization and scaled linearly to each sweep point (the
// calibrator itself rejects targets >= 1, which overload points are).
const overloadCalibrationUtil = 0.5

// overloadSpillLoad is the offered load of the federation spill rows.
const overloadSpillLoad = 3.0

// overloadSpillMembers sizes the federation of the spill rows.
const overloadSpillMembers = 3

// Overload sweeps offered load 0.5x..3x of calibrated capacity across the
// admission-policy grid on the full DiAS policy. Expected shape: below
// capacity every policy admits (nearly) everything and the rows agree;
// past capacity the uncontrolled row's latencies diverge with the backlog
// while the admission rows hold latency by shedding — the token bucket
// bluntly by arrival rate, queue depth by actual backlog, the SLO budget
// by predicted wait (low-budget classes degrade first). The federation
// rows at 3x contrast Reject with Defer under identical token buckets:
// spilling converts part of the shed traffic into work on sibling members.
func Overload(scale Scale) (*OverloadFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	mix, err := referenceMix(scale.Seed+190, referenceSetup())
	if err != nil {
		return nil, err
	}
	baseRates, err := mix.rates(overloadCalibrationUtil)
	if err != nil {
		return nil, err
	}
	diasPolicy := federationPolicy()

	// The token bucket sustains 90%-utilization worth of traffic per class
	// (shedding only genuine overload, not the calibration headroom); the
	// queue-depth thresholds and SLO budgets are anchored on the profiled
	// solo durations so they scale with -jobs-independent workload shape.
	sustain := scaleRates(baseRates, 0.9/overloadCalibrationUtil)
	tbCfg := admission.TokenBucketConfig{Rate: sustain, Burst: []float64{8, 4}}
	qdCfg := admission.QueueDepthConfig{MaxBacklog: []int{10, 4}}
	sloCfg := admission.SLOBudgetConfig{
		BudgetSec: []float64{6 * mix.solo[0], 3 * mix.solo[1]},
	}
	// Validate the static configs once up front; the per-scenario factories
	// below can then drop the error (same config, same verdict).
	if _, err := admission.NewTokenBucket(tbCfg); err != nil {
		return nil, err
	}
	if _, err := admission.NewQueueDepth(qdCfg); err != nil {
		return nil, err
	}
	if _, err := admission.NewSLOBudget(sloCfg); err != nil {
		return nil, err
	}
	cells := []struct {
		name  string
		admit func() admission.Policy
	}{
		{"always", func() admission.Policy { return admission.AlwaysAdmit{} }},
		{"token-bucket", func() admission.Policy { p, _ := admission.NewTokenBucket(tbCfg); return p }},
		{"queue-depth", func() admission.Policy { p, _ := admission.NewQueueDepth(qdCfg); return p }},
		{"slo-budget", func() admission.Policy { p, _ := admission.NewSLOBudget(sloCfg); return p }},
	}
	var scs []scenario
	for _, cell := range cells {
		for _, load := range OverloadLoads {
			scs = append(scs, scenario{
				name:    fmt.Sprintf("%s/%.1fx", cell.name, load),
				policy:  diasPolicy,
				rates:   scaleRates(baseRates, load/overloadCalibrationUtil),
				jobs:    mix.jobs,
				cost:    textCostModel(),
				cluster: cluster.DefaultConfig(),
				scale:   scale,
				admit:   cell.admit,
			})
		}
	}
	rows, err := runScenarios(scs)
	if err != nil {
		return nil, err
	}

	// Federation rows: identical token buckets per member at 3x offered
	// load, differing only in what an empty bucket answers — Reject sheds
	// where the job was routed, Defer (spill) walks the other members and
	// sheds only when every bucket is empty.
	spillTB := admission.TokenBucketConfig{Rate: sustain, Burst: []float64{8, 4}, Spill: true}
	members := homogeneousMembers(overloadSpillMembers)
	fedRates := scaleRates(baseRates, capacityFactor(members)*overloadSpillLoad/overloadCalibrationUtil)
	variants := variantSource{
		fedVariants(mix.jobs[0], overloadSpillMembers),
		fedVariants(mix.jobs[1], overloadSpillMembers),
	}
	rr := fedPolicyFactory{"rr", func(int64) federation.RoutingPolicy { return federation.NewRoundRobin() }}
	jsq := fedPolicyFactory{"jsq", func(int64) federation.RoutingPolicy { return federation.NewJoinShortestQueue() }}
	fedCells := []struct {
		name   string
		policy fedPolicyFactory
		admit  func() admission.Policy
	}{
		{"shed-rr", rr, func() admission.Policy { p, _ := admission.NewTokenBucket(tbCfg); return p }},
		{"spill-rr", rr, func() admission.Policy { p, _ := admission.NewTokenBucket(spillTB); return p }},
		{"spill-jsq", jsq, func() admission.Policy { p, _ := admission.NewTokenBucket(spillTB); return p }},
	}
	var fscs []fedScenario
	for _, cell := range fedCells {
		fscs = append(fscs, fedScenario{
			name:     fmt.Sprintf("%s/%dm/%.1fx", cell.name, overloadSpillMembers, overloadSpillLoad),
			members:  members,
			policy:   cell.policy,
			rates:    fedRates,
			variants: variants,
			scale:    scale,
			admit:    cell.admit,
		})
	}
	fedRows, err := runFedScenarios(fscs)
	if err != nil {
		return nil, err
	}
	for _, r := range fedRows {
		rows = append(rows, r.Overall)
	}
	return &OverloadFigure{
		Title: fmt.Sprintf(
			"Overload: offered load x admission policy on DiAS (calibrated capacity = 1.0x; %d-member spill rows at %.1fx)",
			overloadSpillMembers, overloadSpillLoad),
		Rows: rows,
	}, nil
}
