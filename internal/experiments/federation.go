package experiments

// Federation experiments: the paper's DiAS scheduler is a single-server
// system — one job in the engine at a time — so serving more traffic means
// sharding the arrival stream across many such stacks. These drivers
// measure how that scale-out behaves: latency/waste/energy versus cluster
// count under each routing policy (FederationScaleOut), and how the
// policies cope when the member clusters differ in size and sprint
// capability (FederationHeterogeneous). Every run carries the
// cross-cluster data model, so policies that ignore data placement pay
// WAN input fetches that DataLocal avoids.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/metrics"
	"dias/internal/runner"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// fedPolicyFactory builds a fresh routing-policy instance per scenario run
// (policies are stateful: cursors, RNGs).
type fedPolicyFactory struct {
	name string
	make func(seed int64) federation.RoutingPolicy
}

// federationPolicySet is the routing-policy grid the federation figures
// compare.
func federationPolicySet() []fedPolicyFactory {
	return []fedPolicyFactory{
		{"Random", federation.NewRandom},
		{"RoundRobin", func(int64) federation.RoutingPolicy { return federation.NewRoundRobin() }},
		{"JSQ", func(int64) federation.RoutingPolicy { return federation.NewJoinShortestQueue() }},
		{"LeastLoaded", func(int64) federation.RoutingPolicy { return federation.NewLeastLoaded() }},
		{"SprintAware", func(int64) federation.RoutingPolicy { return federation.NewSprintAware() }},
		{"DataLocal", func(int64) federation.RoutingPolicy { return federation.NewDataLocal(4) }},
	}
}

// federationPolicy is the full DiAS reference configuration, DA(0,20)
// plus sprinting under a finite replenishing 22 kJ budget: the per-member
// discipline of the federation figures (routing policies differentiate on
// latency, waste and sprint-energy state alike) and the DiAS row of every
// single-stack figure and cell.
func federationPolicy() core.Config {
	return core.PolicyDiAS([]float64{0.2, 0}, core.SprintPolicy{
		TimeoutSec:     []float64{60, 0},
		BudgetJoules:   22e3,
		DrainWatts:     900,
		ReplenishWatts: 90,
	})
}

// fedVariants shallow-clones a job template into n data-home variants:
// same input dataset and stages, distinct name and dfs path, so each
// variant can live on a different member cluster.
func fedVariants(base *engine.Job, n int) []*engine.Job {
	out := make([]*engine.Job, n)
	for v := 0; v < n; v++ {
		clone := *base
		clone.Name = fmt.Sprintf("%s-%d", base.Name, v)
		clone.InputPath = fmt.Sprintf("/fed/%s-%d", base.Name, v)
		out[v] = &clone
	}
	return out
}

// variantSource serves a uniformly random data-home variant of the class
// template per arrival.
type variantSource [][]*engine.Job

func (s variantSource) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	if class < 0 || class >= len(s) {
		return nil, fmt.Errorf("experiments: class %d out of range %d", class, len(s))
	}
	v := s[class]
	return v[rng.Intn(len(v))], nil
}

func (s variantSource) Classes() int { return len(s) }

// fedScenario is one routing policy on one federation layout.
type fedScenario struct {
	name    string
	members []federation.MemberSpec
	policy  fedPolicyFactory
	rates   []float64
	// variants[k] holds class k's data-home variants; variant v is homed
	// on member v % len(members).
	variants variantSource
	scale    Scale
	// outages lists cluster-level outages scheduled on the virtual
	// timeline before the run (the routing stressor: in-flight work on the
	// member re-executes after recovery, arrivals route around it).
	outages []memberOutage
	// admit, when non-nil, is the per-member admission-policy factory
	// (federation.Config.Admission): members shed or spill arrivals
	// instead of buffering unconditionally.
	admit func() admission.Policy
	// arrivals, when non-nil, builds the run's arrival process from the
	// per-class rates (nil means the Poisson mix) — the burstiness knob:
	// Gamma/MMPP at the same rates offer the same mean load with
	// different clumping.
	arrivals func(rates []float64) (workload.Process, error)
	// bounded switches the accumulators to the strictly O(classes)
	// variant (no retained response samples; P95 from the log histogram),
	// required for million-job streaming cells.
	bounded bool
	// measureWall stamps the machine-dependent SimJobsPerWallSec
	// throughput into the result. Off by default so scenario results stay
	// comparable with reflect.DeepEqual across repeated runs (the
	// worker-invariance tests); only the scale driver turns it on.
	measureWall bool
}

// memberOutage is one scheduled cluster-level outage.
type memberOutage struct {
	member      int
	atSec       float64
	durationSec float64
}

// run executes the federated scenario to completion, streaming records
// into per-cluster and federation-wide accumulators.
func (sc fedScenario) run() (metrics.FederationScenarioResult, error) {
	if err := sc.scale.validate(); err != nil {
		return metrics.FederationScenarioResult{}, err
	}
	classes := len(sc.rates)
	newAcc := metrics.NewFederationAccumulator
	if sc.bounded {
		newAcc = metrics.NewBoundedFederationAccumulator
	}
	acc := newAcc(len(sc.members), classes, sc.scale.Jobs, sc.scale.WarmupFraction)
	data := dfs.DefaultConfig()
	var col *telemetry.Collector
	if sc.scale.Telemetry != nil {
		col = sc.scale.Telemetry.Collector(sc.name)
	}
	fed, err := federation.New(federation.Config{
		Members:        sc.members,
		Policy:         federationPolicy(),
		Routing:        sc.policy.make(sc.scale.Seed + 17),
		Admission:      sc.admit,
		Data:           &data,
		Seed:           sc.scale.Seed,
		OnRecord:       acc.Add,
		DiscardRecords: true,
		Telemetry:      col,
	})
	if err != nil {
		return metrics.FederationScenarioResult{}, err
	}
	for _, vars := range sc.variants {
		for v, job := range vars {
			if err := fed.RegisterInput(job, v%len(sc.members)); err != nil {
				return metrics.FederationScenarioResult{}, err
			}
		}
	}
	for _, o := range sc.outages {
		if err := fed.ScheduleOutage(o.member, o.atSec, o.durationSec); err != nil {
			return metrics.FederationScenarioResult{}, err
		}
	}
	makeProc := sc.arrivals
	if makeProc == nil {
		makeProc = func(rates []float64) (workload.Process, error) { return workload.NewPoissonMix(rates) }
	}
	proc, err := makeProc(sc.rates)
	if err != nil {
		return metrics.FederationScenarioResult{}, err
	}
	if err := fed.SubmitStream(proc, sc.variants, sc.scale.Jobs, sc.scale.Seed+7); err != nil {
		return metrics.FederationScenarioResult{}, err
	}
	// Wall-clock brackets the whole drain: arrivals are feed-forward
	// injected during Run, so this measures end-to-end simulation
	// throughput (machine-dependent — reported in the benchmark JSON,
	// never rendered into deterministic figure text).
	start := time.Now()
	fed.Run()
	wallSec := time.Since(start).Seconds()

	makespan := fed.Sim().Now().Seconds()
	routed := fed.Routed()
	res := metrics.FederationScenarioResult{Name: sc.name}
	var totalBusy, totalWaste, totalEnergy float64
	for i, m := range fed.Members() {
		busy := m.Cluster.BusySlotSeconds()
		waste := m.Engine.WastedSlotSeconds()
		energy := m.Cluster.EnergyJoules()
		totalBusy += busy
		totalWaste += waste
		totalEnergy += energy
		cr := metrics.ClusterResult{
			Name:         m.Name,
			RoutedJobs:   routed[i],
			PerClass:     acc.ClusterClasses(i),
			EnergyJoules: energy,
		}
		if busy > 0 {
			cr.ResourceWastePct = 100 * waste / busy
		}
		if capacity := float64(m.Cluster.Slots()) * makespan; capacity > 0 {
			cr.UtilizationPct = 100 * busy / capacity
		}
		res.PerCluster = append(res.PerCluster, cr)
	}
	res.Overall = metrics.ScenarioResult{
		Name:             sc.name,
		PerClass:         acc.OverallClasses(),
		EnergyJoules:     totalEnergy,
		MakespanSec:      makespan,
		PeakInFlightJobs: fed.PeakInFlight(),
	}
	if sc.measureWall && wallSec > 0 {
		res.Overall.SimJobsPerWallSec = float64(sc.scale.Jobs) / wallSec
	}
	if totalBusy > 0 {
		res.Overall.ResourceWastePct = 100 * totalWaste / totalBusy
	}
	res.Overall.FillOverload()
	return res, nil
}

// runFedScenarios fans independent federation runs across the scale's
// worker pool, returning results in input order (bit-identical at any
// worker count: every run owns its whole federation and RNGs).
func runFedScenarios(scs []fedScenario) ([]metrics.FederationScenarioResult, error) {
	if len(scs) == 0 {
		return nil, nil
	}
	owners := make(collectorOwners)
	tasks := make([]runner.Task[metrics.FederationScenarioResult], len(scs))
	for i := range scs {
		sc := scs[i]
		if err := owners.claim(sc.scale.Telemetry, sc.name); err != nil {
			return nil, err
		}
		tasks[i] = func(context.Context) (metrics.FederationScenarioResult, error) {
			res, err := sc.run()
			if err != nil {
				return metrics.FederationScenarioResult{}, fmt.Errorf("%s: %w", sc.name, err)
			}
			return res, nil
		}
	}
	return runner.Map(context.Background(), scs[0].scale.pool(), tasks)
}

// FederationFigure is the output shape of the federation experiments: one
// rollup per (policy, layout) cell.
type FederationFigure struct {
	Title string
	Rows  []metrics.FederationScenarioResult
}

// String renders every cell's overall and per-cluster lines.
func (f *FederationFigure) String() string {
	s := f.Title + "\n"
	for _, r := range f.Rows {
		s += metrics.FormatFederationTable(r)
	}
	return s
}

// Scenarios returns the federation-wide rollups, the rows the benchmark
// report aggregates.
func (f *FederationFigure) Scenarios() []metrics.ScenarioResult {
	out := make([]metrics.ScenarioResult, len(f.Rows))
	for i, r := range f.Rows {
		out[i] = r.Overall
	}
	return out
}

// fedWorkload profiles the two-class reference text jobs once and returns
// the variant sets plus the per-class rates that load ONE default cluster
// at the given utilization; callers scale rates by the federation's
// capacity factor.
func fedWorkload(scale Scale, variants int, util float64) (variantSource, []float64, error) {
	mix, err := referenceMix(scale.Seed+160, referenceSetup())
	if err != nil {
		return nil, nil, err
	}
	rates, err := mix.rates(util)
	if err != nil {
		return nil, nil, err
	}
	return variantSource{fedVariants(mix.jobs[0], variants), fedVariants(mix.jobs[1], variants)}, rates, nil
}

// scaleRates multiplies per-class rates by a capacity factor.
func scaleRates(rates []float64, factor float64) []float64 {
	out := make([]float64, len(rates))
	for i, r := range rates {
		out[i] = r * factor
	}
	return out
}

// capacityFactor is a federation's slot count relative to one default
// cluster, the factor the arrival rate scales by to hold per-slot load
// constant as the federation grows.
func capacityFactor(members []federation.MemberSpec) float64 {
	def := cluster.DefaultConfig()
	defSlots := def.Nodes * def.CoresPerNode
	var slots int
	for _, m := range members {
		c := m.Cluster
		if c.Nodes == 0 {
			c = def
		}
		slots += c.Nodes * c.CoresPerNode
	}
	return float64(slots) / float64(defSlots)
}

// homogeneousMembers builds n default-testbed member specs running the
// text cost model.
func homogeneousMembers(n int) []federation.MemberSpec {
	out := make([]federation.MemberSpec, n)
	for i := range out {
		out[i] = federation.MemberSpec{Cost: textCostModel()}
	}
	return out
}

// FederationScaleOutClusterCounts is the cluster-count axis of the
// scale-out figure.
var FederationScaleOutClusterCounts = []int{1, 2, 4, 8}

// FederationScaleOut measures federated DiAS as the cluster count grows:
// for each (routing policy, cluster count) cell the arrival rate scales
// with the number of clusters so per-cluster nominal load stays at 70%,
// and data homes spread round-robin across members. Expected shape:
// backlog-aware policies (JSQ, LeastLoaded, SprintAware) hold per-class
// latency roughly flat as the federation grows, while Random/RoundRobin
// degrade under momentary imbalance; DataLocal trades queueing for WAN
// savings, winning only while its home clusters are not hotspots.
func FederationScaleOut(scale Scale) (*FederationFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	maxClusters := 0
	for _, n := range FederationScaleOutClusterCounts {
		if n > maxClusters {
			maxClusters = n
		}
	}
	variants, rates, err := fedWorkload(scale, maxClusters, 0.7)
	if err != nil {
		return nil, err
	}
	var scs []fedScenario
	for _, p := range federationPolicySet() {
		for _, n := range FederationScaleOutClusterCounts {
			members := homogeneousMembers(n)
			scs = append(scs, fedScenario{
				name:     fmt.Sprintf("%s/%d", p.name, n),
				members:  members,
				policy:   p,
				rates:    scaleRates(rates, capacityFactor(members)),
				variants: variants,
				scale:    scale,
			})
		}
	}
	rows, err := runFedScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &FederationFigure{
		Title: "Federation scale-out: routing policy x cluster count (70% per-cluster load, WAN input penalty)",
		Rows:  rows,
	}, nil
}

// FederationHeterogeneous compares the routing policies on a mixed
// federation: two paper-testbed clusters plus two small clusters with
// 4 nodes and a weaker sprint (2x instead of 2.5x). Expected shape:
// policies blind to capacity (Random, RoundRobin) overload the small
// members; utilization-normalized LeastLoaded and backlog-aware JSQ
// spread proportionally; SprintAware additionally steers work toward
// members with sprint budget left.
func FederationHeterogeneous(scale Scale) (*FederationFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	small := cluster.DefaultConfig()
	small.Nodes = 4
	small.SprintSpeedup = 2.0
	members := []federation.MemberSpec{
		{Name: "big0", Cost: textCostModel()},
		{Name: "big1", Cost: textCostModel()},
		{Name: "small0", Cluster: small, Cost: textCostModel()},
		{Name: "small1", Cluster: small, Cost: textCostModel()},
	}
	variants, rates, err := fedWorkload(scale, len(members), 0.6)
	if err != nil {
		return nil, err
	}
	var scs []fedScenario
	for _, p := range federationPolicySet() {
		scs = append(scs, fedScenario{
			name:     p.name + "/2big+2small",
			members:  members,
			policy:   p,
			rates:    scaleRates(rates, capacityFactor(members)),
			variants: variants,
			scale:    scale,
		})
	}
	rows, err := runFedScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &FederationFigure{
		Title: "Federation heterogeneous: 2 big + 2 small clusters (60% nominal load, WAN input penalty)",
		Rows:  rows,
	}, nil
}

// FederationOutage stresses every routing policy with cluster-level
// outages on a 4-member federation at 70% nominal load: member 0 goes
// dark for ~12% of the arrival window early in the run and member 1 for
// ~8% later. During an outage the dispatcher routes around the dark
// member (its in-flight tasks re-execute after recovery, jobs already
// buffered on it wait), so the policy ranking measures how gracefully
// each one absorbs a 25%-capacity loss: backlog- and load-aware policies
// should spread the refugee traffic, while Random/RoundRobin merely
// shrink their rotation, and DataLocal pays WAN fetches for every job
// whose home is dark.
func FederationOutage(scale Scale) (*FederationFigure, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	const clusters = 4
	members := homogeneousMembers(clusters)
	variants, rates, err := fedWorkload(scale, clusters, 0.7)
	if err != nil {
		return nil, err
	}
	scaled := scaleRates(rates, capacityFactor(members))
	// Outage windows sized relative to the expected arrival span, so the
	// stressor scales with -jobs.
	var totalRate float64
	for _, r := range scaled {
		totalRate += r
	}
	span := float64(scale.Jobs) / totalRate
	outages := []memberOutage{
		{member: 0, atSec: 0.25 * span, durationSec: 0.12 * span},
		{member: 1, atSec: 0.60 * span, durationSec: 0.08 * span},
	}
	var scs []fedScenario
	for _, p := range federationPolicySet() {
		scs = append(scs, fedScenario{
			name:     p.name + "/outage",
			members:  members,
			policy:   p,
			rates:    scaled,
			variants: variants,
			scale:    scale,
			outages:  outages,
		})
	}
	rows, err := runFedScenarios(scs)
	if err != nil {
		return nil, err
	}
	return &FederationFigure{
		Title: "Federation outage: 4 clusters, member 0 then member 1 dark (routing-policy stressor)",
		Rows:  rows,
	}, nil
}
