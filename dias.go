// Package dias is a from-scratch Go reproduction of "Differential
// Approximation and Sprinting for Multi-Priority Big Data Engines"
// (Birke et al., Middleware 2019): a priority scheduler that replaces
// preemptive eviction with per-class task dropping (approximation) and
// DVFS sprinting, built on a simulated Spark-like dataflow engine.
//
// This package is the facade over the internal building blocks:
//
//   - internal/simtime   discrete-event simulation kernel
//   - internal/cluster   slots, DVFS sprinting, power/energy model
//   - internal/dfs       HDFS-like replicated block store
//   - internal/engine    dataflow engine with task dropping and eviction
//   - internal/analytics word-popularity and triangle-count jobs
//   - internal/workload  synthetic corpora, graphs, Poisson, Gamma and
//     MMPP job streams, trace replay
//   - internal/phdist    phase-type distributions (§4 building block)
//   - internal/model     task-level and wave-level job-time models (§4)
//   - internal/queueing  M[K]/PH[K]/1 priority-queue solver + simulator
//   - internal/core      DiAS: buffers, deflator, sprinter, policies,
//     and the closed-loop AdaptiveDeflator
//   - internal/admission overload control: token-bucket, queue-depth and
//     SLO-budget shedding ahead of the buffers
//   - internal/trace     streamed arrival traces, replayable as workload
//   - internal/faults    fault/churn injection: node crash/recover
//     (stochastic or trace-driven), bounded-retry task faults, stragglers
//   - internal/metrics   per-class latency/waste/energy/slowdown aggregation
//   - internal/federation multi-cluster dispatcher with pluggable routing
//   - internal/experiments  one driver per paper figure and table
//
// Stack wires a complete simulated deployment and NewFederation shards
// the same stack across many clusters; the examples/ directory shows
// end-to-end usage, and bench_test.go regenerates every figure.
package dias

import (
	"fmt"
	"math/rand"

	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/faults"
	"dias/internal/federation"
	"dias/internal/simtime"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// StackConfig assembles a simulated DiAS deployment.
type StackConfig struct {
	// Cluster describes the simulated machines; the zero value means the
	// paper's testbed (10 workers x 2 slots, 800 MHz->2.4 GHz DVFS). Any
	// other value is used as given, so it must set Nodes.
	Cluster cluster.Config
	// Cost converts work to virtual task durations; zero value means
	// engine.DefaultCostModel.
	Cost engine.CostModel
	// Policy selects the scheduling discipline and DiAS knobs (see
	// core.PolicyP, PolicyNP, PolicyDA, PolicyDiAS).
	Policy core.Config
	// Faults, when non-nil, arms the fault/churn injection layer: node
	// crash/recover processes (stochastic or trace-driven), per-task
	// failures with bounded retries, and stragglers. See internal/faults.
	Faults *faults.Config
	// Admission, when non-nil, gates every arrival before it is buffered
	// (see internal/admission and AdmissionPolicies). On a single stack a
	// Defer verdict degrades to a rejection. Nil admits everything and is
	// byte-identical to the "always" policy.
	Admission admission.Policy
	// Scaling, when non-nil, drives elastic capacity through a
	// core.Autoscaler: the cluster is provisioned at Cluster.Nodes and the
	// scale policy (see ScalePolicies) commissions/decommissions nodes
	// inside the configured bounds at run time.
	Scaling *core.AutoscalerConfig
	// Deflation, when non-nil, builds the deflator for this stack (see
	// DeflationPolicies). Setting both Deflation and Policy.Deflator is an
	// error.
	Deflation DeflatorFactory
	// Telemetry, when non-nil, traces the stack into the collector: job
	// lifecycle spans from the scheduler and engine, and periodic gauges
	// sampled while Run drains the simulation. Tracing is observational
	// only — results are byte-identical with or without it. Setting both
	// Telemetry and Policy.Tracer is an error.
	Telemetry *telemetry.Collector
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
}

// Stack is a complete simulated deployment: virtual clock, cluster,
// dataflow engine and the DiAS scheduler on top, plus the optional fault
// injector and autoscaler when the config arms them.
type Stack struct {
	Sim       *simtime.Simulation
	Cluster   *cluster.Cluster
	Engine    *engine.Engine
	Scheduler *core.Scheduler
	// Faults is the armed injector (nil unless StackConfig.Faults is set).
	Faults *faults.Injector
	// Autoscaler is the armed capacity controller (nil unless
	// StackConfig.Scaling is set). Feed it completions by wiring
	// Policy.OnRecord to Autoscaler.Observe, or use NewStack which does.
	Autoscaler *core.Autoscaler

	// sampler, when non-nil, drives Run with gauge sampling (telemetry).
	sampler *telemetry.Sampler
}

// NewStack builds a ready-to-use deployment.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Cluster == (cluster.Config{}) {
		// Only a fully zero config means the testbed; a partly filled one
		// goes to cluster.New, whose validation rejects it rather than
		// silently dropping the fields the caller set.
		cfg.Cluster = cluster.DefaultConfig()
	}
	zero := engine.CostModel{}
	if cfg.Cost == zero {
		cfg.Cost = engine.DefaultCostModel()
	}
	scaling := cfg.Scaling
	sim := simtime.New()
	clu, err := cluster.New(sim, cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("building cluster: %w", err)
	}
	eng, err := engine.New(sim, clu, nil, cfg.Cost, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	policy := cfg.Policy
	if cfg.Admission != nil {
		if policy.Admission != nil {
			return nil, fmt.Errorf("dias: set StackConfig.Admission or Policy.Admission, not both")
		}
		policy.Admission = cfg.Admission
	}
	if cfg.Deflation != nil {
		if policy.Deflator != nil {
			return nil, fmt.Errorf("dias: set StackConfig.Deflation or Policy.Deflator, not both")
		}
		if policy.Deflator, err = cfg.Deflation(sim); err != nil {
			return nil, fmt.Errorf("building deflator: %w", err)
		}
	}
	if cfg.Telemetry != nil {
		if policy.Tracer != nil {
			return nil, fmt.Errorf("dias: set StackConfig.Telemetry or Policy.Tracer, not both")
		}
		tr := cfg.Telemetry.Member(0)
		policy.Tracer = tr
		eng.SetTracer(tr)
	}
	stack := &Stack{Sim: sim, Cluster: clu, Engine: eng}
	if scaling != nil {
		// The autoscaler's latency signal taps the same record stream the
		// caller's hook sees; the autoscaler itself is built after the
		// scheduler, so the closure binds the stack field late.
		userHook := policy.OnRecord
		policy.OnRecord = func(rec core.JobRecord) {
			if userHook != nil {
				userHook(rec)
			}
			if stack.Autoscaler != nil {
				stack.Autoscaler.Observe(rec)
			}
		}
	}
	sch, err := core.New(sim, clu, eng, policy)
	if err != nil {
		return nil, fmt.Errorf("building scheduler: %w", err)
	}
	stack.Scheduler = sch
	if cfg.Faults != nil {
		if stack.Faults, err = faults.Attach(sim, eng, *cfg.Faults); err != nil {
			return nil, fmt.Errorf("arming fault injection: %w", err)
		}
	}
	if scaling != nil {
		if stack.Autoscaler, err = core.NewAutoscaler(sim, clu, eng, sch, *scaling); err != nil {
			return nil, fmt.Errorf("arming autoscaler: %w", err)
		}
	}
	if cfg.Telemetry != nil {
		stack.sampler = telemetry.NewSampler(cfg.Telemetry, []telemetry.MemberGauges{{
			Classes:       policy.Classes,
			QueuedInClass: sch.QueuedJobsInClass,
			Rejected:      sch.RejectedJobs,
			BusySlots:     clu.BusySlots,
			PoweredNodes:  clu.PoweredNodes,
			Utilization:   clu.Utilization,
		}})
	}
	return stack, nil
}

// SubmitAt schedules a job arrival at virtual time t seconds.
func (s *Stack) SubmitAt(t float64, class int, job *engine.Job) {
	s.Sim.At(simtime.Time(t), func() {
		// Arrival errors are programming errors (bad class/job); surface
		// them loudly rather than silently dropping workload.
		if err := s.Scheduler.Arrive(class, job); err != nil {
			panic(fmt.Sprintf("dias: arrival at t=%g failed: %v", t, err))
		}
	})
}

// SubmitStream schedules n arrivals drawn from any arrival process
// (Poisson mix, Gamma/MMPP bursty streams, trace replay) with jobs built
// by the source (fixed templates or per-arrival variants). The seed drives
// both the arrival and the job-variant RNGs.
//
// Arrivals are injected feed-forward: only the next arrival is pending
// at any instant, and each arrival event builds its job and schedules
// the following one (workload.Inject), so submission memory is O(1) at
// any n — a million-job stream costs the same as a hundred-job one. The
// RNG draw order matches the former materialized path, so results are
// unchanged. Because jobs are now built mid-run, a job-source failure
// panics at its arrival instant (like SubmitAt on a bad arrival) rather
// than being returned here.
func (s *Stack) SubmitStream(proc workload.Process, source workload.JobSource, n int, seed int64) error {
	if proc == nil || source == nil {
		return fmt.Errorf("dias: nil arrival process or job source")
	}
	arrRng := rand.New(rand.NewSource(seed))
	jobRng := rand.New(rand.NewSource(seed + 1))
	return workload.Inject(s.Sim, proc, source, n, arrRng, jobRng, func(class int, job *engine.Job) {
		if err := s.Scheduler.Arrive(class, job); err != nil {
			panic(fmt.Sprintf("dias: arrival at t=%v failed: %v", s.Sim.Now(), err))
		}
	})
}

// Run drains the simulation: all scheduled arrivals are processed and all
// jobs run to completion. With telemetry configured the run is driven
// through the gauge sampler, which fires the same events at the same
// instants and leaves the clock untouched (see telemetry.Sampler.Drive).
func (s *Stack) Run() {
	if s.sampler != nil {
		s.sampler.Drive(s.Sim)
		return
	}
	s.Sim.Run()
}

// Records returns the completed-job records.
func (s *Stack) Records() []core.JobRecord { return s.Scheduler.Records() }

// FederationConfig assembles a multi-cluster deployment: one DiAS stack
// per cluster on a shared virtual clock, behind a routing dispatcher (see
// internal/federation for the policy catalogue and data model).
type FederationConfig struct {
	// Clusters describes the member clusters; zero-value entries mean the
	// paper's testbed. Nil means a homogeneous pair of default clusters.
	Clusters []cluster.Config
	// Cost applies to every member; zero value means the default model.
	Cost engine.CostModel
	// Policy is the per-member scheduling discipline.
	Policy core.Config
	// Routing picks each arrival's destination; nil means join-shortest-
	// queue.
	Routing federation.RoutingPolicy
	// Admission, when non-nil, is a per-member policy factory (admission
	// policies are stateful, so each member needs its own instance). A
	// Defer verdict re-routes the arrival to the next member with room;
	// when every member defers it is rejected at the routed member. Nil
	// admits everything.
	Admission func() admission.Policy
	// Data, when non-nil, enables the cross-cluster data model: every
	// member gets its own dfs and off-home routing pays WAN input fetches.
	Data *dfs.Config
	// Telemetry, when non-nil, traces the federation into the collector
	// (member-indexed spans, routing decisions, per-member gauges).
	Telemetry *telemetry.Collector
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
}

// NewFederation builds a ready-to-use multi-cluster deployment. Submit
// work with Federation.SubmitAt/SubmitStream and drain it with Run, just
// like a single Stack.
func NewFederation(cfg FederationConfig) (*federation.Federation, error) {
	if len(cfg.Clusters) == 0 {
		cfg.Clusters = []cluster.Config{cluster.DefaultConfig(), cluster.DefaultConfig()}
	}
	if cfg.Routing == nil {
		cfg.Routing = federation.NewJoinShortestQueue()
	}
	members := make([]federation.MemberSpec, len(cfg.Clusters))
	for i, c := range cfg.Clusters {
		members[i] = federation.MemberSpec{Cluster: c, Cost: cfg.Cost}
	}
	return federation.New(federation.Config{
		Members:   members,
		Policy:    cfg.Policy,
		Routing:   cfg.Routing,
		Admission: cfg.Admission,
		Data:      cfg.Data,
		Seed:      cfg.Seed,
		Telemetry: cfg.Telemetry,
	})
}
