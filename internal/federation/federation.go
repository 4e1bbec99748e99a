// Package federation runs a multi-cluster DiAS deployment: N independent
// per-cluster stacks (each its own cluster.Cluster + engine.Engine +
// core.Scheduler) share one virtual clock behind a front-end Dispatcher
// that routes every arrival to a member cluster through a pluggable
// RoutingPolicy.
//
// This is the scale-out layer the single-cluster stack lacks: the paper's
// DiAS scheduler is a single-server system (one job in the engine at a
// time), so serving more traffic means sharding the stream across many
// such servers — and the routing policy decides how well the federation
// uses its aggregate capacity. The policy is deliberately an interface
// rather than a baked-in heuristic (policy-free middleware): Random,
// RoundRobin, JoinShortestQueue, LeastLoaded, SprintAware and DataLocal
// ship in this package, and experiments compare them head to head.
//
// A federation can also model where the data lives: with Config.Data set,
// every member gets its own simulated dfs, RegisterInput places a job's
// blocks on its home member, and routing a job anywhere else makes its
// executed stage-0 tasks fetch blocks over the WAN (dfs.CreateRemote) —
// the cost model data-aware routing has to beat.
package federation

import (
	"errors"
	"fmt"
	"math/rand"

	"dias/internal/admission"
	"dias/internal/cluster"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/simtime"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// MemberSpec describes one member cluster of a federation. Entirely
// zero-value Cluster and Cost fields mean the paper's defaults; a
// partially specified Cluster must be complete (cluster.New rejects it
// otherwise — fields are never silently filled in).
type MemberSpec struct {
	// Name labels the member in results; empty means "c<index>".
	Name string
	// Cluster sizes the member's compute substrate (nodes, slots, DVFS
	// range, power model).
	Cluster cluster.Config
	// Cost converts work into task durations on this member.
	Cost engine.CostModel
}

// Config assembles a federation.
type Config struct {
	// Members lists the per-cluster specs; at least one is required.
	Members []MemberSpec
	// Policy is the scheduling discipline instantiated on every member
	// (classes, drop ratios, sprinting). It must not carry a Deflator or
	// OnRecord: deflators are stateful per scheduler, and the record hook
	// is owned by the federation (see Config.OnRecord).
	Policy core.Config
	// Routing picks the destination member for each arrival.
	Routing RoutingPolicy
	// Admission, when non-nil, builds one admission policy per member
	// (policies are stateful — token buckets, learned histograms — so a
	// single instance cannot be shared across schedulers; hence a factory,
	// not an instance, and Policy.Admission must stay nil). A member
	// answering Defer makes the dispatcher spill the arrival to the other
	// routable members in deterministic order; if every member defers, the
	// job is rejected at the originally routed member. Policies answering
	// Reject shed locally without spilling.
	Admission func() admission.Policy
	// Data, when non-nil, gives every member its own simulated dfs so
	// RegisterInput can place job inputs and cross-cluster routing pays
	// WAN fetches. Zero-value fields default individually to
	// dfs.DefaultConfig, so setting only WANBytesPerSec customizes just
	// the inter-cluster bandwidth.
	Data *dfs.Config
	// Seed drives member-engine randomness (each member derives its own
	// stream); runs are reproducible per seed.
	Seed int64
	// OnRecord, when non-nil, receives every completed job's record with
	// the index of the member that ran it — the streaming hook for
	// federation metrics (see metrics.FederationAccumulator).
	OnRecord func(member int, rec core.JobRecord)
	// DiscardRecords stops member schedulers from retaining completed-job
	// records (combine with OnRecord for O(classes) memory on long runs).
	DiscardRecords bool
	// Telemetry, when non-nil, traces the whole federation into one
	// collector: each member's scheduler and engine emit through their
	// member-indexed tracer view, the dispatcher records routing and
	// outage events, and Run samples per-member gauges on the collector's
	// cadence. Policy.Tracer must stay nil (the federation wires it).
	Telemetry *telemetry.Collector
}

func (c Config) validate() error {
	if len(c.Members) == 0 {
		return errors.New("federation: no member clusters")
	}
	if c.Routing == nil {
		return errors.New("federation: nil routing policy")
	}
	if c.Policy.Deflator != nil {
		return errors.New("federation: Policy.Deflator cannot be shared across members")
	}
	if c.Policy.OnRecord != nil {
		return errors.New("federation: set the record hook on Config, not Config.Policy")
	}
	if c.Policy.Tracer != nil {
		return errors.New("federation: set Config.Telemetry, not Config.Policy.Tracer")
	}
	if c.Policy.Admission != nil {
		return errors.New("federation: set Config.Admission (a per-member factory), not Config.Policy.Admission")
	}
	return nil
}

// Member is one cluster of the federation: a complete DiAS stack sharing
// the federation's clock. Routing policies read member state (backlogs,
// busy slots, sprint budgets) but must not mutate it.
type Member struct {
	Name      string
	Index     int
	Cluster   *cluster.Cluster
	Engine    *engine.Engine
	Scheduler *core.Scheduler
	// FS is the member's dfs; nil when the federation has no data model.
	FS *dfs.FS
	// down marks a cluster-level outage: the dispatcher stops routing to
	// this member and all its nodes are failed (see SetMemberDown).
	down bool
	// outageFailed marks the nodes the outage itself took down, so
	// recovery repairs exactly those and composes with node-level churn
	// injectors running on the same member.
	outageFailed []bool
	// li is the federation's shared load index; routing policies and the
	// backlog getters read this member's slice of it.
	li *LoadIndex
}

// Available reports whether the member is currently routable (not in a
// cluster-level outage).
func (m *Member) Available() bool { return !m.down }

// Backlog returns the number of jobs that would precede a new class-k
// arrival on this member: buffered jobs of class >= k (higher classes
// dispatch first, equal classes are FIFO ahead of it) plus the running job
// (dispatch is non-preemptive from the new arrival's point of view unless
// it outranks the current job, which the +1 conservatively ignores).
// The count is served from the federation's load index in O(1); it is
// maintained incrementally at every scheduler transition rather than
// recounted per call.
func (m *Member) Backlog(class int) int { return m.li.Backlog(m.Index, class) }

// TotalQueued returns all buffered jobs plus the running one, served from
// the load index in O(1).
func (m *Member) TotalQueued() int { return m.li.TotalQueued(m.Index) }

// Utilization returns the member's instantaneous busy-slot fraction.
func (m *Member) Utilization() float64 { return m.Cluster.Utilization() }

// Federation is the front-end dispatcher plus its member stacks.
type Federation struct {
	cfg     Config
	sim     *simtime.Simulation
	members []*Member
	// home maps registered job templates to their data-home member.
	home   map[*engine.Job]int
	routed []int
	// downMembers counts members in a cluster-level outage; avail is the
	// scratch slice dispatch filters into while any member is down.
	downMembers int
	avail       []*Member
	// outages records the per-member windows ScheduleOutage has planned,
	// so overlapping plans are rejected up front.
	outages map[int][]outageWindow
	// spilled counts arrivals deferred by their routed member's admission
	// policy and re-routed to (accepted by) another member.
	spilled int
	// inFlight counts dispatched jobs whose record has not come back yet
	// (every dispatch yields exactly one completion/failure/rejection
	// record); peakInFlight is its high-water mark — the memory-bounding
	// figure of a streaming run, since live per-job state is proportional
	// to it, not to the total job count.
	inFlight     int
	peakInFlight int
	// index holds the per-class backlog counters routing reads (see LoadIndex).
	index *LoadIndex
	// sampler, when non-nil, drives Run with gauge sampling (telemetry).
	sampler *telemetry.Sampler
}

// outageWindow is one planned [at, end) outage of a member.
type outageWindow struct{ at, end float64 }

// New builds a federation: one shared simulation clock, one full DiAS
// stack per member spec, and the dispatcher in front.
func New(cfg Config) (*Federation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Federation{
		cfg:     cfg,
		sim:     simtime.New(),
		home:    make(map[*engine.Job]int),
		routed:  make([]int, len(cfg.Members)),
		outages: make(map[int][]outageWindow),
	}
	for i, spec := range cfg.Members {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("c%d", i)
		}
		cluCfg := spec.Cluster
		if cluCfg == (cluster.Config{}) {
			// Only a fully zero spec means the default testbed; a partially
			// specified cluster flows to cluster.New, whose validation
			// rejects it loudly rather than silently dropping fields.
			cluCfg = cluster.DefaultConfig()
		}
		cost := spec.Cost
		if cost == (engine.CostModel{}) {
			cost = engine.DefaultCostModel()
		}
		var fs *dfs.FS
		if cfg.Data != nil {
			var err error
			if fs, err = dfs.New(dataConfig(*cfg.Data)); err != nil {
				return nil, fmt.Errorf("member %s: building dfs: %w", name, err)
			}
		}
		clu, err := cluster.New(f.sim, cluCfg)
		if err != nil {
			return nil, fmt.Errorf("member %s: building cluster: %w", name, err)
		}
		// Each member engine derives its own deterministic seed stream so
		// task-noise draws on one member never depend on how many members
		// exist or what the others executed.
		eng, err := engine.New(f.sim, clu, fs, cost, cfg.Seed+31*int64(i)+1)
		if err != nil {
			return nil, fmt.Errorf("member %s: building engine: %w", name, err)
		}
		policy := cfg.Policy
		policy.DiscardRecords = cfg.DiscardRecords
		// Every record closes one dispatched job's in-flight window, so
		// the hook is always wired even without a caller OnRecord.
		policy.OnRecord = func(rec core.JobRecord) {
			f.inFlight--
			if cfg.OnRecord != nil {
				cfg.OnRecord(i, rec)
			}
		}
		if cfg.Admission != nil {
			policy.Admission = cfg.Admission()
		}
		if cfg.Telemetry != nil {
			tr := cfg.Telemetry.Member(i)
			policy.Tracer = tr
			eng.SetTracer(tr)
		}
		sch, err := core.New(f.sim, clu, eng, policy)
		if err != nil {
			return nil, fmt.Errorf("member %s: building scheduler: %w", name, err)
		}
		f.members = append(f.members, &Member{
			Name: name, Index: i,
			Cluster: clu, Engine: eng, Scheduler: sch, FS: fs,
			// Pre-sized so outage onset allocates nothing on the hot path.
			outageFailed: make([]bool, cluCfg.Nodes),
		})
	}
	// Attach the load index last, so it observes every scheduler
	// transition from a known-empty start.
	f.index = newLoadIndex(len(f.members), cfg.Policy.Classes)
	for i, m := range f.members {
		m.li = f.index
		m.Scheduler.SetObserver(memberObserver{li: f.index, m: i})
	}
	if cfg.Telemetry != nil {
		gauges := make([]telemetry.MemberGauges, len(f.members))
		for i, m := range f.members {
			gauges[i] = telemetry.MemberGauges{
				Classes:       cfg.Policy.Classes,
				QueuedInClass: m.Scheduler.QueuedJobsInClass,
				Rejected:      m.Scheduler.RejectedJobs,
				BusySlots:     m.Cluster.BusySlots,
				PoweredNodes:  m.Cluster.PoweredNodes,
				Utilization:   m.Cluster.Utilization,
			}
		}
		f.sampler = telemetry.NewSampler(cfg.Telemetry, gauges)
	}
	return f, nil
}

// Index returns the federation's load index: the per-member backlog
// counters the policies read. The index is shared and read-only for
// callers.
func (f *Federation) Index() *LoadIndex { return f.index }

// dataConfig fills the zero fields of a per-member dfs config with the
// dfs defaults, field by field, so e.g. Config.Data =
// &dfs.Config{WANBytesPerSec: 10e6} customizes only the inter-cluster
// bandwidth. (WANBytesPerSec itself is defaulted by dfs.New.)
func dataConfig(d dfs.Config) dfs.Config {
	def := dfs.DefaultConfig()
	if d.DataNodes == 0 {
		d.DataNodes = def.DataNodes
	}
	if d.Replication == 0 {
		d.Replication = def.Replication
	}
	if d.BlockSize == 0 {
		d.BlockSize = def.BlockSize
	}
	if d.LocalBytesPerSec == 0 {
		d.LocalBytesPerSec = def.LocalBytesPerSec
	}
	if d.RemoteBytesPerSec == 0 {
		d.RemoteBytesPerSec = def.RemoteBytesPerSec
	}
	return d
}

// Sim returns the shared virtual clock.
func (f *Federation) Sim() *simtime.Simulation { return f.sim }

// Members returns the member stacks, in spec order. The slice is shared;
// callers must not mutate it.
func (f *Federation) Members() []*Member { return f.members }

// RegisterInput declares the job template's input data resident on member
// home. With a data model configured, the job's file (Job.InputPath, sized
// Job.SizeBytes) is created on the home member's dfs and registered as a
// WAN-remote file on every other member, so off-home routing pays
// inter-cluster fetches per executed stage-0 task. Without a data model
// only the home mapping is recorded (visible to routing via Arrival.Home).
func (f *Federation) RegisterInput(job *engine.Job, home int) error {
	if job == nil {
		return errors.New("federation: nil job")
	}
	if home < 0 || home >= len(f.members) {
		return fmt.Errorf("federation: home %d out of [0,%d)", home, len(f.members))
	}
	if _, dup := f.home[job]; dup {
		return fmt.Errorf("federation: job %q already registered", job.Name)
	}
	if f.cfg.Data != nil {
		if job.InputPath == "" {
			return fmt.Errorf("federation: job %q needs an InputPath to place data", job.Name)
		}
		if job.SizeBytes <= 0 {
			return fmt.Errorf("federation: job %q needs SizeBytes to place data", job.Name)
		}
		for i, m := range f.members {
			var err error
			if i == home {
				err = m.FS.Create(job.InputPath, job.SizeBytes)
			} else {
				err = m.FS.CreateRemote(job.InputPath, job.SizeBytes)
			}
			if err != nil {
				return fmt.Errorf("federation: placing %q on %s: %w", job.InputPath, m.Name, err)
			}
		}
	}
	f.home[job] = home
	return nil
}

// dispatch routes one arrival at the current virtual time. While any
// member is in an outage the routing policy sees only the available
// members (with the arrival's data home remapped into that view); if the
// whole federation is down, arrivals queue on their nominal targets as if
// every member were up.
func (f *Federation) dispatch(class int, job *engine.Job) {
	f.inFlight++
	if f.inFlight > f.peakInFlight {
		f.peakInFlight = f.inFlight
	}
	home := -1
	if h, ok := f.home[job]; ok {
		home = h
	}
	candidates := f.members
	if f.downMembers > 0 {
		f.avail = f.avail[:0]
		for _, m := range f.members {
			if !m.down {
				f.avail = append(f.avail, m)
			}
		}
		if len(f.avail) > 0 {
			candidates = f.avail
		}
	}
	arr := Arrival{Class: class, Job: job, Home: -1}
	switch {
	case home < 0:
		// No registered data home: nothing to remap.
	case f.downMembers == 0:
		// All members up: candidate position i is member Index i.
		arr.Home = home
	default:
		for i, m := range candidates {
			if m.Index == home {
				arr.Home = i
				break
			}
		}
	}
	i := f.cfg.Routing.Route(arr, candidates)
	if i < 0 || i >= len(candidates) {
		panic(fmt.Sprintf("federation: policy %s routed to member %d of %d",
			f.cfg.Routing.Name(), i, len(candidates)))
	}
	m := candidates[i]
	if f.cfg.Admission == nil {
		f.routed[m.Index]++
		if f.cfg.Telemetry != nil {
			f.cfg.Telemetry.Route(f.sim.Now(), class, m.Index, false)
		}
		// Arrival errors are programming errors (bad class/job); surface them
		// loudly rather than silently dropping workload, like dias.Stack.
		if err := m.Scheduler.Arrive(class, job); err != nil {
			panic(fmt.Sprintf("federation: arrival on %s failed: %v", m.Name, err))
		}
		return
	}
	// With admission in play the routed member may shed (Reject) or ask the
	// federation to place the job elsewhere (Defer). A deferred arrival
	// spills through the remaining candidates in routing-view order starting
	// just after the first choice — deterministic and allocation-free; the
	// spilled members' own policies decide again with their local state. If
	// everyone defers, the job is rejected where it was first routed, so the
	// rejection is accounted exactly once, at the member the routing policy
	// actually picked.
	dec, err := m.Scheduler.Offer(class, job)
	if err != nil {
		panic(fmt.Sprintf("federation: arrival on %s failed: %v", m.Name, err))
	}
	switch dec {
	case admission.Accept:
		f.routed[m.Index]++
		if f.cfg.Telemetry != nil {
			f.cfg.Telemetry.Route(f.sim.Now(), class, m.Index, false)
		}
		return
	case admission.Reject:
		return
	}
	for off := 1; off < len(candidates); off++ {
		c := candidates[(i+off)%len(candidates)]
		dec, err = c.Scheduler.Offer(class, job)
		if err != nil {
			panic(fmt.Sprintf("federation: spilled arrival on %s failed: %v", c.Name, err))
		}
		switch dec {
		case admission.Accept:
			f.routed[c.Index]++
			f.spilled++
			if f.cfg.Telemetry != nil {
				f.cfg.Telemetry.Route(f.sim.Now(), class, c.Index, true)
			}
			return
		case admission.Reject:
			return
		}
	}
	m.Scheduler.Reject(class, job)
}

// Spilled returns how many arrivals were deferred by their routed member's
// admission policy and accepted elsewhere.
func (f *Federation) Spilled() int { return f.spilled }

// PeakInFlight returns the high-water mark of dispatched jobs whose
// completion/failure/rejection record had not yet been emitted — the
// federation's live-job bound. On a streaming run this, not the total
// job count, is what memory scales with.
func (f *Federation) PeakInFlight() int { return f.peakInFlight }

// SetMemberDown starts (down = true) or ends a cluster-level outage of
// member i. An outage removes the member from routing and fails every up
// node of its cluster, re-queueing in-flight tasks for re-execution after
// recovery; jobs already buffered on the member wait out the outage.
// Recovery restores routing eligibility and repairs exactly the nodes the
// outage took down (nodes a node-level churn injector holds down stay
// down, and their pending repairs proceed independently — the two
// injection layers compose). Setting the state the member is already in
// is an error.
func (f *Federation) SetMemberDown(i int, down bool) error {
	if i < 0 || i >= len(f.members) {
		return fmt.Errorf("federation: member %d of %d", i, len(f.members))
	}
	m := f.members[i]
	if m.down == down {
		return fmt.Errorf("federation: member %s already down=%v", m.Name, down)
	}
	m.down = down
	f.index.setAvailable(i, !down)
	if f.cfg.Telemetry != nil {
		f.cfg.Telemetry.MemberState(f.sim.Now(), i, down)
	}
	nodes := m.Cluster.Config().Nodes
	if down {
		f.downMembers++
		for n := 0; n < nodes; n++ {
			if !m.Cluster.NodeDown(n) {
				if err := m.Engine.FailNode(n); err != nil {
					return fmt.Errorf("federation: failing %s node %d: %w", m.Name, n, err)
				}
				m.outageFailed[n] = true
			}
		}
		return nil
	}
	f.downMembers--
	for n := 0; n < nodes; n++ {
		if m.outageFailed[n] {
			m.outageFailed[n] = false
			if !m.Cluster.NodeDown(n) {
				continue // someone else repaired it meanwhile
			}
			if err := m.Engine.RepairNode(n); err != nil {
				return fmt.Errorf("federation: repairing %s node %d: %w", m.Name, n, err)
			}
		}
	}
	return nil
}

// ScheduleOutage plans a cluster-level outage of a member on the virtual
// timeline: at atSec the member goes down, durationSec later it recovers.
// Overlapping outages of one member, and non-finite or negative times,
// are rejected at scheduling time.
func (f *Federation) ScheduleOutage(member int, atSec, durationSec float64) error {
	if member < 0 || member >= len(f.members) {
		return fmt.Errorf("federation: outage member %d of %d", member, len(f.members))
	}
	if !simtime.IsFinite(atSec) || !simtime.IsFinite(durationSec) || atSec < 0 || durationSec <= 0 {
		return fmt.Errorf("federation: outage at %g for %g", atSec, durationSec)
	}
	win := outageWindow{at: atSec, end: atSec + durationSec}
	for _, o := range f.outages[member] {
		if win.at < o.end && o.at < win.end {
			return fmt.Errorf("federation: outage of member %d at %g overlaps one at %g",
				member, atSec, o.at)
		}
	}
	f.outages[member] = append(f.outages[member], win)
	f.sim.At(simtime.Time(atSec), func() {
		if err := f.SetMemberDown(member, true); err != nil {
			panic(fmt.Sprintf("federation: outage start: %v", err))
		}
	})
	f.sim.At(simtime.Time(win.end), func() {
		if err := f.SetMemberDown(member, false); err != nil {
			panic(fmt.Sprintf("federation: outage end: %v", err))
		}
	})
	return nil
}

// SubmitAt schedules a job arrival at virtual time t seconds; the routing
// policy picks its destination when the arrival fires, seeing member state
// as of that instant.
func (f *Federation) SubmitAt(t float64, class int, job *engine.Job) {
	f.sim.At(simtime.Time(t), func() { f.dispatch(class, job) })
}

// SubmitStream schedules n arrivals drawn from any arrival process with
// jobs built by the source, exactly like dias.Stack.SubmitStream but
// routed across the federation. Arrivals are injected feed-forward
// (workload.Inject): only the next arrival is ever pending, so
// submission memory is O(1) at any n — the path that pushes 1M+ jobs
// through an 8-cluster federation with bounded RSS. Job-source failures
// panic at their arrival instant (like dispatch on a bad arrival)
// rather than being returned here.
func (f *Federation) SubmitStream(proc workload.Process, source workload.JobSource, n int, seed int64) error {
	if proc == nil || source == nil {
		return errors.New("federation: nil arrival process or job source")
	}
	arrRng := rand.New(rand.NewSource(seed))
	jobRng := rand.New(rand.NewSource(seed + 1))
	return workload.Inject(f.sim, proc, source, n, arrRng, jobRng, func(class int, job *engine.Job) {
		f.dispatch(class, job)
	})
}

// Run drains the simulation: all scheduled arrivals are routed and all
// jobs run to completion on their members. With telemetry configured the
// run is driven through the gauge sampler, which fires the same events
// at the same instants and leaves the clock untouched (see
// telemetry.Sampler.Drive).
func (f *Federation) Run() {
	if f.sampler != nil {
		f.sampler.Drive(f.sim)
		return
	}
	f.sim.Run()
}

// Stop aborts a Run in progress at the next event boundary, with the
// simulation-context semantics of simtime.Simulation.Stop.
func (f *Federation) Stop() { f.sim.Stop() }

// Routed returns how many arrivals each member received so far.
func (f *Federation) Routed() []int {
	out := make([]int, len(f.routed))
	copy(out, f.routed)
	return out
}
