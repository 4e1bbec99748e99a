package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"dias/internal/cluster"
	"dias/internal/dfs"
	"dias/internal/ring"
	"dias/internal/simtime"
	"dias/internal/telemetry"
)

// Record is one key-value datum flowing through a job.
type Record struct {
	Key   string
	Value any
}

// Partition is an ordered slice of records processed by a single task.
type Partition []Record

// Dataset is a partitioned collection, the RDD analogue.
type Dataset []Partition

// Records returns the total record count.
func (d Dataset) Records() int {
	var n int
	for _, p := range d {
		n += len(p)
	}
	return n
}

// StageKind distinguishes shuffle-producing stages from the final stage.
type StageKind int

const (
	// ShuffleMap stages hash their task outputs into OutPartitions buckets
	// consumed by dependent stages.
	ShuffleMap StageKind = iota + 1
	// Result stages deliver their task outputs to the driver.
	Result
)

// TaskFunc transforms one input partition into output records. It must be
// a pure, deterministic function of its input: it must not mutate the
// input slice, and it must not retain or later mutate the returned slice,
// except through its Stage's Release hook. The engine relies on this three
// ways: it memoizes input-reading stage outputs on the Stage itself, per
// input partition (so a Stage's Compute and OutPartitions and a template's
// input records must not change once submitted, and any engine on any
// goroutine may serve the output from another's call), it aliases shuffle
// outputs as downstream inputs without defensive copying, and it does not
// call Compute at all for a stage whose output nobody reads. The engine
// never writes into a returned slice: it only reads memo entries and
// copies records into buckets and the result. A TaskFunc may therefore
// return its own input, as the identity does, or the same immutable slice
// from several calls. Returned records may share one backing string for
// their keys (a task that formats its keys can build them in one block);
// the engine treats keys as opaque values either way. Because a task's
// input arrives in the order its upstream tasks completed, the number of
// output records in each shuffle bucket must depend on the input multiset
// alone, never on its order: a clean execution replays the per-bucket
// totals another published instead of calling Compute.
type TaskFunc func(in []Record) []Record

// Stage describes one synchronization stage of a job.
type Stage struct {
	// Name labels the stage in diagnostics.
	Name string
	// Kind is ShuffleMap or Result.
	Kind StageKind
	// Deps lists parent stage indices. Stage 0 (no deps) reads the job
	// input; dependent stages read the co-partitioned shuffle output of
	// all parents.
	Deps []int
	// Compute transforms a task's input records; nil is the identity.
	Compute TaskFunc
	// Release, when set, takes back an output of Compute once the engine
	// has read it for the last time: it is called exactly once for each
	// output the engine got fresh from Compute and keeps in no memo, right
	// after the records were copied into buckets or the result, or
	// counted. It is never called for a memoized output, with a nil
	// Compute, or in an execution that replays published shuffle totals.
	// A Compute that hands out reusable arrays sets it to take them back;
	// the code that builds the Compute sets it, never a user.
	Release func([]Record)
	// OutPartitions is the shuffle fan-out of a ShuffleMap stage.
	OutPartitions int
	// PerRecordSec overrides CostModel.PerRecordSec for this stage's tasks
	// when positive (map parsing and reduce aggregation cost differently).
	PerRecordSec float64

	// memo is the slot for this stage's memoized outputs (see stageMemo).
	// It lives in the Stages backing array, so every Job sharing that array
	// — shallow clones, workload.SubJob truncations — shares the entries,
	// and they are collected with the template.
	memo atomic.Pointer[stageMemo]
	// totals is the slot for the per-bucket output totals clean executions
	// of this ShuffleMap stage publish (see shuffleTotals); it is shared and
	// owned like memo.
	totals atomic.Pointer[shuffleTotals]
}

// JobID identifies a submitted job within an Engine.
type JobID uint64

// Job is a runnable DAG over an input dataset.
type Job struct {
	// Name labels the job in diagnostics.
	Name string
	// Priority is the job's class (higher = more important); the engine
	// does not act on it, the DiAS core does.
	Priority int
	// Input is the partitioned input of stage 0; one task per partition.
	Input Dataset
	// InputPath optionally names a dfs file whose i-th block backs input
	// partition i; executed stage-0 tasks then pay the block fetch time,
	// dropped ones do not.
	InputPath string
	// Stages in topological order (Deps reference lower indices only).
	// Exactly one stage must be a Result stage, and it must be last.
	Stages []Stage
	// SizeBytes is the logical input size used by cost and setup models.
	SizeBytes int64
}

// Validate checks the DAG shape.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return errors.New("engine: job has no stages")
	}
	for i := range j.Stages {
		s := &j.Stages[i]
		for _, d := range s.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("engine: stage %d depends on %d (must be a lower index)", i, d)
			}
			if j.Stages[d].Kind != ShuffleMap {
				return fmt.Errorf("engine: stage %d depends on non-ShuffleMap stage %d", i, d)
			}
		}
		switch s.Kind {
		case ShuffleMap:
			if s.OutPartitions <= 0 {
				return fmt.Errorf("engine: ShuffleMap stage %d has %d out partitions", i, s.OutPartitions)
			}
			if i == len(j.Stages)-1 {
				return errors.New("engine: last stage must be a Result stage")
			}
		case Result:
			if i != len(j.Stages)-1 {
				return fmt.Errorf("engine: Result stage %d is not last", i)
			}
		default:
			return fmt.Errorf("engine: stage %d has unknown kind %d", i, s.Kind)
		}
		if len(s.Deps) > 1 {
			b := j.Stages[s.Deps[0]].OutPartitions
			for _, d := range s.Deps[1:] {
				if j.Stages[d].OutPartitions != b {
					return fmt.Errorf("engine: stage %d parents disagree on partitions (%d vs %d)",
						i, b, j.Stages[d].OutPartitions)
				}
			}
		}
	}
	if len(j.Input) == 0 {
		return errors.New("engine: job has no input partitions")
	}
	return nil
}

// CostModel converts work into virtual task durations (at speed 1).
type CostModel struct {
	// TaskOverheadSec is the fixed scheduling/launch cost per task.
	TaskOverheadSec float64
	// PerRecordSec is the compute cost per input record.
	PerRecordSec float64
	// SetupBaseSec + SetupPerByte*effectiveBytes is the job's initial setup
	// (the paper's overhead stage O, observed to depend on data size §4.3).
	SetupBaseSec float64
	SetupPerByte float64
	// ShuffleBaseSec + ShufflePerRecordSec*records is the serial shuffle
	// stage S between a ShuffleMap stage and its dependents.
	ShuffleBaseSec      float64
	ShufflePerRecordSec float64
	// NoiseSigma is the lognormal σ applied to each task duration; zero
	// disables noise.
	NoiseSigma float64
}

// DefaultCostModel gives tasks on the order of a few seconds for a few
// thousand records, yielding paper-scale (~100 s) jobs for 50-partition
// inputs at base frequency.
func DefaultCostModel() CostModel {
	return CostModel{
		TaskOverheadSec:     0.3,
		PerRecordSec:        0.002,
		SetupBaseSec:        4.0,
		SetupPerByte:        4e-9,
		ShuffleBaseSec:      1.0,
		ShufflePerRecordSec: 2e-5,
		NoiseSigma:          0.08,
	}
}

// FindMissingPartitions mirrors Spark's scheduler hook of the same name
// (§3.3): given n partitions and a drop ratio theta it returns the indices
// to actually compute, ⌈n(1-θ)⌉ of them chosen uniformly at random.
func FindMissingPartitions(rng *rand.Rand, n int, theta float64) []int {
	idx := rng.Perm(n)[:keepCount(n, theta)]
	// Keep deterministic per-rng but sorted for wave-order stability.
	sortSubset(idx, make([]bool, n))
	return idx
}

// findMissingPartitions is FindMissingPartitions on the engine's scratch
// buffers: the RNG draw sequence and the selected set are bit-identical to
// the rand.Perm-based selection, without the per-stage permutation
// allocation. The returned slice aliases the scratch and is only valid
// until the next call.
func (e *Engine) findMissingPartitions(n int, theta float64) []int {
	keep := keepCount(n, theta)
	perm := growSlice(e.permScratch, n)
	e.permScratch = perm
	if keep == n {
		// Everything is kept: the draws still happen (the stream is pinned),
		// the sorted selection is the identity.
		for i := range perm {
			e.rng.Intn(i + 1)
			perm[i] = i
		}
		return perm
	}
	// rand.Perm's exact inside-out shuffle — including the redundant i=0
	// draw it keeps for Go 1 stream compatibility — so the Intn sequence
	// and the selected set are bit-identical, on a reused buffer. (Stale
	// scratch contents are harmless: iteration i reads only slots already
	// written this call before overwriting slot i.)
	for i := 0; i < n; i++ {
		j := e.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	selected := perm[:keep]
	e.markScratch = resetSlice(e.markScratch, n)
	sortSubset(selected, e.markScratch)
	return selected
}

// keepCount is the Dropper's rule: of n partitions at drop ratio theta
// (clamped to [0,1]) it keeps ⌈n(1-θ)⌉.
func keepCount(n int, theta float64) int {
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	return min(int(math.Ceil(float64(n)*(1-theta))), n)
}

// sortSubset sorts xs, distinct values in [0, len(marks)), ascending in
// O(len(marks)): mark each value, then sweep the marks in order. marks
// must come in all false.
func sortSubset(xs []int, marks []bool) {
	for _, x := range xs {
		marks[x] = true
	}
	k := 0
	for i, kept := range marks {
		if kept {
			xs[k] = i
			k++
		}
	}
}

// Attempt summarises one execution attempt of a job (a completed run or an
// evicted one).
type Attempt struct {
	StartedAt     simtime.Time
	EndedAt       simtime.Time
	SlotSeconds   float64 // machine time consumed by this attempt
	TasksLaunched int
	Evicted       bool
}

// StageStat is the per-stage profiling record exposed with each result,
// the analogue of the task metrics the paper's profiling runs read from
// Spark (§4.3).
type StageStat struct {
	Name          string
	Kind          StageKind
	TasksExecuted int
	TasksDropped  int
	// MeanTaskSec is the mean wall duration of executed tasks.
	MeanTaskSec float64
	// StartedAt/EndedAt bound the stage (EndedAt excludes the trailing
	// shuffle delay).
	StartedAt simtime.Time
	EndedAt   simtime.Time
}

// Waves returns how many waves the stage needed on a cluster with the
// given slot count.
func (s StageStat) Waves(slots int) int {
	if slots <= 0 || s.TasksExecuted == 0 {
		return 0
	}
	return (s.TasksExecuted + slots - 1) / slots
}

// JobResult is delivered to the submitter when a job completes.
type JobResult struct {
	JobID JobID
	Name  string
	// Output is the concatenated Result-stage output; nil when the
	// submission set SubmitOptions.DiscardOutput.
	Output []Record
	// Stages holds per-stage profiling stats, indexed like Job.Stages.
	Stages []StageStat
	// StartedAt/FinishedAt bound the final (successful) attempt.
	StartedAt  simtime.Time
	FinishedAt simtime.Time
	// SlotSeconds is machine time consumed by the successful attempt.
	SlotSeconds float64
	// TasksTotal counts tasks before dropping; TasksExecuted after.
	TasksTotal    int
	TasksExecuted int
	TasksDropped  int
	// EffectiveDropRatio aggregates dropping across stages:
	// 1 - executed/total.
	EffectiveDropRatio float64
	// TaskRetries counts task attempts aborted by failures (injected or
	// node crashes) and re-executed during this job.
	TaskRetries int
	// Failed reports a job aborted by the fault injector: a task exhausted
	// its attempt budget. FailureReason says which. A failed job delivers
	// no Output.
	Failed        bool
	FailureReason string
}

// SubmitOptions configures one submission.
type SubmitOptions struct {
	// DropRatios holds θ per stage (missing/short entries mean 0).
	DropRatios []float64
	// OnComplete is invoked in simulation context when the job finishes.
	OnComplete func(JobResult)
	// Span, when non-zero, tags this submission's telemetry: stage and
	// task events the engine emits carry it, joining the execution to the
	// submitter's job lifecycle span.
	Span telemetry.SpanID
	// DiscardOutput declares that nobody reads JobResult.Output. The engine
	// then carries record counts instead of records through every stage
	// whose contents have no consumer left (see execution.carries); every
	// simulated duration, RNG draw and StageStat is the same either way.
	DiscardOutput bool
}

// task is one unit of schedulable work. Tasks are pooled on the engine's
// freelist: each struct carries a completion closure bound once at
// allocation and reused across all its simulated lives, so steady-state
// dispatch performs no closure or task allocation.
type task struct {
	exec      *execution
	stage     int
	partition int
	// input holds the task's records when its stage reads them; records is
	// the input size the cost model prices, known even when input is nil.
	input   []Record
	records int

	// attempt counts prior aborted attempts of this task (injected
	// failures and node crashes); willFail marks an attempt the fault
	// injector doomed, so its completion event aborts it instead.
	attempt  int
	willFail bool

	// completeFn is the pre-bound e.completeTask(t) callback handed to the
	// simulation for every (re)scheduling of this task struct.
	completeFn func()

	// Execution state while running.
	slot          *cluster.Slot
	remainingWork float64 // seconds at speed 1
	startedAt     simtime.Time
	lastUpdate    simtime.Time
	event         simtime.EventID
	running       bool
	runIdx        int // index in exec.running while running
}

// execution is the engine-internal state of one job attempt.
type execution struct {
	id   JobID
	job  *Job
	opts SubmitOptions

	startedAt simtime.Time
	// clean marks an execution whose every stage output is its template's
	// own (see isClean): it publishes its shuffle totals on the template's
	// Stages. replay marks a clean execution that found them all published
	// at Submit: it carries nothing, and its tasks compute nothing.
	clean, replay bool
	// carries[s] reports whether stage s's output contents have a reader:
	// a ShuffleMap consumer (which computes over them) or a Result stage
	// whose output the submitter keeps. A stage that carries nothing keeps
	// only record counts, which is all the timing model prices.
	carries []bool
	// shuffle.outputs[s] is the shuffle output of stage s, bucketed, when
	// it carries; outCounts[s] is its per-bucket record counts when not.
	// shuffle is nil until the first carrying stage starts, and for good
	// when no stage carries.
	shuffle   *shuffleBuffers
	outCounts [][]int
	// resultOut accumulates Result-stage task outputs.
	resultOut []Record
	// pendingTasks[s] counts unfinished tasks of stage s.
	pendingTasks []int
	stageStarted []bool
	stageDone    []bool

	slotSeconds float64
	// failureLostSec is the share of slotSeconds destroyed by failures
	// (aborted attempts), so a failing job can charge only the remainder.
	failureLostSec float64
	// retries counts aborted task attempts (injected failures and node
	// crashes) that were re-queued for this job.
	retries       int
	tasksTotal    int
	tasksExecuted int
	tasksDropped  int
	launched      int
	stageStats    []StageStat
	stageTaskSecs []float64         // summed wall task durations per stage
	pending       ring.Deque[*task] // this job's runnable tasks, FIFO
	// inputBlocks is the dfs file's own block list (shared, read-only).
	inputBlocks []dfs.Block
	// perRecordSec[s] is stage s's per-record cost and memos[s] its
	// memo when it reads the job input through a Compute, both resolved
	// once in startStage.
	perRecordSec []float64
	memos        []*stageMemo

	// running lists in-flight tasks in launch order (compacted by
	// swap-remove); a deterministic replacement for the old map, so DVFS
	// rescaling is reproducible per seed.
	running []*task
	done    bool
	evicted bool

	// setupFn and shuffleFns[s] are the pre-bound setup-delay and stage-s
	// shuffle-delay callbacks, bound once per struct like task.completeFn.
	// delays counts those events still queued. They are never cancelled: a
	// stale one fires at its instant as a no-op, so the run's final clock
	// is the same as if the job had lived. An ended struct therefore goes
	// back to the freelist only with no delay queued (retire); until then
	// retired marks it as owed there.
	setupFn    func()
	shuffleFns []func()
	delays     int
	retired    bool
}

// Engine schedules jobs onto a cluster.
type Engine struct {
	sim  *simtime.Simulation
	clu  *cluster.Cluster
	fs   *dfs.FS // may be nil: no fetch costs
	cost CostModel
	rng  *rand.Rand

	nextID JobID
	execs  map[JobID]*execution
	// execOrder lists live executions in submission order; task dispatch
	// walks it FIFO.
	execOrder []*execution

	// taskFree recycles task structs (and their pre-bound completion
	// closures) across executions; execFree recycles execution structs and
	// their per-stage bookkeeping slices (count buckets, stage flags and
	// sums) the same way, so steady-state job churn performs no
	// per-submission slice or map allocation beyond what escapes in the
	// JobResult. Shuffle buckets travel separately, across engines
	// (shuffleBuffers).
	taskFree []*task
	execFree []*execution
	// permScratch and markScratch back the drop selection's permutation
	// and its sorting sweep; abortScratch backs FailNode's per-node abort
	// sweep.
	permScratch  []int
	markScratch  []bool
	abortScratch []*task

	wastedSlotSeconds float64
	evictions         int

	tasksRetried           int
	failureLostSlotSeconds float64

	// taskFaults, when non-nil, is consulted at every attempt launch;
	// maxTaskAttempts bounds injected-failure retries per task (an
	// injected failure at or beyond the budget fails the whole job).
	taskFaults      TaskFaultInjector
	maxTaskAttempts int
	failedJobs      int

	// tracer, when non-nil, receives stage, task-retry, straggler and node
	// telemetry; every emission is nil-guarded so the pooled churn paths
	// stay allocation-free with tracing off.
	tracer telemetry.Tracer
}

// SetTracer installs the telemetry tracer (nil disables). Per-job events
// carry the SubmitOptions.Span of their execution.
func (e *Engine) SetTracer(tr telemetry.Tracer) { e.tracer = tr }

// New builds an engine bound to a simulation and cluster. fs may be nil
// when input fetch times are irrelevant.
func New(sim *simtime.Simulation, clu *cluster.Cluster, fs *dfs.FS, cost CostModel, seed int64) (*Engine, error) {
	if sim == nil || clu == nil {
		return nil, errors.New("engine: nil simulation or cluster")
	}
	e := &Engine{
		sim:   sim,
		clu:   clu,
		fs:    fs,
		cost:  cost,
		rng:   rand.New(rand.NewSource(seed)),
		execs: make(map[JobID]*execution),
	}
	clu.OnSpeedChange(e.rescaleRunning)
	return e, nil
}

// stageMemo holds the memoized outputs of one input-reading Stage, one
// entry per input partition. A stage output is a pure function of the
// template, so the memo belongs to the template — it sits in the Stage's
// own slot and dies with the Stages array — not to an engine: every
// engine a template is submitted to, on any goroutine, reads and fills
// the same entries.
type stageMemo struct {
	// owner is the Stage the memo was created for. A Stage value copied
	// into another slice carries the slot along but not the right to it
	// (its Compute may have been swapped), so a memo is honoured only at
	// its owner's address.
	owner   *Stage
	entries []atomic.Pointer[memoEntry]
}

// memoEntry is one partition's memoized output, immutable once published.
// It holds whichever forms have been asked for so far: the records (the
// payload plane), their per-bucket counts (the count-only plane), or both.
type memoEntry struct {
	// data and n identify the input records the output was computed over;
	// an entry serves exactly that partition.
	data *Record
	n    int
	// out is the Compute output when hasOut is set (it may be nil: a
	// filter that keeps nothing); counts is nil until a count-only task
	// asks.
	out    []Record
	hasOut bool
	counts []int32
}

// memoFor returns s's memo with room for n input partitions. The first
// caller creates it; a memo too short (a workload.SubJob truncation ran
// before its parent) or inherited by value from another Stage is replaced,
// keeping the owner's entries. An engine racing the replacement may still
// publish into the old memo; that entry is lost and recomputed, nothing
// more.
func (s *Stage) memoFor(n int) *stageMemo {
	for {
		m := s.memo.Load()
		if m != nil && m.owner == s && len(m.entries) >= n {
			return m
		}
		grown := &stageMemo{owner: s, entries: make([]atomic.Pointer[memoEntry], n)}
		if m != nil && m.owner == s {
			for p := range m.entries {
				grown.entries[p].Store(m.entries[p].Load())
			}
		}
		if s.memo.CompareAndSwap(m, grown) {
			return grown
		}
	}
}

// memoEntryOf returns the memo cell of t's output and the entry published
// there for t's input, if any. The cell is nil when the output is not
// memoizable: only input-reading stages qualify (their task inputs are the
// template's own stable partitions, and startStage resolved their memo),
// and a nil Compute or an empty input costs nothing to redo.
func memoEntryOf(t *task) (*atomic.Pointer[memoEntry], *memoEntry) {
	m := t.exec.memos[t.stage]
	if m == nil || len(t.input) == 0 {
		return nil, nil
	}
	cell := &m.entries[t.partition]
	if e := cell.Load(); e != nil && e.data == &t.input[0] && e.n == len(t.input) {
		return cell, e
	}
	return cell, nil
}

// shuffleTotals holds the per-bucket output totals of one ShuffleMap
// Stage, as clean executions published them: one entry per input
// partition count, so workload.SubJob truncations of one template keep
// theirs side by side. With every partition of every stage kept, a stage's
// output is a function of the template alone, and so are its totals (the
// TaskFunc contract makes them independent of input order too). A set is
// immutable once published and replaced whole; it is honoured only at its
// owner's address, like a stageMemo.
type shuffleTotals struct {
	owner   *Stage
	entries []totalsEntry
}

// totalsEntry is the totals of one clean execution over a job input, named
// by the address of its first partition and its partition count.
type totalsEntry struct {
	input  *Partition
	n      int
	totals []int
}

// totalsFor returns the totals s published for input, or nil.
func (s *Stage) totalsFor(input Dataset) []int {
	if ts := s.totals.Load(); ts != nil && ts.owner == s {
		for _, e := range ts.entries {
			if e.input == &input[0] && e.n == len(input) {
				return e.totals
			}
		}
	}
	return nil
}

// replayOff switches replaying published totals off, so tests can hold a
// replayed run to one that computes everything.
var replayOff bool

// replayTotals copies into outCounts the totals that every ShuffleMap stage
// of ex's template published for its input, and reports whether all had.
func (ex *execution) replayTotals() bool {
	for si := range ex.job.Stages {
		s := &ex.job.Stages[si]
		if s.Kind != ShuffleMap {
			continue
		}
		totals := s.totalsFor(ex.job.Input)
		if totals == nil {
			return false
		}
		ex.outCounts[si] = append(ex.outCounts[si][:0], totals...)
	}
	return true
}

// publishTotals publishes the per-bucket totals of stage si, which a clean
// execution has just finished, unless an entry for its input is there
// already; an entry for another input of the same partition count makes
// way.
func (ex *execution) publishTotals(si int) {
	s, in := &ex.job.Stages[si], ex.job.Input
	var totals []int
	for {
		old := s.totals.Load()
		var kept []totalsEntry
		if old != nil && old.owner == s {
			for _, e := range old.entries {
				if e.n != len(in) {
					kept = append(kept, e)
				} else if e.input == &in[0] {
					return
				}
			}
		}
		if totals == nil {
			totals = make([]int, s.OutPartitions)
			for b := range totals {
				if ex.carries[si] {
					totals[b] = len(ex.shuffle.outputs[si][b])
				} else {
					totals[b] = ex.outCounts[si][b]
				}
			}
		}
		next := &shuffleTotals{owner: s, entries: append(kept, totalsEntry{input: &in[0], n: len(in), totals: totals})}
		if s.totals.CompareAndSwap(old, next) {
			return
		}
	}
}

// newTask takes a task struct off the freelist (or allocates one with its
// completion closure bound) and initializes it for one unit of work.
func (e *Engine) newTask(ex *execution, stage, partition int, input []Record, records int) *task {
	var t *task
	if n := len(e.taskFree); n > 0 {
		t = e.taskFree[n-1]
		e.taskFree[n-1] = nil
		e.taskFree = e.taskFree[:n-1]
	} else {
		t = &task{}
		t.completeFn = func() { e.completeTask(t) }
	}
	t.exec, t.stage, t.partition, t.input, t.records = ex, stage, partition, input, records
	return t
}

// freeTask clears a finished or discarded task and returns it to the
// freelist. Callers must have dropped every reference to it first.
func (e *Engine) freeTask(t *task) {
	fn := t.completeFn
	*t = task{completeFn: fn}
	e.taskFree = append(e.taskFree, t)
}

// newExecution takes an execution off the freelist (or allocates one) and
// initializes it for one submission. Per-stage bookkeeping slices are
// reused from the struct's previous life; only what escapes through the
// JobResult (Stages, and the Output accumulated later) is allocated
// fresh.
func (e *Engine) newExecution(job *Job, opts SubmitOptions) *execution {
	var ex *execution
	if n := len(e.execFree); n > 0 {
		ex = e.execFree[n-1]
		e.execFree[n-1] = nil
		e.execFree = e.execFree[:n-1]
	} else {
		ex = &execution{}
		ex.setupFn = func() { e.setupDone(ex) }
	}
	e.nextID++
	ns := len(job.Stages)
	for si := len(ex.shuffleFns); si < ns; si++ {
		ex.shuffleFns = append(ex.shuffleFns, func() { e.shuffleDone(ex, si) })
	}
	ex.id = e.nextID
	ex.job, ex.opts = job, opts
	ex.startedAt = e.sim.Now()
	ex.carries = resetSlice(ex.carries, ns)
	for si := range job.Stages {
		st := &job.Stages[si]
		if st.Kind == Result {
			ex.carries[si] = !opts.DiscardOutput
		}
		if st.Kind == ShuffleMap || ex.carries[si] {
			for _, d := range st.Deps {
				ex.carries[d] = true
			}
		}
	}
	ex.outCounts = growSlice(ex.outCounts, ns)
	ex.pendingTasks = resetSlice(ex.pendingTasks, ns)
	ex.stageStarted = resetSlice(ex.stageStarted, ns)
	ex.stageDone = resetSlice(ex.stageDone, ns)
	ex.stageStats = make([]StageStat, ns) // escapes via JobResult.Stages
	ex.stageTaskSecs = resetSlice(ex.stageTaskSecs, ns)
	ex.perRecordSec = growSlice(ex.perRecordSec, ns)
	ex.memos = growSlice(ex.memos, ns)
	ex.running = ex.running[:0]
	ex.slotSeconds, ex.failureLostSec = 0, 0
	ex.retries, ex.tasksTotal, ex.tasksExecuted, ex.tasksDropped = 0, 0, 0, 0
	ex.launched = 0
	ex.done, ex.evicted, ex.retired = false, false, false
	return ex
}

// freeExecution returns a finished execution to the freelist. The
// reusable per-stage slices stay attached; everything that escaped
// through the JobResult is dropped, as is everything the template owns,
// and the shuffle buckets were released separately (releaseShuffle).
func (e *Engine) freeExecution(ex *execution) {
	ex.job = nil
	ex.opts = SubmitOptions{}
	ex.resultOut = nil  // escaped as JobResult.Output
	ex.stageStats = nil // escaped as JobResult.Stages
	ex.inputBlocks = nil
	clear(ex.memos)
	e.execFree = append(e.execFree, ex)
}

// retire recycles an execution whose job has ended, once no delay event
// of it is queued; with one still queued, the last to fire recycles it
// (delayFired). Either way the next submission never lands on a struct a
// stale event still points at.
func (e *Engine) retire(ex *execution) {
	if ex.delays > 0 {
		ex.retired = true
		return
	}
	e.freeExecution(ex)
}

// afterDelay queues one of ex's delay callbacks (setup or shuffle) to
// fire after sec seconds of work at the cluster's current speed.
func (e *Engine) afterDelay(ex *execution, sec float64, fn func()) {
	ex.delays++
	e.sim.After(simtime.Duration(sec/e.clu.Speed()), fn)
}

// delayFired accounts one of ex's delay events and reports whether its
// job is still live. A stale event — its job was killed or failed, or
// completed before an orphan ShuffleMap stage's shuffle delay ran out —
// does nothing, except that the last one recycles a retired struct.
func (e *Engine) delayFired(ex *execution) bool {
	ex.delays--
	if !ex.done && !ex.evicted {
		return true
	}
	if ex.delays == 0 && ex.retired {
		e.freeExecution(ex)
	}
	return false
}

// setupDone ends the job's setup (overhead stage O) and starts its
// input stages.
func (e *Engine) setupDone(ex *execution) {
	if e.delayFired(ex) {
		e.startReadyStages(ex)
	}
}

// shuffleDone ends stage si's shuffle delay (stage S) and starts the
// stages it unblocks.
func (e *Engine) shuffleDone(ex *execution, si int) {
	if e.delayFired(ex) {
		ex.stageDone[si] = true
		e.startReadyStages(ex)
	}
}

// shuffleBuffers is the bucket set of one execution: the per-stage shuffle
// outputs of every stage that carries records. A set belongs to one
// execution from its first carrying stage until the job completes, fails
// or is evicted, and is then handed to the next execution that needs one —
// of any engine, on any goroutine — so bucket arrays grown by one job
// serve every later one and a fresh engine does not regrow them from nil.
// A released set holds no record: every bucket is empty and zero through
// its capacity, so it pins nothing of the job that filled it.
type shuffleBuffers struct {
	outputs []Dataset
}

var shuffleBufferPool = sync.Pool{New: func() any { return new(shuffleBuffers) }}

// openShuffleOutput gives stage si its n empty buckets, taking a released
// bucket set (or a new one) on the execution's first call.
func (ex *execution) openShuffleOutput(si, n int) {
	if ex.shuffle == nil {
		ex.shuffle = shuffleBufferPool.Get().(*shuffleBuffers)
	}
	sb := ex.shuffle
	for len(sb.outputs) < len(ex.job.Stages) {
		sb.outputs = append(sb.outputs, nil)
	}
	// Buckets of an earlier life beyond this fan-out stay as they are:
	// empty, with their capacity.
	sb.outputs[si] = growSlice(sb.outputs[si], n)
}

// releaseShuffle zeroes every record the execution's buckets hold and
// hands the set on. The caller guarantees no task of the execution is
// left to read a bucket. An execution that never carried a record has
// nothing to release.
func (ex *execution) releaseShuffle() {
	sb := ex.shuffle
	if sb == nil {
		return
	}
	ex.shuffle = nil
	for _, buckets := range sb.outputs {
		for b, bucket := range buckets {
			clear(bucket)
			buckets[b] = bucket[:0]
		}
	}
	shuffleBufferPool.Put(sb)
}

// growSlice returns s resized to length n, reusing its capacity;
// surviving elements keep their previous-life contents (callers reset
// them per use).
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// resetSlice returns s resized to length n with every element zeroed.
func resetSlice[T int | bool | float64](s []T, n int) []T {
	s = growSlice(s, n)
	clear(s)
	return s
}

// addRunning registers t as in-flight on its execution.
func addRunning(t *task) {
	ex := t.exec
	t.runIdx = len(ex.running)
	ex.running = append(ex.running, t)
}

// removeRunning unregisters t by swap-remove, keeping sibling indices
// consistent.
func removeRunning(t *task) {
	ex := t.exec
	last := len(ex.running) - 1
	moved := ex.running[last]
	ex.running[t.runIdx] = moved
	moved.runIdx = t.runIdx
	ex.running[last] = nil
	ex.running = ex.running[:last]
}

// Cluster returns the compute substrate this engine schedules onto
// (read-mostly: fault and capacity controllers size their plans from it).
func (e *Engine) Cluster() *cluster.Cluster { return e.clu }

// Evictions returns the number of Kill calls that evicted live jobs.
func (e *Engine) Evictions() int { return e.evictions }

// WastedSlotSeconds returns machine time consumed by attempts that were
// later evicted (the paper's resource-waste numerator).
func (e *Engine) WastedSlotSeconds() float64 { return e.wastedSlotSeconds }

// Submit starts executing a job. The returned JobID can be passed to Kill.
func (e *Engine) Submit(job *Job, opts SubmitOptions) (JobID, error) {
	if err := job.Validate(); err != nil {
		return 0, err
	}
	for _, th := range opts.DropRatios {
		if th < 0 || th > 1 {
			return 0, fmt.Errorf("engine: drop ratio %g out of [0,1]", th)
		}
	}
	ex := e.newExecution(job, opts)
	ex.clean = ex.isClean()
	ex.replay = ex.clean && !replayOff && ex.replayTotals()
	if ex.replay {
		clear(ex.carries)
	}
	for si := range job.Stages {
		ex.stageStats[si].Name = job.Stages[si].Name
		ex.stageStats[si].Kind = job.Stages[si].Kind
	}
	if job.InputPath != "" && e.fs != nil {
		if blocks, err := e.fs.Blocks(job.InputPath); err == nil {
			ex.inputBlocks = blocks
		}
	}
	e.execOrder = append(e.execOrder, ex)
	e.execs[ex.id] = ex
	// Job setup (overhead stage O). Setup time shrinks with stage-0 drop,
	// matching the paper's observation that overhead depends on data size.
	theta0 := ex.drop(0)
	setup := e.cost.SetupBaseSec + float64(e.cost.SetupPerByte*float64(job.SizeBytes)*(1-theta0))
	e.afterDelay(ex, setup, ex.setupFn)
	return ex.id, nil
}

// isClean reports whether ex discards its output, keeps every partition of
// every stage and has a Compute to skip: then every stage output is the
// template's own.
func (ex *execution) isClean() bool {
	if !ex.opts.DiscardOutput {
		return false
	}
	computes := false
	for si := range ex.job.Stages {
		if n := ex.partitions(si); keepCount(n, ex.drop(si)) != n {
			return false
		}
		computes = computes || ex.job.Stages[si].Compute != nil
	}
	return computes
}

func (ex *execution) drop(stage int) float64 {
	if stage < len(ex.opts.DropRatios) {
		return ex.opts.DropRatios[stage]
	}
	return 0
}

// startReadyStages launches every not-yet-started stage whose parents are
// all done.
func (e *Engine) startReadyStages(ex *execution) {
	for si := range ex.job.Stages {
		if ex.stageStarted[si] {
			continue
		}
		ready := true
		for _, d := range ex.job.Stages[si].Deps {
			if !ex.stageDone[d] {
				ready = false
				break
			}
		}
		if ready {
			e.startStage(ex, si)
		}
	}
}

// partitions returns the number of input partitions (tasks before
// dropping) of a stage.
func (ex *execution) partitions(si int) int {
	s := &ex.job.Stages[si]
	if len(s.Deps) == 0 {
		return len(ex.job.Input)
	}
	return ex.job.Stages[s.Deps[0]].OutPartitions
}

// inputRecords returns the size of input partition p of a stage without
// materialising it: each parent contributes its bucket's length or count,
// whichever it kept.
func (ex *execution) inputRecords(si, p int) int {
	s := &ex.job.Stages[si]
	if len(s.Deps) == 0 {
		return len(ex.job.Input[p])
	}
	n := 0
	for _, d := range s.Deps {
		if ex.carries[d] {
			n += len(ex.shuffle.outputs[d][p])
		} else {
			n += ex.outCounts[d][p]
		}
	}
	return n
}

// stageInput materialises the input partitions of a stage whose parents
// all carry records. Single-parent stages alias the parent's shuffle
// output directly (tasks never mutate their inputs); only multi-parent
// stages concatenate into fresh buckets.
func (ex *execution) stageInput(si int) Dataset {
	s := &ex.job.Stages[si]
	switch len(s.Deps) {
	case 0:
		return ex.job.Input
	case 1:
		return ex.shuffle.outputs[s.Deps[0]]
	}
	buckets := ex.job.Stages[s.Deps[0]].OutPartitions
	in := make(Dataset, buckets)
	for _, d := range s.Deps {
		for b, part := range ex.shuffle.outputs[d] {
			in[b] = append(in[b], part...)
		}
	}
	return in
}

func (e *Engine) startStage(ex *execution, si int) {
	ex.stageStarted[si] = true
	ex.stageStats[si].StartedAt = e.sim.Now()
	s := &ex.job.Stages[si]
	// A Result stage nobody reads is the one stage that never looks at its
	// input records: its tasks are priced by their input counts alone.
	// A replayed execution reads none: its shuffle totals are published.
	readsInput := !ex.replay && (s.Kind == ShuffleMap || ex.carries[si])
	var in Dataset
	if readsInput {
		in = ex.stageInput(si)
	}
	n := ex.partitions(si)
	ex.tasksTotal += n
	selected := e.findMissingPartitions(n, ex.drop(si))
	ex.tasksDropped += n - len(selected)
	ex.stageStats[si].TasksDropped = n - len(selected)
	if e.tracer != nil && ex.opts.Span != 0 {
		e.tracer.StageStarted(e.sim.Now(), ex.opts.Span, si, s.Name, len(selected), n-len(selected))
	}
	ex.pendingTasks[si] = len(selected)
	switch {
	case s.Kind != ShuffleMap, ex.replay:
		// Nothing to collect: a replay's counts were copied at Submit.
	case ex.carries[si]:
		ex.openShuffleOutput(si, s.OutPartitions)
	default:
		ex.outCounts[si] = resetSlice(ex.outCounts[si], s.OutPartitions)
	}
	if len(selected) == 0 {
		e.finishStage(ex, si)
		return
	}
	ex.perRecordSec[si] = e.cost.PerRecordSec
	if s.PerRecordSec > 0 {
		ex.perRecordSec[si] = s.PerRecordSec
	}
	ex.memos[si] = nil
	if readsInput && s.Compute != nil && len(s.Deps) == 0 {
		ex.memos[si] = s.memoFor(len(ex.job.Input))
	}
	for _, p := range selected {
		if readsInput {
			ex.pending.PushBack(e.newTask(ex, si, p, in[p], len(in[p])))
		} else {
			ex.pending.PushBack(e.newTask(ex, si, p, nil, ex.inputRecords(si, p)))
		}
	}
	e.dispatch()
}

// nextExec picks the execution to serve next: the first with queued work
// in submission order (FIFO, Spark's default scheduler).
func (e *Engine) nextExec() *execution {
	for _, ex := range e.execOrder {
		if ex.pending.Len() > 0 {
			return ex
		}
	}
	return nil
}

// acquireFor picks a slot for t, preferring nodes holding the task's
// input block (data locality) and falling back to any free slot (the
// remote read is priced by taskWork).
func (e *Engine) acquireFor(t *task) (*cluster.Slot, bool) {
	if t.stage == 0 && e.fs != nil && t.partition < len(t.exec.inputBlocks) {
		b := t.exec.inputBlocks[t.partition]
		if s, ok := e.clu.AcquireMatching(func(node int) bool { return e.fs.IsLocal(b, node) }); ok {
			return s, true
		}
	}
	return e.clu.Acquire()
}

// dispatch starts queued tasks while slots are free.
func (e *Engine) dispatch() {
	for {
		ex := e.nextExec()
		if ex == nil {
			return
		}
		t := ex.pending.Front()
		slot, ok := e.acquireFor(t)
		if !ok {
			return
		}
		ex.pending.PopFront()
		e.startTask(t, slot)
	}
}

// taskWork returns the task's duration in seconds at speed 1.
func (e *Engine) taskWork(t *task) float64 {
	work := e.cost.TaskOverheadSec + float64(t.exec.perRecordSec[t.stage]*float64(t.records))
	// Stage-0 tasks backed by a dfs file pay the block fetch, priced by
	// the locality of the slot they landed on.
	if t.stage == 0 && e.fs != nil && t.partition < len(t.exec.inputBlocks) {
		work += e.fs.ReadTime(t.exec.inputBlocks[t.partition], t.slot.Node).Seconds()
	}
	if e.cost.NoiseSigma > 0 {
		work *= math.Exp(e.cost.NoiseSigma * e.rng.NormFloat64())
	}
	return work
}

func (e *Engine) startTask(t *task, slot *cluster.Slot) {
	t.slot = slot
	t.running = true
	t.startedAt = e.sim.Now()
	t.lastUpdate = e.sim.Now()
	work := e.taskWork(t)
	if e.taskFaults != nil {
		f := e.taskFaults.TaskStarted(t.exec.job.Name, t.stage, t.partition, t.attempt)
		if f.Slowdown > 1 {
			work *= f.Slowdown // injected straggler
			if e.tracer != nil && t.exec.opts.Span != 0 {
				e.tracer.TaskStraggled(e.sim.Now(), t.exec.opts.Span, t.stage, t.partition, f.Slowdown)
			}
		}
		if f.FailAfterFrac > 0 {
			// The attempt runs only to its failure point; the rest of the
			// work never happens because the attempt restarts from scratch.
			frac := min(f.FailAfterFrac, 1)
			work *= frac
			t.willFail = true
		}
	}
	t.remainingWork = work
	t.exec.launched++
	addRunning(t)
	d := simtime.Duration(t.remainingWork / e.clu.Speed())
	t.event = e.sim.After(d, t.completeFn)
}

// rescaleRunning reacts to DVFS speed changes: consumed work is credited at
// the old speed and the completion event is rescheduled in place at the
// new one (no cancel/re-schedule churn, no fresh closures). Executions and
// their running tasks are walked in deterministic launch order.
func (e *Engine) rescaleRunning(oldSpeed, newSpeed float64) {
	now := e.sim.Now()
	for _, ex := range e.execOrder {
		for _, t := range ex.running {
			elapsed := now.Sub(t.lastUpdate).Seconds()
			t.remainingWork -= float64(elapsed * oldSpeed)
			if t.remainingWork < 0 {
				t.remainingWork = 0
			}
			ex.slotSeconds += elapsed // wall occupancy of the finished segment
			t.lastUpdate = now
			e.sim.RescheduleAfter(t.event, simtime.Duration(t.remainingWork/newSpeed))
		}
	}
}

func (e *Engine) completeTask(t *task) {
	if t.willFail {
		e.failTask(t)
		return
	}
	ex := t.exec
	now := e.sim.Now()
	// Wall occupancy since the last rescale point; earlier segments were
	// accrued in rescaleRunning when lastUpdate advanced.
	ex.slotSeconds += now.Sub(t.lastUpdate).Seconds()
	t.running = false
	removeRunning(t)
	e.clu.Release(t.slot)

	duration := now.Sub(t.startedAt).Seconds()
	ex.tasksExecuted++
	ex.stageStats[t.stage].TasksExecuted++
	ex.stageTaskSecs[t.stage] += duration

	s := &ex.job.Stages[t.stage]
	switch carries := ex.carries[t.stage]; {
	case ex.replay:
		// The stage's totals are already in outCounts.
	case s.Kind == ShuffleMap && carries:
		buckets := ex.shuffle.outputs[t.stage]
		out, fresh := taskOutput(t, s)
		for _, r := range out {
			b := bucketOf(r.Key, len(buckets))
			buckets[b] = append(buckets[b], r)
		}
		if fresh {
			s.release(out)
		}
	case s.Kind == ShuffleMap:
		countOutput(t, s, ex.outCounts[t.stage])
	case carries:
		out, fresh := taskOutput(t, s)
		ex.resultOut = append(ex.resultOut, out...)
		if fresh {
			s.release(out)
		}
	default:
		// A Result stage nobody reads: its output is never computed.
	}

	stage := t.stage
	e.freeTask(t)
	ex.pendingTasks[stage]--
	if ex.pendingTasks[stage] == 0 {
		e.finishStage(ex, stage)
	}
	e.dispatch()
}

// taskOutput returns the records a finished task produced, from the
// stage's memo when this partition was computed before by any engine.
// fresh reports that Compute made them for this call and no memo keeps
// them, so they are the engine's to hand back through s.release once read.
func taskOutput(t *task, s *Stage) (out []Record, fresh bool) {
	if s.Compute == nil {
		return t.input, false
	}
	cell, e := memoEntryOf(t)
	if cell == nil {
		return s.Compute(t.input), true
	}
	if e != nil && e.hasOut {
		return e.out, false
	}
	filled := &memoEntry{data: &t.input[0], n: len(t.input), out: s.Compute(t.input), hasOut: true}
	if e != nil {
		filled.counts = e.counts
	}
	cell.Store(filled)
	return filled.out, false
}

// release hands a fresh Compute output back to the stage, if it asked.
func (s *Stage) release(out []Record) {
	if s.Release != nil {
		s.Release(out)
	}
}

// countOutput adds a finished ShuffleMap task's output to its stage's
// per-bucket record counts without keeping the records: the count-only
// form of taskOutput plus bucketing, memoized the same way.
func countOutput(t *task, s *Stage, counts []int) {
	cell, e := memoEntryOf(t)
	if cell == nil {
		out, fresh := t.input, s.Compute != nil
		if fresh {
			out = s.Compute(t.input)
		}
		for _, r := range out {
			counts[bucketOf(r.Key, len(counts))]++
		}
		if fresh {
			s.release(out)
		}
		return
	}
	if e == nil || e.counts == nil {
		filled := &memoEntry{data: &t.input[0], n: len(t.input), counts: make([]int32, len(counts))}
		var out []Record
		if e != nil {
			// The payload plane got here first: count what it kept.
			filled.out, filled.hasOut = e.out, true
			out = e.out
		} else {
			out = s.Compute(t.input)
		}
		for _, r := range out {
			filled.counts[bucketOf(r.Key, len(counts))]++
		}
		if e == nil {
			s.release(out) // the memo keeps only the counts
		}
		cell.Store(filled)
		e = filled
	}
	for b, c := range e.counts {
		counts[b] += int(c)
	}
}

// failTask aborts an attempt the fault injector doomed: the machine time
// it consumed is lost to the failure, and the task retries from scratch
// unless its attempt budget is exhausted, which fails the whole job.
func (e *Engine) failTask(t *task) {
	ex := t.exec
	now := e.sim.Now()
	ex.slotSeconds += now.Sub(t.lastUpdate).Seconds()
	lost := now.Sub(t.startedAt).Seconds()
	e.failureLostSlotSeconds += lost
	ex.failureLostSec += lost
	t.running = false
	t.willFail = false
	removeRunning(t)
	e.clu.Release(t.slot)
	t.slot = nil
	t.remainingWork = 0
	t.attempt++
	if e.maxTaskAttempts > 0 && t.attempt >= e.maxTaskAttempts {
		stage, part, attempts := t.stage, t.partition, t.attempt
		e.freeTask(t)
		e.failJob(ex, fmt.Sprintf("stage %d partition %d failed %d attempts", stage, part, attempts))
		e.dispatch()
		return
	}
	ex.retries++
	e.tasksRetried++
	if e.tracer != nil && ex.opts.Span != 0 {
		e.tracer.TaskRetried(now, ex.opts.Span, t.stage, t.partition, t.attempt)
	}
	ex.pending.PushFront(t)
	e.dispatch()
}

// failJob aborts a live job and reports it failed: running tasks stop
// (their machine time becomes failure loss, as does the work its finished
// tasks had banked), queued tasks are discarded, and the submitter's
// OnComplete receives a JobResult with Failed set.
func (e *Engine) failJob(ex *execution, reason string) {
	if ex.done {
		// The job already completed: a Validate-legal orphan ShuffleMap
		// stage (no dependents) outlived the Result stage and one of its
		// doomed attempts exhausted the budget. The attempt itself was
		// cleaned up in failTask; reporting the finished job failed — or
		// running this teardown twice — would corrupt the submitter.
		return
	}
	now := e.sim.Now()
	for _, t := range ex.running {
		e.sim.Cancel(t.event)
		ex.slotSeconds += now.Sub(t.lastUpdate).Seconds()
		lost := now.Sub(t.startedAt).Seconds()
		e.failureLostSlotSeconds += lost
		ex.failureLostSec += lost
		e.clu.Release(t.slot)
		t.running = false
		e.freeTask(t)
	}
	clear(ex.running)
	ex.running = ex.running[:0] // keep the capacity for the pooled next life
	for ex.pending.Len() > 0 {
		e.freeTask(ex.pending.PopFront())
	}
	// Everything the attempt consumed is wasted; charge the share not
	// already booked by aborted attempts to the failure as well.
	if rest := ex.slotSeconds - ex.failureLostSec; rest > 0 {
		e.failureLostSlotSeconds += rest
	}
	ex.done = true
	delete(e.execs, ex.id)
	e.removeFromOrder(ex)
	e.failedJobs++
	res := JobResult{
		JobID:         ex.id,
		Name:          ex.job.Name,
		Stages:        ex.stageStats,
		StartedAt:     ex.startedAt,
		FinishedAt:    now,
		SlotSeconds:   ex.slotSeconds,
		TasksTotal:    ex.tasksTotal,
		TasksExecuted: ex.tasksExecuted,
		TasksDropped:  ex.tasksDropped,
		TaskRetries:   ex.retries,
		Failed:        true,
		FailureReason: reason,
	}
	if ex.tasksTotal > 0 {
		res.EffectiveDropRatio = 1 - float64(ex.tasksExecuted)/float64(ex.tasksTotal)
	}
	ex.releaseShuffle() // every task was stopped above
	if ex.opts.OnComplete != nil {
		ex.opts.OnComplete(res)
	}
	e.retire(ex)
}

// finishStage fires the serial shuffle delay (stage S of the §4 model) and
// then unblocks dependent stages, or completes the job after the Result
// stage.
func (e *Engine) finishStage(ex *execution, si int) {
	if e.tracer != nil && ex.opts.Span != 0 {
		e.tracer.StageEnded(e.sim.Now(), ex.opts.Span, si)
	}
	ex.stageStats[si].EndedAt = e.sim.Now()
	if n := ex.stageStats[si].TasksExecuted; n > 0 {
		ex.stageStats[si].MeanTaskSec = ex.stageTaskSecs[si] / float64(n)
	}
	s := &ex.job.Stages[si]
	if s.Kind == Result {
		ex.stageDone[si] = true
		e.completeJob(ex)
		return
	}
	shuffled := 0
	if ex.carries[si] {
		shuffled = ex.shuffle.outputs[si].Records()
	} else {
		for _, c := range ex.outCounts[si] {
			shuffled += c
		}
	}
	if ex.clean && !ex.replay {
		ex.publishTotals(si)
	}
	delay := e.cost.ShuffleBaseSec + float64(e.cost.ShufflePerRecordSec*float64(shuffled))
	e.afterDelay(ex, delay, ex.shuffleFns[si])
}

func (e *Engine) completeJob(ex *execution) {
	ex.done = true
	delete(e.execs, ex.id)
	e.removeFromOrder(ex)
	res := JobResult{
		JobID:         ex.id,
		Name:          ex.job.Name,
		Output:        ex.resultOut,
		Stages:        ex.stageStats,
		StartedAt:     ex.startedAt,
		FinishedAt:    e.sim.Now(),
		SlotSeconds:   ex.slotSeconds,
		TasksTotal:    ex.tasksTotal,
		TasksExecuted: ex.tasksExecuted,
		TasksDropped:  ex.tasksDropped,
		TaskRetries:   ex.retries,
	}
	if ex.tasksTotal > 0 {
		res.EffectiveDropRatio = 1 - float64(ex.tasksExecuted)/float64(ex.tasksTotal)
	}
	// In-flight tasks hold direct execution pointers with unguarded
	// completion events and read their input out of the buckets, so a
	// Validate-legal degenerate DAG whose orphan ShuffleMap stage (no
	// dependents) outlives the Result stage is neither pooled nor stripped
	// of its buckets; it is abandoned to the GC as before pooling.
	recyclable := len(ex.running) == 0 && ex.pending.Len() == 0
	// The buckets go back before OnComplete, the struct after it: a
	// completion hook may submit the next job synchronously, and that
	// submission should find this job's bucket set but must not land on
	// this still-live struct — nor, later, on one a queued shuffle delay
	// of an orphan stage still points at (retire).
	if recyclable {
		ex.releaseShuffle()
	}
	if ex.opts.OnComplete != nil {
		ex.opts.OnComplete(res)
	}
	if recyclable {
		e.retire(ex)
	}
}

// Kill evicts a live job: queued tasks are discarded, running tasks are
// aborted (their consumed time becomes waste) and the attempt is returned.
// It fails if the job is not live.
func (e *Engine) Kill(id JobID) (Attempt, error) {
	ex, ok := e.execs[id]
	if !ok {
		return Attempt{}, fmt.Errorf("engine: kill job %d: not running", id)
	}
	now := e.sim.Now()
	// Abort running tasks; credit partial occupancy.
	for _, t := range ex.running {
		e.sim.Cancel(t.event)
		ex.slotSeconds += now.Sub(t.lastUpdate).Seconds()
		e.clu.Release(t.slot)
		t.running = false
		e.freeTask(t)
	}
	clear(ex.running)
	ex.running = ex.running[:0] // keep the capacity for the pooled next life
	// Discard this job's queued tasks.
	for ex.pending.Len() > 0 {
		e.freeTask(ex.pending.PopFront())
	}
	delete(e.execs, ex.id)
	e.removeFromOrder(ex)
	ex.evicted = true
	e.evictions++
	e.wastedSlotSeconds += ex.slotSeconds
	att := Attempt{
		StartedAt:     ex.startedAt,
		EndedAt:       now,
		SlotSeconds:   ex.slotSeconds,
		TasksLaunched: ex.launched,
		Evicted:       true,
	}
	ex.releaseShuffle() // every task was stopped above
	e.retire(ex)
	e.dispatch() // freed slots may admit other jobs' tasks
	return att, nil
}

// FailNode takes a worker node offline. Running tasks on its slots are
// aborted and re-queued at the front of their job's pending list for
// re-execution (Spark's task retry); the machine time they had consumed is
// lost and accounted in FailureLostSlotSeconds. Shuffle outputs survive
// failures: the simulated engine stores them driver-side, the analogue of
// Spark with a replicated external shuffle service, so only in-flight task
// work is re-executed.
func (e *Engine) FailNode(node int) error {
	if err := e.clu.FailNode(node); err != nil {
		return err
	}
	if e.tracer != nil {
		e.tracer.NodeEvent(e.sim.Now(), telemetry.KindNodeFail, node)
	}
	now := e.sim.Now()
	for _, ex := range e.execOrder {
		aborted := e.abortScratch[:0]
		for _, t := range ex.running {
			if t.slot.Node == node {
				aborted = append(aborted, t)
			}
		}
		// Re-queue in (stage, partition) order rather than launch order so
		// retry order is stable regardless of how the tasks were dispatched.
		// A partition has one copy, so the comparator is a total order and
		// the sort is deterministic.
		slices.SortFunc(aborted, func(a, b *task) int {
			if a.stage != b.stage {
				return a.stage - b.stage
			}
			return a.partition - b.partition
		})
		for _, t := range aborted {
			e.sim.Cancel(t.event)
			ex.slotSeconds += now.Sub(t.lastUpdate).Seconds()
			lost := now.Sub(t.startedAt).Seconds()
			e.failureLostSlotSeconds += lost
			ex.failureLostSec += lost
			t.running = false
			removeRunning(t)
			e.clu.Release(t.slot) // node is down: slot stays out of the pool
			t.slot = nil
			t.remainingWork = 0
			// The retry re-queries the fault injector with a bumped attempt
			// count, but node crashes never exhaust the attempt budget.
			t.attempt++
			t.willFail = false
			ex.pending.PushFront(t)
			ex.retries++
			e.tasksRetried++
			if e.tracer != nil && ex.opts.Span != 0 {
				e.tracer.TaskRetried(now, ex.opts.Span, t.stage, t.partition, t.attempt)
			}
		}
		// Keep the (possibly regrown) scratch for the next execution and
		// the next failure, dropping the task references.
		clear(aborted)
		e.abortScratch = aborted[:0]
	}
	// Remaining capacity may still admit the re-queued tasks.
	e.dispatch()
	return nil
}

// RepairNode brings a failed node back and dispatches onto its slots.
func (e *Engine) RepairNode(node int) error {
	if err := e.clu.RepairNode(node); err != nil {
		return err
	}
	if e.tracer != nil {
		e.tracer.NodeEvent(e.sim.Now(), telemetry.KindNodeRepair, node)
	}
	e.dispatch()
	return nil
}

// DecommissionNode removes a node from service for elastic scale-in. No
// task is aborted: running tasks drain gracefully and the node powers off
// when the last one releases (see cluster.Decommission).
func (e *Engine) DecommissionNode(node int) error {
	if err := e.clu.Decommission(node); err != nil {
		return err
	}
	if e.tracer != nil {
		e.tracer.NodeEvent(e.sim.Now(), telemetry.KindNodeDecommission, node)
	}
	return nil
}

// CommissionNode returns a decommissioned node to service and dispatches
// queued tasks onto its slots.
func (e *Engine) CommissionNode(node int) error {
	if err := e.clu.Commission(node); err != nil {
		return err
	}
	if e.tracer != nil {
		e.tracer.NodeEvent(e.sim.Now(), telemetry.KindNodeCommission, node)
	}
	e.dispatch()
	return nil
}

// TasksRetried returns how many task attempts were aborted by node
// failures and re-queued.
func (e *Engine) TasksRetried() int { return e.tasksRetried }

// FailureLostSlotSeconds returns machine time consumed by task attempts
// that node failures destroyed.
func (e *Engine) FailureLostSlotSeconds() float64 { return e.failureLostSlotSeconds }

// removeFromOrder drops an execution from the dispatch rotation.
func (e *Engine) removeFromOrder(ex *execution) {
	for i, cur := range e.execOrder {
		if cur == ex {
			e.execOrder = append(e.execOrder[:i], e.execOrder[i+1:]...)
			return
		}
	}
}

// bucketOf hashes a shuffle key into one of n buckets with inline FNV-1a
// (bit-identical to hash/fnv's 32-bit variant, without the hasher and
// byte-slice allocations the stdlib path pays per record).
func bucketOf(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}
