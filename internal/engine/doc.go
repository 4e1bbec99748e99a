// Package engine implements the Spark-like dataflow processing engine the
// paper extends (§2.4, §3.3): jobs are DAGs of stages over partitioned
// datasets, each stage runs one task per partition, tasks execute on the
// cluster's computing slots in waves, and ShuffleMap stages hash their
// output into the next stage's input partitions.
//
// Task dropping is wired in exactly where the paper patches Spark: the
// scheduler asks FindMissingPartitions for the partitions of a stage to
// compute, and with a drop ratio θ only ⌈n(1-θ)⌉ of n are returned (§3.3,
// "Dropper"). Eviction (for the preemptive baseline) kills a job mid-
// flight and accounts the consumed machine time as waste.
//
// # Hot path
//
// Task dispatch is allocation-free in steady state. Task structs are
// pooled on an engine-wide freelist, each carrying a completion closure
// bound once at allocation; per-job pending queues are ring-buffer deques
// (no slice reallocation on push-front failure retries); DVFS speed changes reschedule in-flight completion events in
// place via simtime.RescheduleAfter instead of cancelling and re-closing
// them; and shuffle bucketing hashes keys with an inline FNV-1a. The
// shuffle buckets of an execution are one set that is zeroed and handed on
// when the job ends — before OnComplete, through a process-wide pool — so
// the next job of any engine fills arrays that are already grown and no
// finished job's records stay reachable.
//
// The rest of a job's lifecycle is allocation-free too. Only its
// JobResult.Stages is allocated, because that slice escapes to the
// submitter. An execution struct carries its setup-delay callback and one
// shuffle-delay callback per stage index, bound once like a task's
// completion closure. The engine reads a dfs file's block list without
// copying it. startStage resolves a stage's per-record cost and input memo
// once, onto the execution.
//
// Delay events are never cancelled. When a job is killed or fails, or
// completes while an orphan ShuffleMap stage's shuffle delay is still
// queued, that event fires at its original instant as a no-op. Cancelling
// it would change the run's final clock whenever it is the last event. The
// execution counts its queued delay events and goes back to the freelist
// only after the last of them has fired. So no later submission, not even
// one made synchronously from OnComplete, runs on a struct that a stale
// event still refers to.
//
// In-flight tasks are tracked per execution in a launch-ordered slice, so
// rescaling — and therefore whole simulations — is deterministic per seed
// with no map-iteration randomness.
//
// # What a stage carries
//
// Simulated time depends on how many records a task reads and a shuffle
// moves, never on what they contain. A stage therefore carries records
// only when its contents have a reader — a ShuffleMap consumer, or the
// Result stage of a submission that keeps JobResult.Output — and
// per-bucket record counts otherwise (SubmitOptions.DiscardOutput is the
// one fact the submitter supplies; the rest follows from the DAG). Both
// planes yield the same counts, so every duration, RNG draw and StageStat
// is identical; the count-only plane just skips the bucket appends, the
// Result-stage Compute and the output concatenation.
//
// # Output memoization
//
// TaskFunc implementations must be pure, deterministic transforms. The
// engine exploits this: outputs of input-reading stages — whose task
// inputs are a template's own stable partitions — are memoized on the
// Stage itself, one entry per input partition, as records or as per-bucket
// counts depending on the plane. The memo lives and dies with the
// template's Stages array, so every Job that shares the array (shallow
// clones, workload.SubJob truncations) on every engine and goroutine
// computes each partition once, from the first submission on; nothing is
// retained per engine or per process. The engine never writes into a
// memoized output, so a Compute that returns its own input makes the memo
// entry an alias of the template's partition rather than a copy.
//
// # Replaying clean executions
//
// An execution is clean when it discards its output, keeps every
// partition of every stage (⌈n(1-θ)⌉ = n, the Dropper's own rule) and its
// template has a Compute. Every stage of a clean execution then runs over
// the template's own records, so its output is fixed by the template: in
// Spark's terms each partition is a deterministic function of its
// lineage. Its tasks still see their inputs in the order upstream tasks
// completed, which depends on simulated timing, so a TaskFunc must also
// put the same number of records in each bucket whatever the order of its
// input (the analytics stages are held to this by a test that permutes
// their inputs).
//
// A clean execution publishes each ShuffleMap stage's per-bucket output
// totals on the Stage when the stage finishes, keyed by the job's input
// (its first partition's address and its partition count, one entry per
// count), under the memo's owner-and-atomic rules. Once every ShuffleMap
// stage of a template holds totals for an input, a clean execution over
// it replays them: it copies them into its count buffers at Submit,
// carries nothing, opens no shuffle buffer and calls no Compute; its tasks
// are priced from the same record counts, so every event, RNG draw and
// StageStat is what recomputing would give.
//
// # Handing outputs back
//
// A Compute may draw its output arrays from a pool of its own if its
// Stage sets Release. The engine calls Release exactly once for each
// output it got fresh from Compute and keeps in no memo, right after its
// last read: after the bucket loop of a carrying ShuffleMap task, after
// the append to the Result output, and after the count-only plane has
// counted it. It never calls Release for an output a memo keeps, an output
// served from a memo, or a nil Compute, so a stage whose Compute returns
// its input or a shared immutable slice simply leaves Release nil. A
// replayed execution calls neither Compute nor Release. Records
// are copied into buckets and the result by value, so a released array may
// be cleared and reused at once; key storage a record points into is not
// released with it.
// Simulated task durations are priced by the cost model from input sizes,
// so memoization changes no timing, only removes redundant host-CPU work.
package engine
