package engine

import "fmt"

// TaskFault is the injected behaviour of one task attempt, decided at
// launch by a TaskFaultInjector. The zero value is a healthy attempt.
type TaskFault struct {
	// Slowdown stretches the attempt's duration when > 1 (an injected
	// straggler); values <= 1 leave it unchanged.
	Slowdown float64
	// FailAfterFrac, in (0,1], aborts the attempt after that fraction of
	// its (possibly slowed) duration: the consumed machine time is lost
	// and the task retries from scratch. Zero means the attempt succeeds.
	FailAfterFrac float64
}

// TaskFaultInjector decides each task attempt's fate at launch time. It is
// called in simulation context, in deterministic event order, with the
// job's name, the task coordinates and how many prior attempts aborted —
// enough to drive seeded per-task failure probabilities and stragglers
// (see internal/faults).
type TaskFaultInjector interface {
	TaskStarted(job string, stage, partition, attempt int) TaskFault
}

// SetTaskFaults installs a task-level fault injector consulted at every
// attempt launch, with a per-task attempt budget: an injected failure at
// or beyond maxAttempts attempts fails the whole job (reported through
// JobResult.Failed rather than an error). maxAttempts must be >= 1 when an
// injector is set; retries caused by node crashes bump the attempt count
// the injector sees but never exhaust the budget on their own. Passing a
// nil injector removes fault injection.
func (e *Engine) SetTaskFaults(inj TaskFaultInjector, maxAttempts int) error {
	if inj != nil && maxAttempts < 1 {
		return fmt.Errorf("engine: task-fault attempt budget %d", maxAttempts)
	}
	e.taskFaults = inj
	e.maxTaskAttempts = maxAttempts
	return nil
}

// FailedJobs returns the number of jobs aborted with retries exhausted.
func (e *Engine) FailedJobs() int { return e.failedJobs }
