package engine

import (
	"strings"
	"testing"
)

// scriptedFaults injects faults from a fixed table keyed by task
// coordinates: faults[stage][partition] lists the TaskFault per attempt
// (attempts beyond the list are healthy).
type scriptedFaults struct {
	faults map[[2]int][]TaskFault
	calls  int
}

func (s *scriptedFaults) TaskStarted(_ string, stage, partition, attempt int) TaskFault {
	s.calls++
	seq := s.faults[[2]int{stage, partition}]
	if attempt < len(seq) {
		return seq[attempt]
	}
	return TaskFault{}
}

// runToResult submits the job and drains the simulation, returning the
// final JobResult.
func runToResult(t *testing.T, rig *testRig, job *Job) JobResult {
	t.Helper()
	var res JobResult
	done := false
	_, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) {
		res = r
		done = true
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rig.sim.Run()
	if !done {
		t.Fatal("job did not complete")
	}
	return res
}

func TestInjectedFailureRetriesAndCompletes(t *testing.T) {
	rig := newRig(t, 2, flatCost(10))
	inj := &scriptedFaults{faults: map[[2]int][]TaskFault{
		{0, 0}: {{FailAfterFrac: 0.5}}, // first attempt dies halfway
	}}
	if err := rig.eng.SetTaskFaults(inj, 4); err != nil {
		t.Fatalf("SetTaskFaults: %v", err)
	}
	job := &Job{Name: "j", Input: makeInput(2, 0), Stages: []Stage{{Kind: Result}}}
	res := runToResult(t, rig, job)
	if res.Failed {
		t.Fatalf("job failed unexpectedly: %s", res.FailureReason)
	}
	if res.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", res.TaskRetries)
	}
	// Partition 0 pays 5 s of doomed work plus a fresh 10 s attempt; with 2
	// slots both partitions start at t=0, so the makespan is 15 s.
	if got := rig.sim.Now().Seconds(); got != 15 {
		t.Fatalf("makespan = %g, want 15", got)
	}
	if got := rig.eng.FailureLostSlotSeconds(); got != 5 {
		t.Fatalf("FailureLostSlotSeconds = %g, want 5", got)
	}
	if got := rig.eng.TasksRetried(); got != 1 {
		t.Fatalf("TasksRetried = %d, want 1", got)
	}
	if rig.clu.BusySlots() != 0 {
		t.Fatalf("slots leaked: busy = %d", rig.clu.BusySlots())
	}
}

func TestRetryExhaustionFailsJob(t *testing.T) {
	rig := newRig(t, 2, flatCost(10))
	inj := &scriptedFaults{faults: map[[2]int][]TaskFault{
		{0, 1}: {{FailAfterFrac: 0.5}, {FailAfterFrac: 0.5}, {FailAfterFrac: 0.5}},
	}}
	if err := rig.eng.SetTaskFaults(inj, 3); err != nil {
		t.Fatalf("SetTaskFaults: %v", err)
	}
	job := &Job{Name: "doomed", Input: makeInput(2, 0), Stages: []Stage{{Kind: Result}}}
	res := runToResult(t, rig, job)
	if !res.Failed {
		t.Fatal("job should have failed with retries exhausted")
	}
	if !strings.Contains(res.FailureReason, "3 attempts") {
		t.Fatalf("FailureReason = %q, want attempt count", res.FailureReason)
	}
	// Two aborted attempts were re-queued before the third exhausted the
	// budget.
	if res.TaskRetries != 2 {
		t.Fatalf("TaskRetries = %d, want 2", res.TaskRetries)
	}
	if len(res.Output) != 0 {
		t.Fatalf("failed job delivered %d output records", len(res.Output))
	}
	if got := rig.eng.FailedJobs(); got != 1 {
		t.Fatalf("FailedJobs = %d, want 1", got)
	}
	if len(rig.eng.execs) != 0 {
		t.Fatalf("failed job still live: %d active", len(rig.eng.execs))
	}
	if rig.clu.BusySlots() != 0 {
		t.Fatalf("slots leaked: busy = %d", rig.clu.BusySlots())
	}
	// All machine time of the failed job is attributed to failures: the
	// healthy partition's 10 s plus 3 x 5 s doomed attempts.
	if got := rig.eng.FailureLostSlotSeconds(); got != 25 {
		t.Fatalf("FailureLostSlotSeconds = %g, want 25", got)
	}
}

func TestInjectedStragglerSlowsAttempt(t *testing.T) {
	rig := newRig(t, 2, flatCost(10))
	inj := &scriptedFaults{faults: map[[2]int][]TaskFault{
		{0, 0}: {{Slowdown: 3}},
	}}
	if err := rig.eng.SetTaskFaults(inj, 2); err != nil {
		t.Fatalf("SetTaskFaults: %v", err)
	}
	job := &Job{Name: "slow", Input: makeInput(2, 0), Stages: []Stage{{Kind: Result}}}
	res := runToResult(t, rig, job)
	if res.Failed || res.TaskRetries != 0 {
		t.Fatalf("unexpected failure state: failed=%v retries=%d", res.Failed, res.TaskRetries)
	}
	if got := rig.sim.Now().Seconds(); got != 30 {
		t.Fatalf("makespan = %g, want 30 (3x slowdown on one 10s task)", got)
	}
	// A straggler is slow work, not lost work.
	if got := rig.eng.FailureLostSlotSeconds(); got != 0 {
		t.Fatalf("FailureLostSlotSeconds = %g, want 0", got)
	}
}

func TestNodeCrashBumpsAttemptSeenByInjector(t *testing.T) {
	rig := newRig(t, 1, flatCost(10))
	inj := &scriptedFaults{faults: map[[2]int][]TaskFault{}}
	if err := rig.eng.SetTaskFaults(inj, 2); err != nil {
		t.Fatalf("SetTaskFaults: %v", err)
	}
	job := &Job{Name: "crashy", Input: makeInput(1, 0), Stages: []Stage{{Kind: Result}}}
	// Crash the only node mid-task, repair immediately: the retry must
	// complete even though the attempt budget is 2 and one attempt is gone.
	rig.sim.After(5, func() {
		if err := rig.eng.FailNode(0); err != nil {
			t.Errorf("FailNode: %v", err)
		}
		if err := rig.eng.RepairNode(0); err != nil {
			t.Errorf("RepairNode: %v", err)
		}
	})
	res := runToResult(t, rig, job)
	if res.Failed {
		t.Fatalf("node-crash retry must not exhaust the budget: %s", res.FailureReason)
	}
	if res.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", res.TaskRetries)
	}
	// The injector saw attempt 0 then attempt 1.
	if inj.calls != 2 {
		t.Fatalf("injector calls = %d, want 2", inj.calls)
	}
}

func TestSetTaskFaultsValidation(t *testing.T) {
	rig := newRig(t, 1, flatCost(1))
	if err := rig.eng.SetTaskFaults(&scriptedFaults{}, 0); err == nil {
		t.Fatal("attempt budget 0 with an injector should fail")
	}
	if err := rig.eng.SetTaskFaults(nil, 0); err != nil {
		t.Fatalf("removing the injector should succeed: %v", err)
	}
}
