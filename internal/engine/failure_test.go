package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dias/internal/cluster"
	"dias/internal/simtime"
)

// submitWait submits a job and runs the simulation to completion, failing
// the test if the job never finishes.
func (r *testRig) submitWait(t *testing.T, job *Job, opts SubmitOptions) JobResult {
	t.Helper()
	var res JobResult
	done := false
	prev := opts.OnComplete
	opts.OnComplete = func(jr JobResult) {
		res = jr
		done = true
		if prev != nil {
			prev(jr)
		}
	}
	if _, err := r.eng.Submit(job, opts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	if !done {
		t.Fatal("job did not complete")
	}
	return res
}

func TestFailNodeReexecutesTasksAndPreservesOutput(t *testing.T) {
	rig := newRig(t, 4, flatCost(10))
	input := makeInput(8, 3)
	job := wordCountJob(input, 2)

	// Exact (failure-free) output for comparison.
	exact := newRig(t, 4, flatCost(10)).submitWait(t, job, SubmitOptions{})

	// Fail node 0 mid-first-wave, repair later.
	rig.sim.At(simtime.Time(5), func() {
		if err := rig.eng.FailNode(0); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	rig.sim.At(simtime.Time(25), func() {
		if err := rig.eng.RepairNode(0); err != nil {
			t.Errorf("repair: %v", err)
		}
	})
	res := rig.submitWait(t, job, SubmitOptions{})

	if rig.eng.TasksRetried() == 0 {
		t.Fatal("no tasks retried despite mid-wave failure")
	}
	if rig.eng.FailureLostSlotSeconds() <= 0 {
		t.Fatal("no failure-lost machine time recorded")
	}
	if got, want := len(res.Output), len(exact.Output); got != want {
		t.Fatalf("output size %d after failure, want %d", got, want)
	}
	gotCounts := map[string]float64{}
	for _, r := range res.Output {
		gotCounts[r.Key] = r.Value.(float64)
	}
	for _, r := range exact.Output {
		if gotCounts[r.Key] != r.Value.(float64) {
			t.Fatalf("key %s: %v after failure, want %v", r.Key, gotCounts[r.Key], r.Value)
		}
	}
	// Re-execution costs time: the run with a failure cannot beat the
	// failure-free one.
	if res.FinishedAt < exact.FinishedAt {
		t.Fatalf("failed run finished at %v before clean run %v", res.FinishedAt, exact.FinishedAt)
	}
}

func TestFailNodeWithoutRepairStillCompletes(t *testing.T) {
	rig := newRig(t, 4, flatCost(10))
	job := wordCountJob(makeInput(8, 3), 2)
	rig.sim.At(simtime.Time(5), func() {
		if err := rig.eng.FailNode(3); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	res := rig.submitWait(t, job, SubmitOptions{})
	if res.TasksExecuted != 8+2 {
		t.Fatalf("executed %d tasks, want 10", res.TasksExecuted)
	}
	if rig.clu.FreeSlots() != 3 {
		t.Fatalf("%d free slots at end, want 3 (one node down)", rig.clu.FreeSlots())
	}
}

func TestFailRepairValidation(t *testing.T) {
	rig := newRig(t, 2, flatCost(1))
	if err := rig.eng.FailNode(9); err == nil {
		t.Fatal("out-of-range fail accepted")
	}
	if err := rig.eng.RepairNode(0); err == nil {
		t.Fatal("repairing an up node accepted")
	}
	if err := rig.eng.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := rig.eng.FailNode(0); err == nil {
		t.Fatal("double fail accepted")
	}
	if err := rig.eng.RepairNode(0); err != nil {
		t.Fatal(err)
	}
	if err := rig.eng.RepairNode(0); err == nil {
		t.Fatal("double repair accepted")
	}
}

// churn is a test-local seeded crash/recover schedule: every node fails
// after Exp(mttf), comes back after Exp(mttr) and re-arms, until the next
// failure would land past the horizon. It drives FailNode/RepairNode
// directly, so these tests need no injection layer above the engine
// (internal/faults tests its own injector).
type churn struct {
	failures, repairs int
	downSecs          float64
}

func armChurn(t *testing.T, rig *testRig, mttf, mttr, horizon float64, seed int64) *churn {
	t.Helper()
	c := &churn{}
	rng := rand.New(rand.NewSource(seed))
	var arm func(node int)
	arm = func(node int) {
		at := rig.sim.Now().Add(simtime.Duration(rng.ExpFloat64() * mttf))
		if at.Seconds() > horizon {
			return
		}
		rig.sim.At(at, func() {
			if err := rig.eng.FailNode(node); err != nil {
				t.Errorf("fail node %d: %v", node, err)
			}
			c.failures++
			down := rng.ExpFloat64() * mttr
			c.downSecs += down
			rig.sim.After(simtime.Duration(down), func() {
				if err := rig.eng.RepairNode(node); err != nil {
					t.Errorf("repair node %d: %v", node, err)
				}
				c.repairs++
				arm(node)
			})
		})
	}
	for n := 0; n < rig.clu.Config().Nodes; n++ {
		arm(n)
	}
	return c
}

func TestSeededChurnEndToEnd(t *testing.T) {
	rig := newRig(t, 6, flatCost(5))
	inj := armChurn(t, rig, 40, 15, 400, 7)
	// A stream of jobs across the injection window.
	jobs := 0
	for i := 0; i < 12; i++ {
		job := wordCountJob(makeInput(6, 2), 2)
		at := simtime.Time(float64(i) * 30)
		rig.sim.At(at, func() {
			_, err := rig.eng.Submit(job, SubmitOptions{OnComplete: func(JobResult) { jobs++ }})
			if err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	rig.sim.Run()
	if jobs != 12 {
		t.Fatalf("%d jobs completed, want 12", jobs)
	}
	if inj.failures == 0 {
		t.Fatal("churn produced no failures over 400s at MTTF 40s x6 nodes")
	}
	if inj.repairs != inj.failures {
		t.Fatalf("%d repairs vs %d failures: repairs must always complete",
			inj.repairs, inj.failures)
	}
	if rig.clu.DownNodes() != 0 {
		t.Fatalf("%d nodes still down after drain", rig.clu.DownNodes())
	}
	if rig.clu.FreeSlots() != 6 {
		t.Fatalf("%d free slots after drain, want 6", rig.clu.FreeSlots())
	}
	if inj.downSecs <= 0 {
		t.Fatal("no downtime accumulated")
	}
	if rig.eng.ActiveJobs() != 0 {
		t.Fatalf("%d jobs still active after drain", rig.eng.ActiveJobs())
	}
}

func TestFailureDeterminism(t *testing.T) {
	run := func() (simtime.Time, int) {
		rig := newRigB(6)
		armChurn(t, rig, 30, 10, 300, 3)
		var finish simtime.Time
		for i := 0; i < 8; i++ {
			job := wordCountJob(makeInput(7, 2), 2)
			rig.sim.At(simtime.Time(float64(i)*25), func() {
				_, _ = rig.eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) {
					if r.FinishedAt > finish {
						finish = r.FinishedAt
					}
				}})
			})
		}
		rig.sim.Run()
		return finish, rig.eng.TasksRetried()
	}
	f1, r1 := run()
	f2, r2 := run()
	if f1 != f2 || r1 != r2 {
		t.Fatalf("nondeterministic failure runs: (%v,%d) vs (%v,%d)", f1, r1, f2, r2)
	}
}

// newRigB is newRig without *testing.T, for determinism comparisons that
// run outside a test helper context.
func newRigB(slots int) *testRig {
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = slots
	cfg.CoresPerNode = 1
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		panic(err)
	}
	eng, err := New(sim, clu, nil, CostModel{TaskOverheadSec: 6, NoiseSigma: 0.1}, 1)
	if err != nil {
		panic(err)
	}
	return &testRig{sim: sim, clu: clu, eng: eng}
}

func TestFailureDuringSetupDoesNotWedge(t *testing.T) {
	// Fail a node while the job is still in its setup stage (no running
	// tasks): nothing to abort, and the job proceeds on what remains.
	cost := flatCost(5)
	cost.SetupBaseSec = 20
	rig := newRig(t, 3, cost)
	job := wordCountJob(makeInput(6, 2), 2)
	rig.sim.At(simtime.Time(10), func() {
		if err := rig.eng.FailNode(1); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	res := rig.submitWait(t, job, SubmitOptions{})
	if rig.eng.TasksRetried() != 0 {
		t.Fatalf("%d retries, want 0: nothing was running", rig.eng.TasksRetried())
	}
	if res.TasksExecuted != 8 {
		t.Fatalf("executed %d, want 8", res.TasksExecuted)
	}
}

func TestFailureUnderChurnStaysConsistent(t *testing.T) {
	// Noisy tasks under node churn: failures abort running attempts, and
	// the job must still deliver every partition once.
	sim := simtime.New()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 1
	clu, err := cluster.New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sim, clu, nil, CostModel{TaskOverheadSec: 5, NoiseSigma: 0.8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := armChurn(t, &testRig{sim: sim, clu: clu, eng: eng}, 25, 8, 240, 5)
	job := wordCountJob(makeInput(10, 3), 3)
	var res JobResult
	done := false
	if _, err := eng.Submit(job, SubmitOptions{OnComplete: func(r JobResult) { res = r; done = true }}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !done {
		t.Fatal("job did not complete under failures")
	}
	if ch.failures == 0 || eng.TasksRetried() == 0 {
		t.Fatalf("%d failures, %d retries: the churn never hit the job", ch.failures, eng.TasksRetried())
	}
	// Output correctness: every input key appears exactly once.
	seen := map[string]bool{}
	for _, r := range res.Output {
		if seen[r.Key] {
			t.Fatalf("duplicate output key %s", r.Key)
		}
		seen[r.Key] = true
	}
	if len(seen) != 30 {
		t.Fatalf("%d distinct output keys, want 30", len(seen))
	}
}

func TestFailureWhileSprintingRescalesSurvivors(t *testing.T) {
	// Sprint mid-wave, then fail a node: surviving tasks keep their
	// sprinted completion times; aborted ones re-execute and the job ends
	// later than the unfailed sprinted run, never earlier.
	run := func(fail bool) simtime.Time {
		rig := newRig(t, 2, flatCost(10))
		job := wordCountJob(makeInput(4, 2), 1)
		rig.sim.At(simtime.Time(2), func() { rig.clu.SetSprinting(true) })
		if fail {
			rig.sim.At(simtime.Time(3), func() {
				if err := rig.eng.FailNode(0); err != nil {
					t.Errorf("fail: %v", err)
				}
			})
		}
		res := rig.submitWait(t, job, SubmitOptions{})
		return res.FinishedAt
	}
	clean := run(false)
	faulty := run(true)
	if faulty <= clean {
		t.Fatalf("faulty sprinted run at %v not after clean %v", faulty, clean)
	}
}

// Property: any interleaving of failures and repairs leaves slot accounting
// consistent — busy + free + down-idle slots equals the total, and no slot
// of a down node is ever handed out.
func TestPropertyFailureSlotAccounting(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		sim := simtime.New()
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 4
		cfg.CoresPerNode = 2
		clu, err := cluster.New(sim, cfg)
		if err != nil {
			return false
		}
		down := map[int]bool{}
		var held []*cluster.Slot
		for _, op := range ops {
			node := int(op>>2) % 4
			switch op % 4 {
			case 0: // fail
				if !down[node] {
					if err := clu.FailNode(node); err != nil {
						return false
					}
					down[node] = true
					// Release any held slots of that node (what the
					// engine's FailNode does for running tasks).
					kept := held[:0]
					for _, s := range held {
						if s.Node == node {
							clu.Release(s)
						} else {
							kept = append(kept, s)
						}
					}
					held = kept
				}
			case 1: // repair
				if down[node] {
					if err := clu.RepairNode(node); err != nil {
						return false
					}
					down[node] = false
				}
			case 2: // acquire
				if s, ok := clu.Acquire(); ok {
					if down[s.Node] {
						return false // handed out a down-node slot
					}
					held = append(held, s)
				}
			case 3: // release one held slot
				if len(held) > 0 {
					clu.Release(held[len(held)-1])
					held = held[:len(held)-1]
				}
			}
			downIdle := 0
			for n, d := range down {
				if d {
					downIdle += cfg.CoresPerNode
					// Held slots on down nodes were released above, so all
					// of a down node's slots are idle-but-unavailable.
					_ = n
				}
			}
			if clu.BusySlots()+clu.FreeSlots()+downIdle != cfg.Nodes*cfg.CoresPerNode {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
