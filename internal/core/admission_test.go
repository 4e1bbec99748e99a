package core

import (
	"reflect"
	"strconv"
	"testing"

	"dias/internal/admission"
	"dias/internal/simtime"
	"dias/internal/telemetry"
)

// deferAll always answers Defer — the policy a federation spills on; on a
// bare scheduler Arrive must degrade it to a rejection.
type deferAll struct{}

func (deferAll) Name() string { return "defer-all" }
func (deferAll) Admit(simtime.Time, admission.JobInfo, admission.State) admission.Decision {
	return admission.Defer
}

// countingLearner records the completions the scheduler feeds back.
type countingLearner struct {
	admission.Policy
	observed int
}

func (c *countingLearner) Observe(int, float64, float64) { c.observed++ }

// submitBurst schedules n one-partition jobs of the class at one-second
// spacing starting at t=0.
func submitBurst(r *rig, class, n int) {
	for i := 0; i < n; i++ {
		job := simpleJob("j"+strconv.Itoa(i), 1)
		at := simtime.Time(float64(i))
		r.sim.At(at, func() { _ = r.sch.Arrive(class, job) })
	}
}

// TestAdmissionConservation is the core-layer conservation invariant:
// every submitted job produces exactly one record, and each record is
// exactly one of completed, failed or rejected.
func TestAdmissionConservation(t *testing.T) {
	qd, err := admission.NewQueueDepth(admission.QueueDepthConfig{MaxBacklog: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PolicyNP(1)
	cfg.Admission = qd
	// 10-second tasks at one-second arrivals: the backlog cap bites fast.
	r := newRig(t, 1, 10, cfg)
	const n = 20
	submitBurst(r, 0, n)
	r.sim.Run()
	recs := r.sch.Records()
	if len(recs) != n {
		t.Fatalf("%d records for %d submissions", len(recs), n)
	}
	var completed, rejected int
	for _, rec := range recs {
		switch {
		case rec.Rejected && rec.Failed:
			t.Fatalf("job %s both rejected and failed", rec.Name)
		case rec.Rejected:
			rejected++
			if rec.ResponseSec != 0 || rec.QueueSec != 0 || rec.ExecSec != 0 {
				t.Errorf("rejected %s has latencies %g/%g/%g", rec.Name, rec.ResponseSec, rec.QueueSec, rec.ExecSec)
			}
			if rec.ArrivedAt != rec.FinishedAt {
				t.Errorf("rejected %s spans %v..%v", rec.Name, rec.ArrivedAt, rec.FinishedAt)
			}
		default:
			completed++
		}
	}
	if rejected == 0 {
		t.Fatal("backlog cap never rejected — test is not exercising admission")
	}
	if completed+rejected != n {
		t.Fatalf("completed %d + rejected %d != %d", completed, rejected, n)
	}
	if got := r.sch.RejectedJobs(); got != rejected {
		t.Errorf("RejectedJobs() = %d, want %d", got, rejected)
	}
	if got := r.sch.RejectedJobsInClass(0); got != rejected {
		t.Errorf("RejectedJobsInClass(0) = %d, want %d", got, rejected)
	}
}

// TestNilAdmissionMatchesAlwaysAdmit backs the facade's compatibility
// claim: a nil admission policy and AlwaysAdmit produce identical records.
func TestNilAdmissionMatchesAlwaysAdmit(t *testing.T) {
	run := func(p admission.Policy) []JobRecord {
		cfg := PolicyNP(2)
		cfg.Admission = p
		r := newRig(t, 2, 5, cfg)
		submitBurst(r, 0, 8)
		r.sim.At(3, func() { _ = r.sch.Arrive(1, simpleJob("high", 2)) })
		r.sim.Run()
		return r.sch.Records()
	}
	if !reflect.DeepEqual(run(nil), run(admission.AlwaysAdmit{})) {
		t.Fatal("records differ between nil admission and AlwaysAdmit")
	}
}

// TestDeferDegradesToReject: Arrive has nowhere to re-route, so a Defer
// verdict must shed the job (with a record), not drop or buffer it.
func TestDeferDegradesToReject(t *testing.T) {
	cfg := PolicyNP(1)
	cfg.Admission = deferAll{}
	col := telemetry.NewCollector(telemetry.Config{})
	cfg.Tracer = col.Member(0)
	r := newRig(t, 1, 10, cfg)
	submitBurst(r, 0, 3)
	r.sim.Run()
	recs := r.sch.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	for _, rec := range recs {
		if !rec.Rejected {
			t.Errorf("job %s not rejected", rec.Name)
		}
	}
	byKind := map[telemetry.Kind]int{}
	for _, e := range col.Events() {
		byKind[e.Kind]++
	}
	if got := byKind[telemetry.KindReject]; got != 3 {
		t.Errorf("%d reject trace events", got)
	}
	if got := byKind[telemetry.KindSubmit]; got != 0 {
		t.Errorf("%d arrival trace events for fully-shed stream", got)
	}
}

// TestOfferDeferLeavesNoTrace: a Defer answered to Offer is the caller's
// to resolve — the scheduler must not have recorded or buffered anything.
func TestOfferDeferLeavesNoTrace(t *testing.T) {
	cfg := PolicyNP(1)
	cfg.Admission = deferAll{}
	r := newRig(t, 1, 10, cfg)
	r.sim.At(0, func() {
		dec, err := r.sch.Offer(0, simpleJob("j", 1))
		if err != nil {
			t.Error(err)
		}
		if dec != admission.Defer {
			t.Errorf("decision = %v", dec)
		}
	})
	r.sim.Run()
	if got := len(r.sch.Records()); got != 0 {
		t.Errorf("%d records after deferred Offer", got)
	}
	if got := r.sch.QueuedJobs(); got != 0 {
		t.Errorf("%d queued after deferred Offer", got)
	}
}

// TestAdmissionLearnerFeed: completions (and only completions) reach a
// policy implementing admission.Learner.
func TestAdmissionLearnerFeed(t *testing.T) {
	cl := &countingLearner{Policy: admission.AlwaysAdmit{}}
	cfg := PolicyNP(1)
	cfg.Admission = cl
	r := newRig(t, 1, 5, cfg)
	submitBurst(r, 0, 4)
	r.sim.Run()
	if cl.observed != 4 {
		t.Fatalf("learner observed %d of 4 completions", cl.observed)
	}
}

// TestSchedulerBacklogView: the admission.State view the scheduler exposes
// matches the federation's Backlog semantics (jobs of class >= k plus the
// running job).
func TestSchedulerBacklogView(t *testing.T) {
	r := newRig(t, 1, 100, PolicyNP(2))
	r.sim.At(0, func() { _ = r.sch.Arrive(0, simpleJob("running", 1)) })
	r.sim.At(1, func() { _ = r.sch.Arrive(0, simpleJob("low-q", 1)) })
	r.sim.At(2, func() { _ = r.sch.Arrive(1, simpleJob("high-q", 1)) })
	r.sim.At(3, func() {
		// Buffered: one low, one high; running: one.
		if got := r.sch.Backlog(0); got != 3 {
			t.Errorf("Backlog(0) = %d, want 3", got)
		}
		if got := r.sch.Backlog(1); got != 2 {
			t.Errorf("Backlog(1) = %d, want 2 (high-q + running)", got)
		}
		if !r.sch.Busy() {
			t.Error("Busy() = false with a job in the engine")
		}
	})
	r.sim.Run()
}
