package admission

import (
	"testing"

	"dias/internal/simtime"
)

// fakeState is a canned scheduler view.
type fakeState struct {
	backlog []int
	busy    bool
}

func (s fakeState) Backlog(class int) int {
	if class < 0 || class >= len(s.backlog) {
		return 0
	}
	return s.backlog[class]
}

func (s fakeState) QueuedJobsInClass(class int) int { return s.Backlog(class) }
func (s fakeState) Busy() bool                      { return s.busy }

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{Accept: "accept", Reject: "reject", Defer: "defer"} {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q", d, got)
		}
	}
	if got := Decision(99).String(); got != "decision(99)" {
		t.Errorf("unknown decision = %q", got)
	}
}

func TestAlwaysAdmit(t *testing.T) {
	p := AlwaysAdmit{}
	if p.Name() != "always" {
		t.Errorf("name = %q", p.Name())
	}
	if d := p.Admit(0, JobInfo{Class: 0}, fakeState{backlog: []int{1 << 20}}); d != Accept {
		t.Errorf("decision = %v", d)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	cases := []TokenBucketConfig{
		{},
		{Rate: []float64{1}, Burst: []float64{1, 1}},
		{Rate: []float64{0}, Burst: []float64{1}},
		{Rate: []float64{-1}, Burst: []float64{1}},
		{Rate: []float64{1}, Burst: []float64{0.5}},
	}
	for i, cfg := range cases {
		if _, err := NewTokenBucket(cfg); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

func TestTokenBucketRateAndBurst(t *testing.T) {
	tb, err := NewTokenBucket(TokenBucketConfig{Rate: []float64{1}, Burst: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	st := fakeState{}
	job := JobInfo{Class: 0}
	// Starts full: the burst passes, the next arrival at t=0 is shed.
	if d := tb.Admit(0, job, st); d != Accept {
		t.Fatalf("burst 1: %v", d)
	}
	if d := tb.Admit(0, job, st); d != Accept {
		t.Fatalf("burst 2: %v", d)
	}
	if d := tb.Admit(0, job, st); d != Reject {
		t.Fatalf("empty bucket: %v", d)
	}
	// 1 token/sec: half a second refills half a token (still shed), a
	// full second refills enough for one.
	if d := tb.Admit(simtime.Time(0.5), job, st); d != Reject {
		t.Fatalf("t=0.5: %v", d)
	}
	if d := tb.Admit(simtime.Time(1.5), job, st); d != Accept {
		t.Fatalf("t=1.5: %v", d)
	}
	// Refill caps at the burst: a long idle stretch buys 2 tokens, not 10.
	for i, want := range []Decision{Accept, Accept, Reject} {
		if d := tb.Admit(simtime.Time(100), job, st); d != want {
			t.Fatalf("after idle, arrival %d: %v", i, d)
		}
	}
	// Out-of-range classes are shed, not admitted silently.
	if d := tb.Admit(simtime.Time(100), JobInfo{Class: 5}, st); d != Reject {
		t.Errorf("out-of-range class: %v", d)
	}
}

func TestTokenBucketSpill(t *testing.T) {
	tb, err := NewTokenBucket(TokenBucketConfig{Rate: []float64{1}, Burst: []float64{1}, Spill: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := tb.Admit(0, JobInfo{}, fakeState{}); d != Accept {
		t.Fatalf("first: %v", d)
	}
	if d := tb.Admit(0, JobInfo{}, fakeState{}); d != Defer {
		t.Fatalf("empty bucket with spill: %v", d)
	}
}

func TestTokenBucketPerClassIsolation(t *testing.T) {
	tb, err := NewTokenBucket(TokenBucketConfig{Rate: []float64{1, 1}, Burst: []float64{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	st := fakeState{}
	if d := tb.Admit(0, JobInfo{Class: 0}, st); d != Accept {
		t.Fatal("class 0 first arrival shed")
	}
	if d := tb.Admit(0, JobInfo{Class: 0}, st); d != Reject {
		t.Fatal("class 0 over budget admitted")
	}
	// Class 1's bucket is untouched by class 0's exhaustion.
	for i := 0; i < 5; i++ {
		if d := tb.Admit(0, JobInfo{Class: 1}, st); d != Accept {
			t.Fatalf("class 1 arrival %d shed", i)
		}
	}
}

func TestQueueDepth(t *testing.T) {
	if _, err := NewQueueDepth(QueueDepthConfig{}); err == nil {
		t.Error("empty thresholds accepted")
	}
	if _, err := NewQueueDepth(QueueDepthConfig{MaxBacklog: []int{0}}); err == nil {
		t.Error("zero threshold accepted")
	}
	qd, err := NewQueueDepth(QueueDepthConfig{MaxBacklog: []int{3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if qd.Name() != "queue-depth" {
		t.Errorf("name = %q", qd.Name())
	}
	cases := []struct {
		class   int
		backlog []int
		want    Decision
	}{
		{0, []int{2, 1}, Accept},
		{0, []int{3, 1}, Reject},
		{1, []int{9, 1}, Accept},
		{1, []int{9, 2}, Reject},
		{7, []int{0, 0}, Reject}, // out of range
	}
	for i, c := range cases {
		if d := qd.Admit(0, JobInfo{Class: c.class}, fakeState{backlog: c.backlog}); d != c.want {
			t.Errorf("case %d: %v, want %v", i, d, c.want)
		}
	}
	spill, err := NewQueueDepth(QueueDepthConfig{MaxBacklog: []int{1}, Spill: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := spill.Admit(0, JobInfo{}, fakeState{backlog: []int{5}}); d != Defer {
		t.Errorf("spill mode: %v", d)
	}
}

func TestSLOBudgetValidation(t *testing.T) {
	cases := []SLOBudgetConfig{
		{},
		{BudgetSec: []float64{-1}},
		{BudgetSec: []float64{1}, Quantile: 1.5},
		{BudgetSec: []float64{1}, MinObservations: -1},
	}
	for i, cfg := range cases {
		if _, err := NewSLOBudget(cfg); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
}

func TestSLOBudgetLearnsAndSheds(t *testing.T) {
	s, err := NewSLOBudget(SLOBudgetConfig{BudgetSec: []float64{25, 0}, MinObservations: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := JobInfo{Class: 0}
	deep := fakeState{backlog: []int{100, 0}}
	// Cold predictor: admit unconditionally, whatever the backlog.
	if d := s.Admit(0, job, deep); d != Accept {
		t.Fatalf("cold: %v", d)
	}
	for i := 0; i < 10; i++ {
		s.Observe(0, 10, 12) // 10s service times
	}
	// Backlog 2 predicts ~20s < 25s budget; backlog 3 predicts ~30s > it.
	if d := s.Admit(0, job, fakeState{backlog: []int{2, 0}}); d != Accept {
		t.Errorf("within budget: %v", d)
	}
	if d := s.Admit(0, job, fakeState{backlog: []int{3, 0}}); d != Reject {
		t.Errorf("over budget: %v", d)
	}
	// A zero budget disables the SLO for that class.
	if d := s.Admit(0, JobInfo{Class: 1}, fakeState{backlog: []int{0, 1000}}); d != Accept {
		t.Errorf("zero budget: %v", d)
	}
	// Out-of-range classes are shed.
	if d := s.Admit(0, JobInfo{Class: 9}, deep); d != Reject {
		t.Errorf("out of range: %v", d)
	}
}

func TestSLOBudgetSpill(t *testing.T) {
	s, err := NewSLOBudget(SLOBudgetConfig{BudgetSec: []float64{1}, MinObservations: 1, Spill: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(0, 10, 10)
	if d := s.Admit(0, JobInfo{}, fakeState{backlog: []int{5}}); d != Defer {
		t.Errorf("spill mode: %v", d)
	}
}
