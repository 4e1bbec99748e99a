package live

import (
	"sync"
	"testing"
	"time"
)

// recorder collects completion records through Config.OnComplete, which
// runs on the runner's goroutines.
type recorder struct {
	mu   sync.Mutex
	recs []Record
}

func (rc *recorder) add(rec Record) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.recs = append(rc.recs, rec)
}

func (rc *recorder) records() []Record {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]Record(nil), rc.recs...)
}

func sleepJob(name string, class int, dur string) Job {
	return Job{Name: name, Class: class, Path: "/bin/sh", Args: []string{"-c", "sleep " + dur}}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{Classes: 0}); err == nil {
		t.Fatal("zero classes accepted")
	}
	r, err := NewRunner(Config{Classes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(Job{Name: "bad", Class: 5, Path: "/bin/true"}); err == nil {
		t.Fatal("class out of range accepted")
	}
	if err := r.Submit(Job{Name: "bad", Class: 0}); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestRunsJobsFCFS(t *testing.T) {
	var rc recorder
	r, err := NewRunner(Config{Classes: 1, OnComplete: rc.add})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	for _, name := range []string{"a", "b", "c"} {
		if err := r.Submit(sleepJob(name, 0, "0.01")); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	recs := rc.records()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	for i, want := range []string{"a", "b", "c"} {
		if recs[i].Name != want {
			t.Fatalf("order = %v", recs)
		}
		if recs[i].Err != nil {
			t.Fatalf("job %s failed: %v", want, recs[i].Err)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Non-preemptive: while low runs, submit low2 then high; high must
	// complete before low2.
	var rc recorder
	r, err := NewRunner(Config{Classes: 2, OnComplete: rc.add})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(sleepJob("low1", 0, "0.15")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := r.Submit(sleepJob("low2", 0, "0.01")); err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(sleepJob("high", 1, "0.01")); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	recs := rc.records()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Name != "low1" || recs[1].Name != "high" || recs[2].Name != "low2" {
		t.Fatalf("order = %s, %s, %s", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	if recs[0].Evictions != 0 {
		t.Fatal("non-preemptive run evicted a job")
	}
}

func TestPreemptiveEviction(t *testing.T) {
	var rc recorder
	r, err := NewRunner(Config{Classes: 2, Preemptive: true, OnComplete: rc.add})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(sleepJob("low", 0, "0.5")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := r.Submit(sleepJob("high", 1, "0.02")); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	recs := rc.records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Name != "high" {
		t.Fatalf("first completion = %s, want high", recs[0].Name)
	}
	// High must not have waited for low's full 0.5 s sleep.
	if waited := recs[0].FinishedAt.Sub(start); waited > 300*time.Millisecond {
		t.Fatalf("high waited %v; eviction did not happen", waited)
	}
	if recs[1].Name != "low" || recs[1].Evictions != 1 {
		t.Fatalf("low record = %+v", recs[1])
	}
	if recs[1].Err != nil {
		t.Fatalf("re-executed low failed: %v", recs[1].Err)
	}
}

func TestCompletionCallback(t *testing.T) {
	got := make(chan Record, 1)
	r, err := NewRunner(Config{Classes: 1, OnComplete: func(rec Record) { got <- rec }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(sleepJob("cb", 0, "0.01")); err != nil {
		t.Fatal(err)
	}
	select {
	case rec := <-got:
		if rec.Name != "cb" {
			t.Fatalf("callback record %+v", rec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callback never fired")
	}
}

func TestFailedCommandRecorded(t *testing.T) {
	var rc recorder
	r, err := NewRunner(Config{Classes: 1, OnComplete: rc.add})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(Job{Name: "boom", Class: 0, Path: "/bin/sh", Args: []string{"-c", "exit 3"}}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	recs := rc.records()
	if len(recs) != 1 || recs[0].Err == nil {
		t.Fatalf("records = %+v", recs)
	}
}

func TestStartFailureRecorded(t *testing.T) {
	var rc recorder
	r, err := NewRunner(Config{Classes: 1, OnComplete: rc.add})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(Job{Name: "missing", Class: 0, Path: "/no/such/binary"}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	recs := rc.records()
	if len(recs) != 1 || recs[0].Err == nil {
		t.Fatalf("records = %+v", recs)
	}
}

func TestStopKillsRunning(t *testing.T) {
	r, err := NewRunner(Config{Classes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(sleepJob("long", 0, "10")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop did not return; running job not killed")
	}
	// Idempotent.
	r.Stop()
	if err := r.Submit(sleepJob("late", 0, "0.01")); err == nil {
		t.Fatal("submit after stop accepted")
	}
}

func TestStopReleasesQueuedWaiters(t *testing.T) {
	r, err := NewRunner(Config{Classes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(sleepJob("running", 0, "5")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := r.Submit(sleepJob("queued", 0, "0.01")); err != nil {
		t.Fatal(err)
	}
	waited := make(chan struct{})
	go func() {
		r.Wait()
		close(waited)
	}()
	r.Stop()
	select {
	case <-waited:
	case <-time.After(3 * time.Second):
		t.Fatal("Wait hung after Stop")
	}
}
