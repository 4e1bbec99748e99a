package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dias/internal/core/live"
)

// TestRunDrainsCleanly smoke-tests the demo's full shutdown path in both
// modes — submit, drain, Stop: no goroutine or child-process leak can keep
// run from returning — on sleeps of tens of milliseconds. The preemptive
// run must evict the low-priority job for the high-priority burst, and the
// non-preemptive one must not.
func TestRunDrainsCleanly(t *testing.T) {
	for _, preemptive := range []bool{true, false} {
		var out bytes.Buffer
		if err := run(&out, preemptive, 10*time.Millisecond); err != nil {
			t.Fatalf("run(preemptive=%v): %v", preemptive, err)
		}
		evictions := -1
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "low-batch ") {
				if _, err := fmt.Sscanf(line, "low-batch class=0 evictions=%d", &evictions); err != nil {
					t.Fatalf("run(preemptive=%v): unreadable line %q: %v", preemptive, line, err)
				}
			}
		}
		switch {
		case evictions < 0:
			t.Fatalf("run(preemptive=%v) reported no low-batch completion:\n%s", preemptive, out.String())
		case preemptive && evictions < 1:
			t.Errorf("preemptive run: low-batch evictions=%d, want at least 1:\n%s", evictions, out.String())
		case !preemptive && evictions != 0:
			t.Errorf("non-preemptive run: low-batch evictions=%d, want 0:\n%s", evictions, out.String())
		}
		if !strings.HasSuffix(out.String(), "all jobs drained\n") {
			t.Errorf("run(preemptive=%v) did not report the drain:\n%s", preemptive, out.String())
		}
	}
}

// TestRunnerConfigValidation pins the live.Config contract the demo relies
// on: class counts must be positive and jobs must name a class in range
// with a non-empty command path.
func TestRunnerConfigValidation(t *testing.T) {
	if _, err := live.NewRunner(live.Config{}); err == nil {
		t.Fatal("zero-class config accepted")
	}
	if _, err := live.NewRunner(live.Config{Classes: -1}); err == nil {
		t.Fatal("negative class count accepted")
	}
	r, err := live.NewRunner(live.Config{Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Submit(live.Job{Name: "bad-class", Class: 2, Path: "/bin/true"}); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if err := r.Submit(live.Job{Name: "no-path", Class: 0}); err == nil {
		t.Fatal("empty command path accepted")
	}
}
