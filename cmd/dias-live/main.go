// dias-live demonstrates the §3.3 prototype runtime against real OS
// processes: jobs are commands launched with os/exec, evicted with SIGKILL
// under the preemptive baseline, and completion is relayed from monitor to
// dispatcher over a channel.
//
//	dias-live            # preemptive demo with /bin/sh sleep jobs
//	dias-live -np        # non-preemptive (DiAS-style, no evictions)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dias/internal/core/live"
)

func main() {
	np := flag.Bool("np", false, "non-preemptive (no evictions)")
	flag.Parse()
	if err := run(os.Stdout, !*np, 100*time.Millisecond); err != nil {
		fmt.Fprintln(os.Stderr, "dias-live:", err)
		os.Exit(1)
	}
}

// run drives the demo and reports to out. Every duration is a multiple of
// unit: the low-priority job sleeps 20 units, the high-priority ones 2
// units each, and they arrive 3 units after it.
func run(out io.Writer, preemptive bool, unit time.Duration) error {
	runner, err := live.NewRunner(live.Config{
		Classes:    2,
		Preemptive: preemptive,
		OnComplete: func(rec live.Record) {
			status := "ok"
			if rec.Err != nil {
				status = rec.Err.Error()
			}
			fmt.Fprintf(out, "%-10s class=%d evictions=%d latency=%v status=%s\n",
				rec.Name, rec.Class, rec.Evictions,
				rec.FinishedAt.Sub(rec.SubmittedAt).Round(time.Millisecond), status)
		},
	})
	if err != nil {
		return err
	}
	defer runner.Stop()

	// Install the handler before the first Submit so no window exists in
	// which a SIGTERM could terminate the demo around runner.Stop and leak
	// an already-started child.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	mode := "preemptive (P baseline: low-priority jobs get SIGKILLed)"
	if !preemptive {
		mode = "non-preemptive (DiAS mode: no evictions)"
	}
	fmt.Fprintln(out, "dias-live:", mode)

	sleep := func(name string, class int, units time.Duration) live.Job {
		dur := fmt.Sprintf("%g", (units * unit).Seconds())
		return live.Job{Name: name, Class: class, Path: "/bin/sh", Args: []string{"-c", "sleep " + dur}}
	}
	// A long low-priority job, then a burst of high-priority ones.
	if err := runner.Submit(sleep("low-batch", 0, 20)); err != nil {
		return err
	}
	time.Sleep(3 * unit)
	for i := 0; i < 3; i++ {
		if err := runner.Submit(sleep(fmt.Sprintf("high-%d", i), 1, 2)); err != nil {
			return err
		}
	}

	// Propagate shutdown cleanly on every path: a drain finishes normally,
	// while Ctrl-C / SIGTERM stops the runner (SIGKILLing the live job,
	// discarding queued ones) so no child processes outlive the demo.
	done := make(chan struct{})
	go func() {
		runner.Wait()
		close(done)
	}()
	select {
	case <-done:
		fmt.Fprintln(out, "all jobs drained")
		return nil
	case sig := <-sigCh:
		runner.Stop()
		return fmt.Errorf("interrupted by %v; live job killed, queue discarded", sig)
	}
}
