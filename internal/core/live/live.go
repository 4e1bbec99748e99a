// Package live reimplements the DiAS prototype's process-level runtime
// exactly as §3.3 describes it: a dispatcher thread that launches each
// dispatched job as an OS process via os/exec (building a Cmd and calling
// Start), a monitor that collects the exit status via Wait and relays
// completion to the dispatcher over a channel, and eviction by sending
// SIGKILL through cmd.Process.Kill().
//
// The simulated scheduler in package core is used for experiments; this
// package demonstrates the same deflator design against real processes
// (cmd/dias-live drives it).
package live

import (
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"time"
)

// Job is one command to execute as a priority job.
type Job struct {
	// Name labels the job in records.
	Name string
	// Class is the priority class (higher = higher priority).
	Class int
	// Path and Args form the command line.
	Path string
	Args []string
}

// Record is the outcome of one job.
type Record struct {
	Name        string
	Class       int
	SubmittedAt time.Time
	FinishedAt  time.Time
	// Evictions counts SIGKILL preemptions before the successful run.
	Evictions int
	// Err is the final run's error (nil on success).
	Err error
}

// queued is a job waiting in a buffer.
type queued struct {
	job         Job
	submittedAt time.Time
	evictions   int
}

// running couples a queued job with its live process.
type running struct {
	*queued
	cmd     *exec.Cmd
	evicted bool
}

type doneMsg struct {
	run *running
	err error
}

// Config configures a Runner.
type Config struct {
	// Classes is the number of priority buffers.
	Classes int
	// Preemptive evicts the running job (SIGKILL) when a higher-priority
	// job arrives, re-executing it later from scratch, like the paper's P
	// baseline. Non-preemptive is the DiAS mode.
	Preemptive bool
	// OnComplete, if set, is invoked from the dispatcher goroutine for
	// every completed job.
	OnComplete func(Record)
}

// Runner is the live deflator: priority buffers plus dispatcher/monitor
// goroutines.
type Runner struct {
	cfg Config

	submitCh chan *queued
	doneCh   chan doneMsg
	stopCh   chan struct{}
	stopped  chan struct{}

	// jobs tracks outstanding (submitted, not completed) jobs so Wait can
	// block until the system drains.
	jobs sync.WaitGroup
}

// NewRunner builds and starts a runner; callers must Stop it.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("live: %d classes", cfg.Classes)
	}
	r := &Runner{
		cfg:      cfg,
		submitCh: make(chan *queued),
		doneCh:   make(chan doneMsg),
		stopCh:   make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	go r.dispatcher()
	return r, nil
}

// Submit enqueues a job. It returns an error after Stop.
func (r *Runner) Submit(job Job) error {
	if job.Class < 0 || job.Class >= r.cfg.Classes {
		return fmt.Errorf("live: class %d out of [0,%d)", job.Class, r.cfg.Classes)
	}
	if job.Path == "" {
		return errors.New("live: empty command path")
	}
	q := &queued{job: job, submittedAt: time.Now()}
	r.jobs.Add(1)
	select {
	case r.submitCh <- q:
		return nil
	case <-r.stopped:
		r.jobs.Done()
		return errors.New("live: runner stopped")
	}
}

// Wait blocks until every submitted job has completed.
func (r *Runner) Wait() { r.jobs.Wait() }

// Stop terminates the dispatcher, killing any running job. Pending queued
// jobs are discarded (their Wait slots released).
func (r *Runner) Stop() {
	select {
	case <-r.stopped:
		return
	default:
	}
	close(r.stopCh)
	<-r.stopped
}

// dispatcher is the single goroutine owning scheduler state, exactly the
// paper's dispatcher thread: it selects which job to run, launches it, and
// reacts to completions relayed by monitor goroutines.
func (r *Runner) dispatcher() {
	defer close(r.stopped)
	buffers := make([][]*queued, r.cfg.Classes)
	var current *running

	dispatchNext := func() {
		if current != nil {
			return
		}
		for k := r.cfg.Classes - 1; k >= 0; k-- {
			if len(buffers[k]) == 0 {
				continue
			}
			q := buffers[k][0]
			buffers[k] = buffers[k][1:]
			// Build the cmd structure and launch with Start() (§3.3).
			cmd := exec.Command(q.job.Path, q.job.Args...)
			run := &running{queued: q, cmd: cmd}
			if err := cmd.Start(); err != nil {
				r.complete(q, err)
				continue
			}
			current = run
			// Monitor thread: surveil the job, collect its exit status via
			// Wait() and relay completion/eviction over a channel (§3.3).
			go func() {
				err := cmd.Wait()
				select {
				case r.doneCh <- doneMsg{run: run, err: err}:
				case <-r.stopCh:
				}
			}()
			return
		}
	}

	for {
		select {
		case q := <-r.submitCh:
			buffers[q.job.Class] = append(buffers[q.job.Class], q)
			if current != nil && r.cfg.Preemptive && q.job.Class > current.job.Class {
				// Evict with SIGKILL via cmd.Process.Kill() (§3.3); the
				// monitor's Wait() relays the exit, where we requeue.
				current.evicted = true
				_ = current.cmd.Process.Kill()
			}
			dispatchNext()
		case d := <-r.doneCh:
			if d.run.evicted {
				// Back to the head of its buffer for re-execution.
				d.run.evictions++
				d.run.evicted = false
				buffers[d.run.job.Class] = append([]*queued{d.run.queued}, buffers[d.run.job.Class]...)
			} else {
				r.complete(d.run.queued, d.err)
			}
			if current == d.run {
				current = nil
			}
			dispatchNext()
		case <-r.stopCh:
			if current != nil {
				// The monitor goroutine reaps the process via its own
				// Wait(); with stopCh closed it exits without relaying.
				_ = current.cmd.Process.Kill()
				r.jobs.Done()
			}
			for _, b := range buffers {
				for range b {
					r.jobs.Done()
				}
			}
			return
		}
	}
}

// complete records a finished job and releases its Wait slot.
func (r *Runner) complete(q *queued, err error) {
	rec := Record{
		Name:        q.job.Name,
		Class:       q.job.Class,
		SubmittedAt: q.submittedAt,
		FinishedAt:  time.Now(),
		Evictions:   q.evictions,
		Err:         err,
	}
	if r.cfg.OnComplete != nil {
		r.cfg.OnComplete(rec)
	}
	r.jobs.Done()
}
