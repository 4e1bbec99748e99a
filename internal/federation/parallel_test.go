package federation_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dias/internal/admission"
	"dias/internal/analytics"
	"dias/internal/core"
	"dias/internal/dfs"
	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/telemetry"
	"dias/internal/workload"
)

// parallelRun captures every externally observable output of one
// federation run, so serial and parallel modes can be compared for
// exact equality.
type parallelRun struct {
	records  []core.JobRecord
	members  []int // record emission member, in emission order
	routed   []int
	spilled  int
	peak     int
	makespan float64
	events   string // telemetry JSONL export
	timeline string // gauge CSV export
}

// churnJobs is the payload-free job pair the kernel tests route: one
// template per class, homed on members 0 and 1.
func churnJobs() (workload.JobSource, []*engine.Job) {
	jobs := workload.FixedJobs{churnJob("low", 6), churnJob("high", 3)}
	for _, job := range jobs {
		job.InputPath = fmt.Sprintf("/data/%s", job.Name)
	}
	return jobs, jobs
}

// homedVariants serves a uniformly random data-home variant of the class
// template per arrival; index = class.
type homedVariants [][]*engine.Job

func (v homedVariants) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	return v[class][rng.Intn(len(v[class]))], nil
}

func (v homedVariants) Classes() int { return len(v) }

// homedTextJobs builds two word-popularity templates and shallow-clones
// each into one variant per member, the way the federation figure drivers
// home one template's data on every cluster: all variants of a class
// share one Stages array and one corpus.
func homedTextJobs(t *testing.T, members int) (workload.JobSource, []*engine.Job) {
	t.Helper()
	source := make(homedVariants, 2)
	var inputs []*engine.Job
	for c, name := range []string{"low", "high"} {
		cfg := workload.DefaultCorpusConfig()
		cfg.Partitions, cfg.PostsPerPartition = 6-3*c, 5
		corpus, err := workload.SynthesizeCorpus(rand.New(rand.NewSource(int64(31+c))), cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := analytics.WordPopularityJob(name, corpus, 4, 1<<28)
		for v := 0; v < members; v++ {
			clone := *base
			clone.Name = fmt.Sprintf("%s-%d", name, v)
			clone.InputPath = fmt.Sprintf("/data/%s-%d", name, v)
			source[c] = append(source[c], &clone)
		}
		// Member-major, so variant v of either class is homed on member v.
		inputs = append(inputs, source[c]...)
	}
	return source, inputs
}

// runParallelScenario runs an 8-member federation — the given routing
// policy over a data model (finite WAN lookahead), queue-depth admission
// with spill, a mid-run member outage, telemetry on — at the given
// sim-worker count. Input i is homed on member i mod 8.
func runParallelScenario(t *testing.T, simWorkers int, routing federation.RoutingPolicy, source workload.JobSource, inputs []*engine.Job) parallelRun {
	t.Helper()
	reg := telemetry.NewRegistry(telemetry.Config{GaugeIntervalSec: 40})
	col := reg.Collector("par")
	var out parallelRun
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{
			{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
			{Name: "e"}, {Name: "f"}, {Name: "g"}, {Name: "h"},
		},
		Policy:  core.PolicyNP(2),
		Routing: routing,
		Admission: func() admission.Policy {
			qd, err := admission.NewQueueDepth(admission.QueueDepthConfig{
				MaxBacklog: []int{1, 2}, Spill: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return qd
		},
		Data: &dfs.Config{},
		Seed: 7,
		OnRecord: func(member int, rec core.JobRecord) {
			out.records = append(out.records, rec)
			out.members = append(out.members, member)
		},
		DiscardRecords: true,
		Telemetry:      col,
		SimWorkers:     simWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range inputs {
		if err := fed.RegisterInput(job, i%len(fed.Members())); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.ScheduleOutage(2, 120, 200); err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.6, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitStream(mix, source, 160, 21); err != nil {
		t.Fatal(err)
	}
	fed.Run()
	out.routed = fed.Routed()
	out.spilled = fed.Spilled()
	out.peak = fed.PeakInFlight()
	out.makespan = fed.Sim().Now().Seconds()
	var ev, tl bytes.Buffer
	if err := reg.WriteEventsJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteTimelineCSV(&tl); err != nil {
		t.Fatal(err)
	}
	out.events = ev.String()
	out.timeline = tl.String()
	return out
}

// TestParallelMatchesSerial is the oracle test: the parallel kernel at
// several worker counts must reproduce the serial run exactly — every
// record field in emission order, routing and spill counts, the
// in-flight high-water mark, the final clock, and the full telemetry
// exports, byte for byte. JSQ exercises the deferred heap rebuilds
// (argmin routing over state mutated inside member windows); RoundRobin
// routes blind, so tight admission caps force Defer spills — the
// synchronous cross-member path at window boundaries.
func TestParallelMatchesSerial(t *testing.T) {
	policies := []struct {
		name       string
		make       func() federation.RoutingPolicy
		wantSpills bool
	}{
		{"jsq", func() federation.RoutingPolicy { return federation.NewJoinShortestQueue() }, false},
		{"roundrobin", func() federation.RoutingPolicy { return federation.NewRoundRobin() }, true},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			source, inputs := churnJobs()
			serial := runParallelScenario(t, 1, pol.make(), source, inputs)
			if len(serial.records) != 160 {
				t.Fatalf("serial run emitted %d records for 160 submissions", len(serial.records))
			}
			if pol.wantSpills && serial.spilled == 0 {
				t.Fatal("scenario exercises no admission spills; strengthen it")
			}
			for _, workers := range []int{2, 4, 8} {
				par := runParallelScenario(t, workers, pol.make(), source, inputs)
				if len(par.records) != len(serial.records) {
					t.Fatalf("workers=%d: %d records vs %d serial", workers, len(par.records), len(serial.records))
				}
				for i := range serial.records {
					if !reflect.DeepEqual(par.records[i], serial.records[i]) || par.members[i] != serial.members[i] {
						t.Fatalf("workers=%d: record %d diverges:\nserial: member %d %+v\nparallel: member %d %+v",
							workers, i, serial.members[i], serial.records[i], par.members[i], par.records[i])
					}
				}
				if fmt.Sprint(par.routed) != fmt.Sprint(serial.routed) {
					t.Fatalf("workers=%d: routed %v vs %v", workers, par.routed, serial.routed)
				}
				if par.spilled != serial.spilled {
					t.Fatalf("workers=%d: spilled %d vs %d", workers, par.spilled, serial.spilled)
				}
				if par.peak != serial.peak {
					t.Fatalf("workers=%d: peak in-flight %d vs %d", workers, par.peak, serial.peak)
				}
				if par.makespan != serial.makespan {
					t.Fatalf("workers=%d: makespan %v vs %v", workers, par.makespan, serial.makespan)
				}
				if par.events != serial.events {
					t.Fatalf("workers=%d: telemetry JSONL diverges from serial", workers)
				}
				if par.timeline != serial.timeline {
					t.Fatalf("workers=%d: gauge timeline diverges from serial", workers)
				}
			}
		})
	}
}

// TestParallelMatchesSerialOnSharedTemplates holds the same line where the
// count-only plane and the stage memo are live: real map and reduce
// payload, nobody reading the output, and every member executing
// shallow clones of the same two templates. The memo is per template, so
// member goroutines publish and read each other's entries through the
// shared Stages array; the run must stay identical at any worker count
// (and clean under the race lane).
func TestParallelMatchesSerialOnSharedTemplates(t *testing.T) {
	source, inputs := homedTextJobs(t, 8)
	serial := runParallelScenario(t, 1, federation.NewJoinShortestQueue(), source, inputs)
	if len(serial.records) != 160 {
		t.Fatalf("serial run emitted %d records for 160 submissions", len(serial.records))
	}
	completed := 0
	for _, rec := range serial.records {
		if !rec.Rejected && !rec.Failed {
			completed++
		}
	}
	if completed < 80 {
		t.Fatalf("only %d of 160 jobs executed; the scenario is not exercising the engine", completed)
	}
	par := runParallelScenario(t, 8, federation.NewJoinShortestQueue(), source, inputs)
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("8 sim-workers diverge from the serial run on shared templates")
	}
}

// TestParallelConfigValidation: the federation rejects malformed
// parallel configs up front with clear errors.
func TestParallelConfigValidation(t *testing.T) {
	base := func() federation.Config {
		return federation.Config{
			Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}},
			Policy:  core.PolicyNP(2),
			Routing: federation.NewJoinShortestQueue(),
		}
	}
	neg := base()
	neg.SimWorkers = -1
	if _, err := federation.New(neg); err == nil {
		t.Error("negative SimWorkers accepted")
	}
	negL := base()
	negL.SimWorkers = 4
	negL.LookaheadSec = -1
	if _, err := federation.New(negL); err == nil {
		t.Error("negative LookaheadSec accepted")
	}
	nanL := base()
	nanL.SimWorkers = 4
	nanL.LookaheadSec = math.NaN()
	if _, err := federation.New(nanL); err == nil {
		t.Error("NaN LookaheadSec accepted")
	}
}

// TestParallelStopDrainsGoroutines: aborting a parallel run mid-stream
// (the -max-sys-mb watchdog path) returns promptly with no worker
// goroutines left behind, and a rerun of a fresh federation still works.
func TestParallelStopDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var fed *federation.Federation
	var n int
	stopped := make(chan struct{})
	fed, err := federation.New(federation.Config{
		Members: []federation.MemberSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
		Policy:  core.PolicyNP(2),
		Routing: federation.NewJoinShortestQueue(),
		Seed:    3,
		OnRecord: func(int, core.JobRecord) {
			// Record replay runs on the coordinator; fed is assigned before
			// Run starts, so the capture is safe.
			n++
			if n == 40 {
				// Stop from another goroutine, as a watchdog would.
				go func() {
					fed.Stop()
					close(stopped)
				}()
			}
		},
		DiscardRecords: true,
		SimWorkers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.FixedJobs{churnJob("low", 6), churnJob("high", 3)}
	if err := fed.SubmitStream(mix, jobs, 100000, 5); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		fed.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	<-stopped
	if n >= 100000 {
		t.Fatal("Stop did not cut the run short")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
