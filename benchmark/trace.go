package main

// The traced repetition. Spans are recorded from this package's own
// wrappers around the layer entry points a run passes through — every
// non-nil Stage.Compute of a cloned template, the routing policy, the
// arrival process, the job source and the record sink — never from inside
// the program under test. One run makes over a million calls, so a span
// is kept as an aggregate per (layer.op): count, sum, max and a 64-bucket
// log2 histogram of durations, written out when the run ends.

import (
	"encoding/json"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"dias/internal/engine"
	"dias/internal/federation"
	"dias/internal/workload"
)

// Span names; parents form run → setup | drive → <layer.op>.
const (
	spanRun     = "run"
	spanSetup   = "setup"
	spanDrive   = "drive"
	spanCompute = "analytics.compute"
	spanRoute   = "federation.route"
	spanNext    = "workload.next"
	spanJob     = "workload.job"
	spanAdd     = "metrics.add"
	spanFig     = "experiments.fig."
)

// span aggregates every call through one boundary.
type span struct {
	name, parent string
	count        uint64
	sumNs        int64
	maxNs        int64
	// hist[i] counts calls that took [2^(i-1), 2^i) ns.
	hist [64]uint64
}

func (s *span) add(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s.count++
	s.sumNs += ns
	if ns > s.maxNs {
		s.maxNs = ns
	}
	b := bits.Len64(uint64(ns))
	if b > 63 {
		b = 63
	}
	s.hist[b]++
}

func (s *span) seconds() float64 { return float64(s.sumNs) / 1e9 }

// tracer owns the spans and the counts taken at the same boundaries.
type tracer struct {
	spans map[string]*span
	order []string
	// recordsIn/recordsOut count records through wrapped Compute calls;
	// stage0Calls counts the calls that reached an input-reading stage
	// (the engine's memo serves the rest).
	recordsIn, recordsOut, stage0Calls uint64
}

func newTracer() *tracer {
	t := &tracer{spans: make(map[string]*span)}
	t.span(spanRun, "")
	t.span(spanSetup, spanRun)
	t.span(spanDrive, spanRun)
	return t
}

// span returns the aggregate for name, creating it under parent.
func (t *tracer) span(name, parent string) *span {
	if s, ok := t.spans[name]; ok {
		return s
	}
	s := &span{name: name, parent: parent}
	t.spans[name] = s
	t.order = append(t.order, name)
	return s
}

// busy returns a span's summed duration in seconds (0 when never hit).
func (t *tracer) busy(name string) float64 {
	if s, ok := t.spans[name]; ok {
		return s.seconds()
	}
	return 0
}

func (t *tracer) calls(name string) uint64 {
	if s, ok := t.spans[name]; ok {
		return s.count
	}
	return 0
}

// selfSeconds is a span's duration minus what its direct children cover.
func (t *tracer) selfSeconds(name string) float64 {
	self := t.busy(name)
	for _, s := range t.spans {
		if s.parent == name {
			self -= s.seconds()
		}
	}
	return self
}

// wrapTemplates clones every template (sharing input data, copying the
// stage slice) and times each non-nil Compute. The engine memoizes per
// *Job, so one template gets one clone however many classes share it.
func (t *tracer) wrapTemplates(classes [][]*engine.Job) [][]*engine.Job {
	sp := t.span(spanCompute, spanDrive)
	out := make([][]*engine.Job, len(classes))
	cloned := make(map[*engine.Job]*engine.Job)
	for k, variants := range classes {
		out[k] = make([]*engine.Job, len(variants))
		for v, job := range variants {
			if c, ok := cloned[job]; ok {
				out[k][v] = c
				continue
			}
			clone := *job
			clone.Stages = append([]engine.Stage(nil), job.Stages...)
			for si := range clone.Stages {
				inner := clone.Stages[si].Compute
				if inner == nil {
					continue
				}
				inputStage := len(clone.Stages[si].Deps) == 0
				clone.Stages[si].Compute = func(in []engine.Record) []engine.Record {
					start := time.Now()
					res := inner(in)
					sp.add(time.Since(start))
					t.recordsIn += uint64(len(in))
					t.recordsOut += uint64(len(res))
					if inputStage {
						t.stage0Calls++
					}
					return res
				}
			}
			cloned[job] = &clone
			out[k][v] = &clone
		}
	}
	return out
}

type tracedRouting struct {
	inner federation.RoutingPolicy
	sp    *span
}

func (r tracedRouting) Name() string { return r.inner.Name() }

func (r tracedRouting) Route(arr federation.Arrival, members []*federation.Member) int {
	start := time.Now()
	i := r.inner.Route(arr, members)
	r.sp.add(time.Since(start))
	return i
}

func (t *tracer) routing(p federation.RoutingPolicy) federation.RoutingPolicy {
	return tracedRouting{inner: p, sp: t.span(spanRoute, spanDrive)}
}

type tracedProcess struct {
	inner workload.Process
	sp    *span
}

func (p tracedProcess) Next(rng *rand.Rand) (float64, int) {
	start := time.Now()
	gap, class := p.inner.Next(rng)
	p.sp.add(time.Since(start))
	return gap, class
}

func (t *tracer) process(p workload.Process) workload.Process {
	return tracedProcess{inner: p, sp: t.span(spanNext, spanDrive)}
}

type tracedSource struct {
	inner workload.JobSource
	sp    *span
}

func (s tracedSource) Classes() int { return s.inner.Classes() }

func (s tracedSource) Job(rng *rand.Rand, class int) (*engine.Job, error) {
	start := time.Now()
	job, err := s.inner.Job(rng, class)
	s.sp.add(time.Since(start))
	return job, err
}

func (t *tracer) source(s workload.JobSource) workload.JobSource {
	return tracedSource{inner: s, sp: t.span(spanJob, spanDrive)}
}

// spanJSON is the on-disk form of one span.
type spanJSON struct {
	Name      string   `json:"name"`
	Parent    string   `json:"parent,omitempty"`
	Count     uint64   `json:"count"`
	SumSec    float64  `json:"sum_s"`
	SelfSec   float64  `json:"self_s"`
	MaxSec    float64  `json:"max_s"`
	HistLog2N []uint64 `json:"hist_log2_ns"`
}

// write dumps the spans and counters to dir/trace-<workload>.json.
func (t *tracer) write(dir, workloadName string, stamp envStamp, counters map[string]float64) error {
	doc := struct {
		Workload string             `json:"workload"`
		Env      envStamp           `json:"env"`
		Spans    []spanJSON         `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{Workload: workloadName, Env: stamp, Counters: counters}
	for _, name := range t.order {
		s := t.spans[name]
		last := len(s.hist)
		for last > 0 && s.hist[last-1] == 0 {
			last--
		}
		doc.Spans = append(doc.Spans, spanJSON{
			Name: s.name, Parent: s.parent, Count: s.count,
			SumSec: s.seconds(), SelfSec: t.selfSeconds(name), MaxSec: float64(s.maxNs) / 1e9,
			HistLog2N: append([]uint64(nil), s.hist[:last]...),
		})
	}
	return writeJSON(filepath.Join(dir, "trace-"+workloadName+".json"), doc)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runtimeProbe brackets the traced drive with Go runtime readings: GC CPU
// time, cycles and pauses as deltas, and the live-heap high-water mark
// sampled on a ticker (the runtime only updates it at each GC mark).
type runtimeProbe struct {
	samples  []metrics.Sample
	gcCPU0   float64
	cycles0  uint64
	pauseNs0 uint64
	peakLive uint64
	stop     chan struct{}
	wg       sync.WaitGroup
}

const (
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmHeapLive = "/gc/heap/live:bytes"
)

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{
		samples: []metrics.Sample{{Name: rmGCCPU}, {Name: rmGCCycles}, {Name: rmHeapLive}},
		stop:    make(chan struct{}),
	}
	metrics.Read(p.samples)
	p.gcCPU0 = p.samples[0].Value.Float64()
	p.cycles0 = p.samples[1].Value.Uint64()
	p.pauseNs0 = readPauseTotalNs()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		live := []metrics.Sample{{Name: rmHeapLive}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				metrics.Read(live)
				if v := live[0].Value.Uint64(); v > p.peakLive {
					p.peakLive = v
				}
			}
		}
	}()
	return p
}

// finish stops the sampler, waits for it and returns the deltas.
func (p *runtimeProbe) finish() (gcCPUSec float64, cycles uint64, pauseMs, peakLiveMiB float64) {
	close(p.stop)
	p.wg.Wait()
	metrics.Read(p.samples)
	if v := p.samples[2].Value.Uint64(); v > p.peakLive {
		p.peakLive = v
	}
	return p.samples[0].Value.Float64() - p.gcCPU0,
		p.samples[1].Value.Uint64() - p.cycles0,
		float64(readPauseTotalNs()-p.pauseNs0) / 1e6,
		float64(p.peakLive) / (1 << 20)
}
