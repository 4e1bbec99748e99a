package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dias/internal/telemetry"
)

// TestTelemetryOffInvariance is the zero-perturbation contract: arming
// the telemetry layer must not change a single figure number. The gauge
// sampler interleaves with the event loop instead of scheduling events,
// and every tracer hook is observational, so the traced run's results
// must be deeply equal to the untraced run's — makespan and energy
// included, which would drift first if gauge ticks advanced the clock.
func TestTelemetryOffInvariance(t *testing.T) {
	scale := faultScale()
	plain, err := FaultTolerance(scale)
	if err != nil {
		t.Fatal(err)
	}
	traced := scale
	traced.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	got, err := FaultTolerance(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("tracing changed the figure:\nplain:\n%s\ntraced:\n%s", plain, got)
	}
	// The run must actually have been traced: spans, events and gauges.
	names := traced.Telemetry.Names()
	if len(names) == 0 {
		t.Fatal("traced run registered no collectors")
	}
	for _, n := range names {
		c := traced.Telemetry.Get(n)
		if c.SeenJobs() == 0 {
			t.Fatalf("collector %q saw no jobs", n)
		}
		if len(c.Events()) == 0 {
			t.Fatalf("collector %q retained no events", n)
		}
		if c.Timeline() == nil || c.Timeline().Len() == 0 {
			t.Fatalf("collector %q has no gauge samples", n)
		}
	}
}

// TestTelemetryFederationOffInvariance covers the federation path, where
// telemetry additionally hooks routing decisions and per-member gauges.
func TestTelemetryFederationOffInvariance(t *testing.T) {
	scale := fedScale()
	plain, err := FederationOutage(scale)
	if err != nil {
		t.Fatal(err)
	}
	traced := scale
	traced.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	got, err := FederationOutage(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatalf("tracing changed the federation figure:\nplain:\n%s\ntraced:\n%s", plain, got)
	}
	if len(traced.Telemetry.Names()) == 0 {
		t.Fatal("traced run registered no collectors")
	}
}

// TestTelemetryExportWorkerCountInvariance pins the export determinism
// the determinism CI lane enforces end to end: the three export files
// must be byte-identical whether the figure grid ran on one worker or
// eight. Collector seeds derive from run names (not arrival order) and
// every export iterates runs in sorted order, so worker scheduling has
// nothing to perturb. Figure 11 runs its limited- and unlimited-budget
// DiAS scenarios under the same names in one grid, the case where two
// concurrent runs once shared (and raced on) one collector.
func TestTelemetryExportWorkerCountInvariance(t *testing.T) {
	figures := []struct {
		name string
		run  func(Scale) error
	}{
		{"faults", func(sc Scale) error { _, err := FaultTolerance(sc); return err }},
		{"11", func(sc Scale) error { _, err := Figure11(sc); return err }},
	}
	for _, fig := range figures {
		exports := func(workers int) (trace, events, timeline []byte) {
			scale := faultScale()
			scale.Workers = workers
			scale.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
			if err := fig.run(scale); err != nil {
				t.Fatal(err)
			}
			var tb, eb, lb bytes.Buffer
			if err := scale.Telemetry.WriteChromeTrace(&tb); err != nil {
				t.Fatal(err)
			}
			if err := scale.Telemetry.WriteEventsJSONL(&eb); err != nil {
				t.Fatal(err)
			}
			if err := scale.Telemetry.WriteTimelineCSV(&lb); err != nil {
				t.Fatal(err)
			}
			return tb.Bytes(), eb.Bytes(), lb.Bytes()
		}
		t1, e1, l1 := exports(1)
		t8, e8, l8 := exports(8)
		if !bytes.Equal(t1, t8) {
			t.Errorf("%s: Chrome trace differs between 1 and 8 workers", fig.name)
		}
		if !bytes.Equal(e1, e8) {
			t.Errorf("%s: event JSONL differs between 1 and 8 workers", fig.name)
		}
		if !bytes.Equal(l1, l8) {
			t.Errorf("%s: gauge timeline differs between 1 and 8 workers", fig.name)
		}
	}
	// A grid whose runs would share a collector is refused before fan-out.
	scale := faultScale()
	scale.Telemetry = telemetry.NewRegistry(telemetry.Config{Seed: scale.Seed})
	twin := scenario{name: "twin", scale: scale}
	if _, err := runScenarios([]scenario{twin, twin}); err == nil || !strings.Contains(err.Error(), "share the telemetry collector") {
		t.Errorf("two runs sharing one collector: err = %v", err)
	}
}
