package core

import (
	"math"
	"testing"
	"testing/quick"

	"dias/internal/simtime"
	"dias/internal/telemetry"
)

func validAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		TargetResponseSec: []float64{50, 0},
		MaxTheta:          []float64{0.4, 0},
		Window:            4,
		Step:              0.05,
		Hysteresis:        0.7,
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	sim := simtime.New()
	mutations := map[string]func(*AdaptiveConfig){
		"noClasses":    func(c *AdaptiveConfig) { c.TargetResponseSec = nil },
		"ceilMismatch": func(c *AdaptiveConfig) { c.MaxTheta = []float64{0.4} },
		"negTarget":    func(c *AdaptiveConfig) { c.TargetResponseSec[0] = -1 },
		"ceilTooBig":   func(c *AdaptiveConfig) { c.MaxTheta[0] = 1 },
		"badWindow":    func(c *AdaptiveConfig) { c.Window = 0 },
		"badStep":      func(c *AdaptiveConfig) { c.Step = 0 },
		"bigStep":      func(c *AdaptiveConfig) { c.Step = 1 },
		"badHyst":      func(c *AdaptiveConfig) { c.Hysteresis = 0 },
		"initAboveCeil": func(c *AdaptiveConfig) {
			c.InitialTheta = []float64{0.5, 0}
		},
	}
	for name, mutate := range mutations {
		cfg := validAdaptiveConfig()
		mutate(&cfg)
		if _, err := NewAdaptiveDeflator(sim, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewAdaptiveDeflator(nil, validAdaptiveConfig()); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewAdaptiveDeflator(sim, validAdaptiveConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func feed(d *AdaptiveDeflator, class, n int, resp float64) {
	for i := 0; i < n; i++ {
		d.Observe(JobRecord{Class: class, ResponseSec: resp})
	}
}

func TestAdaptiveRaisesThetaWhenOverTarget(t *testing.T) {
	d, err := NewAdaptiveDeflator(simtime.New(), validAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DropRatios(0); got != nil {
		t.Fatalf("initial drops %v, want nil", got)
	}
	feed(d, 0, 4, 100) // one window, 2x over the 50s target
	if got := d.Theta(0); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("theta %g after one over-target window, want 0.05", got)
	}
	// Keep overloading: theta must climb but clamp at the 0.4 ceiling.
	for i := 0; i < 20; i++ {
		feed(d, 0, 4, 100)
	}
	if got := d.Theta(0); got != 0.4 {
		t.Fatalf("theta %g after sustained overload, want ceiling 0.4", got)
	}
	drops := d.DropRatios(0)
	if len(drops) != 1 || drops[0] != 0.4 {
		t.Fatalf("drops %v, want [0.4]", drops)
	}
}

func TestAdaptiveLowersThetaWithHysteresis(t *testing.T) {
	cfg := validAdaptiveConfig()
	cfg.InitialTheta = []float64{0.2, 0}
	d, err := NewAdaptiveDeflator(simtime.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// In the hysteresis band (0.7*50=35 .. 50): no change.
	feed(d, 0, 4, 40)
	if got := d.Theta(0); got != 0.2 {
		t.Fatalf("theta %g inside hysteresis band, want unchanged 0.2", got)
	}
	// Well below: step down, flooring at 0.
	for i := 0; i < 10; i++ {
		feed(d, 0, 4, 10)
	}
	if got := d.Theta(0); got != 0 {
		t.Fatalf("theta %g after sustained underload, want 0", got)
	}
}

func TestAdaptiveIgnoresUncontrolledClasses(t *testing.T) {
	d, err := NewAdaptiveDeflator(simtime.New(), validAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(d, 1, 50, 1e6) // class 1 has target 0: uncontrolled
	if got := d.Theta(1); got != 0 {
		t.Fatalf("uncontrolled class moved to %g", got)
	}
	d.Observe(JobRecord{Class: 7, ResponseSec: 1}) // out of range: ignored
	if len(d.History()) != 0 {
		t.Fatal("history recorded for ignored observations")
	}
}

func TestAdaptiveHistoryRecordsDecisions(t *testing.T) {
	sim := simtime.New()
	d, err := NewAdaptiveDeflator(sim, validAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(d, 0, 4, 100)
	h := d.History()
	if len(h) != 1 {
		t.Fatalf("%d history entries, want 1", len(h))
	}
	if h[0].Class != 0 || h[0].Theta != 0.05 || h[0].WindowAvg != 100 {
		t.Fatalf("history %+v", h[0])
	}
	// History is a copy.
	h[0].Theta = 99
	if d.History()[0].Theta == 99 {
		t.Fatal("History returns shared storage")
	}
}

// Property: theta always stays within [0, MaxTheta] for any observation
// stream.
func TestPropertyAdaptiveThetaBounds(t *testing.T) {
	f := func(responses []float64) bool {
		cfg := AdaptiveConfig{
			TargetResponseSec: []float64{30},
			MaxTheta:          []float64{0.35},
			Window:            2,
			Step:              0.1,
			Hysteresis:        0.8,
		}
		d, err := NewAdaptiveDeflator(simtime.New(), cfg)
		if err != nil {
			return false
		}
		for _, r := range responses {
			d.Observe(JobRecord{Class: 0, ResponseSec: math.Abs(r)})
			th := d.Theta(0)
			if th < 0 || th > 0.35+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Integration: an overloaded low class with a latency target makes the
// scheduler shed load until responses meet the target, and the effective
// drop ratios recorded on completions reflect the controller's theta.
func TestAdaptiveDeflatorEndToEnd(t *testing.T) {
	// Low-class jobs of 20 tasks on 5 slots = 4 waves x 1s = 4s execution,
	// arriving every 3.2s: the queue builds and responses blow past the
	// 25s target, so the controller must deflate.
	run := func(adaptive bool) (*rig, *AdaptiveDeflator) {
		r := newRig(t, 5, 1, Config{Classes: 2})
		var ctl *AdaptiveDeflator
		if adaptive {
			var err error
			ctl, err = NewAdaptiveDeflator(r.sim, AdaptiveConfig{
				TargetResponseSec: []float64{25, 0},
				MaxTheta:          []float64{0.5, 0},
				Window:            3,
				Step:              0.1,
				Hysteresis:        0.7,
			})
			if err != nil {
				t.Fatal(err)
			}
			var errNew error
			r.sch, errNew = New(r.sim, r.clu, r.eng, Config{Classes: 2, Deflator: ctl})
			if errNew != nil {
				t.Fatal(errNew)
			}
		}
		for i := 0; i < 60; i++ {
			job := simpleJob("low", 20)
			at := simtime.Time(float64(i) * 3.2)
			r.sim.At(at, func() {
				if err := r.sch.Arrive(0, job); err != nil {
					t.Errorf("arrive: %v", err)
				}
			})
		}
		r.sim.Run()
		return r, ctl
	}

	r, ctl := run(true)
	if got := ctl.Theta(0); got == 0 {
		t.Fatal("controller never raised theta under overload")
	}
	recs := r.sch.Records()
	if len(recs) != 60 {
		t.Fatalf("%d records, want 60", len(recs))
	}
	var lateDropped int
	for _, rec := range recs[40:] {
		if rec.EffectiveDropRatio > 0 {
			lateDropped++
		}
	}
	if lateDropped == 0 {
		t.Fatal("no late jobs were deflated")
	}
	if len(ctl.History()) == 0 {
		t.Fatal("controller made no recorded decisions")
	}

	// Steady-state responses must be pulled toward the target compared to
	// an uncontrolled NP run of the same stream.
	base, _ := run(false)
	tailMean := func(rs []JobRecord) float64 {
		var sum float64
		for _, rec := range rs[40:] {
			sum += rec.ResponseSec
		}
		return sum / float64(len(rs[40:]))
	}
	ctlMean, unctlMean := tailMean(recs), tailMean(base.sch.Records())
	if ctlMean >= unctlMean {
		t.Fatalf("controlled tail mean %.1fs not below uncontrolled %.1fs", ctlMean, unctlMean)
	}
}

func TestAdaptiveComposesWithSprinting(t *testing.T) {
	// The controller and the sprinter are independent knobs: run both at
	// once and check that low-priority jobs get deflated while the
	// sprinter still fires for high-priority jobs.
	r := newRig(t, 4, 1, Config{Classes: 2})
	ctl, err := NewAdaptiveDeflator(r.sim, AdaptiveConfig{
		TargetResponseSec: []float64{20, 0},
		MaxTheta:          []float64{0.4, 0},
		Window:            2,
		Step:              0.1,
		Hysteresis:        0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(telemetry.Config{})
	r.sch, err = New(r.sim, r.clu, r.eng, Config{
		Classes:  2,
		Deflator: ctl,
		Tracer:   col.Member(0),
		Sprint: &SprintPolicy{
			TimeoutSec:     []float64{-1, 0}, // sprint high class immediately
			BudgetJoules:   1e6,
			DrainWatts:     900,
			ReplenishWatts: 90,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overloaded low class plus occasional high arrivals.
	for i := 0; i < 30; i++ {
		job := simpleJob("low", 16)
		at := simtime.Time(float64(i) * 3)
		r.sim.At(at, func() {
			if err := r.sch.Arrive(0, job); err != nil {
				t.Errorf("arrive low: %v", err)
			}
		})
	}
	for i := 0; i < 5; i++ {
		job := simpleJob("high", 8)
		at := simtime.Time(10 + float64(i)*20)
		r.sim.At(at, func() {
			if err := r.sch.Arrive(1, job); err != nil {
				t.Errorf("arrive high: %v", err)
			}
		})
	}
	r.sim.Run()
	if ctl.Theta(0) == 0 {
		t.Error("controller never deflated the overloaded low class")
	}
	// A sprint start carries no class: the sprinted job is the one
	// dispatched last before it.
	starts, lastDispatched := 0, -1
	for _, e := range col.Events() {
		switch e.Kind {
		case telemetry.KindDispatch:
			lastDispatched = e.Class
		case telemetry.KindSprintStart:
			starts++
			if lastDispatched != 1 {
				t.Errorf("sprint started for class %d", lastDispatched)
			}
		}
	}
	if starts == 0 {
		t.Error("sprinter never fired for high-priority jobs")
	}
	if got := len(r.sch.Records()); got != 35 {
		t.Fatalf("%d records, want 35", got)
	}
}

func TestPolicyDiASConstructor(t *testing.T) {
	sprint := SprintPolicy{
		TimeoutSec:     []float64{-1, 65},
		BudgetJoules:   22000,
		DrainWatts:     900,
		ReplenishWatts: 90,
	}
	cfg := PolicyDiAS([]float64{0.2, 0}, sprint)
	if err := cfg.validate(); err != nil {
		t.Fatalf("PolicyDiAS invalid: %v", err)
	}
	if cfg.Preemptive {
		t.Fatal("DiAS must be non-preemptive")
	}
	if cfg.Sprint == nil || cfg.Sprint.TimeoutSec[1] != 65 {
		t.Fatalf("sprint policy not carried: %+v", cfg.Sprint)
	}
	if len(cfg.DropRatios[0]) != 1 || cfg.DropRatios[0][0] != 0.2 || cfg.DropRatios[1] != nil {
		t.Fatalf("drop ratios %+v", cfg.DropRatios)
	}
	// Sprinting() reports false when idle.
	r := newRig(t, 2, 1, cfg)
	if r.sch.Sprinting() {
		t.Fatal("fresh scheduler reports sprinting")
	}
}

func TestConfigRejectsBothDropSourcesAndAllowsDeflator(t *testing.T) {
	sim := simtime.New()
	d, err := NewAdaptiveDeflator(sim, validAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := Config{Classes: 2, DropRatios: [][]float64{{0.1}, nil}, Deflator: d}
	if err := bad.validate(); err == nil {
		t.Fatal("both DropRatios and Deflator accepted")
	}
	ok := Config{Classes: 2, Deflator: d}
	if err := ok.validate(); err != nil {
		t.Fatalf("deflator-only config rejected: %v", err)
	}
}
