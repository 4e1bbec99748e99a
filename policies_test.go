package dias_test

import (
	"strings"
	"testing"

	"dias"
	"dias/internal/admission"
	"dias/internal/core"
	"dias/internal/simtime"
	"dias/internal/workload"
)

// TestRegistriesConstructibleByName: every policy of every family builds
// from its registry name and one options value.
func TestRegistriesConstructibleByName(t *testing.T) {
	routing := dias.RoutingPolicies()
	for _, name := range routing.Names() {
		p, err := routing.New(name, dias.RoutingOptions{Seed: 1})
		if err != nil {
			t.Errorf("routing %q: %v", name, err)
		} else if p == nil {
			t.Errorf("routing %q: nil policy", name)
		}
	}

	admOpts := dias.AdmissionOptions{
		Rate:       []float64{1, 1},
		Burst:      []float64{2, 2},
		MaxBacklog: []int{4, 2},
		BudgetSec:  []float64{30, 10},
	}
	adm := dias.AdmissionPolicies()
	for _, name := range adm.Names() {
		p, err := adm.New(name, admOpts)
		if err != nil {
			t.Errorf("admission %q: %v", name, err)
		} else if p == nil {
			t.Errorf("admission %q: nil policy", name)
		}
	}

	scale := dias.ScalePolicies()
	for _, name := range scale.Names() {
		if _, err := scale.New(name, dias.ScaleOptions{
			ScaleOutAbove: 4, ScaleInBelow: 1, Step: 1, TargetSec: 30, Headroom: 0.25,
		}); err != nil {
			t.Errorf("scaling %q: %v", name, err)
		}
	}

	defl := dias.DeflationPolicies()
	deflOpts := dias.DeflationOptions{
		DropRatios: [][]float64{{0.2, 0.2}, nil},
		Adaptive: core.AdaptiveConfig{
			TargetResponseSec: []float64{60, 0},
			MaxTheta:          []float64{0.4, 0},
			Window:            5,
			Step:              0.05,
			Hysteresis:        0.8,
		},
	}
	for _, name := range defl.Names() {
		factory, err := defl.New(name, deflOpts)
		if err != nil {
			t.Errorf("deflation %q: %v", name, err)
			continue
		}
		d, err := factory(simtime.New())
		if err != nil {
			t.Errorf("deflation %q factory: %v", name, err)
		} else if d == nil {
			t.Errorf("deflation %q: nil deflator", name)
		}
	}
}

// TestRegistriesZeroValueOptions: every registered name in all four
// families constructs from the zero-value options struct (each constructor
// substitutes its documented reference defaults), and unknown names fail
// with the exact error enumerating the valid names.
func TestRegistriesZeroValueOptions(t *testing.T) {
	var zeroAdm dias.AdmissionOptions
	var zeroRoute dias.RoutingOptions
	var zeroScale dias.ScaleOptions
	var zeroDefl dias.DeflationOptions

	cases := []struct {
		family    string
		names     []string
		construct func(name string) (any, error)
		wantErr   string // golden unknown-name error
	}{
		{
			family: "routing",
			names:  dias.RoutingPolicies().Names(),
			construct: func(name string) (any, error) {
				return dias.RoutingPolicies().New(name, zeroRoute)
			},
			wantErr: `dias: unknown routing policy "bogus" (have [random round-robin jsq least-loaded sprint-aware data-local])`,
		},
		{
			family: "admission",
			names:  dias.AdmissionPolicies().Names(),
			construct: func(name string) (any, error) {
				return dias.AdmissionPolicies().New(name, zeroAdm)
			},
			wantErr: `dias: unknown admission policy "bogus" (have [always token-bucket queue-depth slo-budget])`,
		},
		{
			family: "scaling",
			names:  dias.ScalePolicies().Names(),
			construct: func(name string) (any, error) {
				return dias.ScalePolicies().New(name, zeroScale)
			},
			wantErr: `dias: unknown scaling policy "bogus" (have [backlog latency])`,
		},
		{
			family: "deflation",
			names:  dias.DeflationPolicies().Names(),
			construct: func(name string) (any, error) {
				factory, err := dias.DeflationPolicies().New(name, zeroDefl)
				if err != nil {
					return nil, err
				}
				// The factory is the constructed artifact; binding it to a
				// simulation must also succeed with defaulted options.
				return factory(simtime.New())
			},
			wantErr: `dias: unknown deflation policy "bogus" (have [static adaptive])`,
		},
	}
	for _, c := range cases {
		if len(c.names) == 0 {
			t.Errorf("%s: empty registry", c.family)
		}
		for _, name := range c.names {
			p, err := c.construct(name)
			if err != nil {
				t.Errorf("%s %q with zero-value options: %v", c.family, name, err)
				continue
			}
			if p == nil {
				t.Errorf("%s %q: nil policy", c.family, name)
			}
		}
		if _, err := c.construct("bogus"); err == nil {
			t.Errorf("%s: unknown name accepted", c.family)
		} else if err.Error() != c.wantErr {
			t.Errorf("%s unknown-name error:\n got  %q\n want %q", c.family, err, c.wantErr)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	info, ok := dias.RoutingPolicies().Lookup("jsq")
	if !ok || info.Name != "jsq" || info.Description == "" {
		t.Fatalf("Lookup(jsq) = %+v, %v", info, ok)
	}
	if _, ok := dias.AdmissionPolicies().Lookup("bogus"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestRegistryMetadata(t *testing.T) {
	families := []interface {
		Family() string
	}{
		dias.RoutingPolicies(), dias.AdmissionPolicies(),
		dias.ScalePolicies(), dias.DeflationPolicies(),
	}
	for _, f := range families {
		if f.Family() == "" {
			t.Error("family with empty name")
		}
	}
	infos := dias.AdmissionPolicies().Policies()
	if len(infos) != 4 {
		t.Fatalf("%d admission policies, want 4", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || info.Description == "" {
			t.Errorf("policy %+v missing name or description", info)
		}
	}
	_, err := dias.AdmissionPolicies().New("no-such", dias.AdmissionOptions{})
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), "token-bucket") {
		t.Errorf("error %q does not list known names", err)
	}
}

// TestStackAdmissionConservation is the facade-layer conservation check:
// every streamed submission yields exactly one record, each exactly one of
// completed, failed or rejected.
func TestStackAdmissionConservation(t *testing.T) {
	adm, err := dias.AdmissionPolicies().New("queue-depth", dias.AdmissionOptions{
		MaxBacklog: []int{3, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	stack, err := dias.NewStack(dias.StackConfig{
		Policy:    core.PolicyNP(2),
		Admission: adm,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.NewPoissonMix([]float64{0.2, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	if err := stack.SubmitStream(mix, workload.FixedJobs(stackJobs(t)), n, 11); err != nil {
		t.Fatal(err)
	}
	stack.Run()
	recs := stack.Records()
	if len(recs) != n {
		t.Fatalf("%d records for %d submissions", len(recs), n)
	}
	var completed, rejected int
	for _, r := range recs {
		if r.Rejected {
			rejected++
		} else {
			completed++
		}
	}
	if rejected == 0 {
		t.Fatal("backlog cap never rejected; stream too gentle to test admission")
	}
	if completed+rejected != n {
		t.Fatalf("completed %d + rejected %d != %d", completed, rejected, n)
	}
	if got := stack.Scheduler.RejectedJobs(); got != rejected {
		t.Errorf("RejectedJobs() = %d, want %d", got, rejected)
	}
}

// TestFederationFacadeAdmission: NewFederation threads the per-member
// admission factory through, and conservation holds across members.
func TestFederationFacadeAdmission(t *testing.T) {
	fed, err := dias.NewFederation(dias.FederationConfig{
		Policy: core.PolicyNP(2),
		Admission: func() admission.Policy {
			p, err := dias.AdmissionPolicies().New("queue-depth", dias.AdmissionOptions{
				MaxBacklog: []int{2, 2}, Spill: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stackJobs(t)
	const n = 40
	for i := 0; i < n; i++ {
		at := 0.0
		if i >= 12 {
			at = float64(i) * 10
		}
		fed.SubmitAt(at, i%2, jobs[i%2])
	}
	fed.Run()
	var records, rejected int
	for _, m := range fed.Members() {
		for _, rec := range m.Scheduler.Records() {
			records++
			if rec.Rejected {
				rejected++
			}
		}
	}
	if records != n {
		t.Fatalf("%d records for %d submissions", records, n)
	}
	if rejected == 0 || rejected == n {
		t.Fatalf("rejected %d of %d; burst should shed some and spill some", rejected, n)
	}
}

// TestStackConfigAliases covers the conflicting field handling.
func TestStackConfigAliases(t *testing.T) {
	scaling := &core.AutoscalerConfig{
		Policy:       core.BacklogScalePolicy{ScaleOutAbove: 2, ScaleInBelow: 1, Step: 1},
		MinNodes:     2,
		MaxNodes:     10,
		InitialNodes: 4,
		IntervalSec:  20,
		HorizonSec:   200,
	}
	stack, err := dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(1), Scaling: scaling})
	if err != nil {
		t.Fatal(err)
	}
	if stack.Autoscaler == nil {
		t.Fatal("Scaling did not arm the autoscaler")
	}

	// Admission conflicts with Policy.Admission.
	cfg := core.PolicyNP(1)
	cfg.Admission = admission.AlwaysAdmit{}
	if _, err := dias.NewStack(dias.StackConfig{
		Policy: cfg, Admission: admission.AlwaysAdmit{},
	}); err == nil {
		t.Fatal("Admission + Policy.Admission accepted")
	}

	// Deflation conflicts with Policy.Deflator; a bad factory surfaces.
	static, err := dias.DeflationPolicies().New("static", dias.DeflationOptions{
		DropRatios: [][]float64{{0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	daCfg := core.PolicyDA([]float64{0.2})
	if _, err := dias.NewStack(dias.StackConfig{Policy: daCfg, Deflation: static}); err == nil {
		t.Fatal("Deflation + Policy.Deflator accepted")
	}
	stack, err = dias.NewStack(dias.StackConfig{Policy: core.PolicyNP(1), Deflation: static})
	if err != nil {
		t.Fatal(err)
	}
	if stack.Scheduler == nil {
		t.Fatal("stack with registry deflation missing scheduler")
	}
}
