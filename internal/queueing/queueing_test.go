package queueing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dias/internal/phdist"
)

func expClass(t *testing.T, rate, mu float64) Class {
	t.Helper()
	ph, err := phdist.Exponential(mu)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromPH(rate, ph)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFromPH(t *testing.T) {
	ph, err := phdist.Erlang(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromPH(1.5, ph)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.MeanService-0.5) > 1e-12 {
		t.Fatalf("mean = %g, want 0.5", c.MeanService)
	}
	// Erlang(2,4): E[X²] = k(k+1)/λ² = 6/16.
	if math.Abs(c.M2Service-6.0/16) > 1e-12 {
		t.Fatalf("m2 = %g, want %g", c.M2Service, 6.0/16)
	}
	if c.Sampler == nil {
		t.Fatal("no sampler")
	}
	if _, err := FromPH(-1, ph); err == nil {
		t.Fatal("negative rate accepted")
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromPH(rate, ph); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
	if _, err := FromPH(0, ph); err != nil {
		t.Errorf("rate 0: %v", err)
	}
}

// TestFromPHReadsBothMomentsFromOneSolve: the class carries exactly what
// separate Moment calls return, and a service distribution that never
// completes is an error naming the cause.
func TestFromPHReadsBothMomentsFromOneSolve(t *testing.T) {
	wave, err := phdist.FitMeanSCV(3.7, 0.31)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := phdist.FitMeanSCV(0.9, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := phdist.ConvolveAll(setup, wave, wave)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromPH(0.1, ph)
	if err != nil {
		t.Fatal(err)
	}
	m1, err1 := ph.Moment(1)
	m2, err2 := ph.Moment(2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if c.MeanService != m1 || c.M2Service != m2 {
		t.Fatalf("FromPH moments (%.17g, %.17g) differ from Moment(1), Moment(2) = (%.17g, %.17g)", c.MeanService, c.M2Service, m1, m2)
	}
	stuck, err := phdist.New([]float64{1, 0}, []phdist.Entry{{I: 0, J: 0, V: -1}, {I: 0, J: 1, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromPH(0.1, stuck); !errors.Is(err, phdist.ErrSingular) {
		t.Fatalf("never-absorbing service: %v, want ErrSingular", err)
	}
}

func TestMM1SingleClass(t *testing.T) {
	// M/M/1: T = 1/(mu - lambda) for both disciplines.
	lambda, mu := 0.5, 1.0
	classes := []Class{expClass(t, lambda, mu)}
	want := 1 / (mu - lambda)
	for _, d := range []Discipline{NonPreemptive, PreemptiveResume} {
		got, err := MeanResponseTimes(classes, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0]-want) > 1e-9 {
			t.Fatalf("%v: T = %g, want %g", d, got[0], want)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Same service everywhere; higher class must see lower response.
	classes := []Class{
		expClass(t, 0.3, 1), // low
		expClass(t, 0.3, 1), // high
	}
	for _, d := range []Discipline{NonPreemptive, PreemptiveResume} {
		got, err := MeanResponseTimes(classes, d)
		if err != nil {
			t.Fatal(err)
		}
		if got[1] >= got[0] {
			t.Fatalf("%v: high class %g not faster than low %g", d, got[1], got[0])
		}
	}
}

func TestPreemptiveShieldsHighClass(t *testing.T) {
	// Under preemptive-resume the top class never sees lower-class work:
	// its response equals a solo M/M/1 at its own load.
	classes := []Class{
		expClass(t, 0.5, 1), // heavy low-priority load
		expClass(t, 0.2, 1),
	}
	resp, err := MeanResponseTimes(classes, PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := MeanResponseTimes([]Class{classes[1]}, PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp[1]-solo[0]) > 1e-9 {
		t.Fatalf("top class %g, solo %g", resp[1], solo[0])
	}
	// Non-preemptive top class is slower: it waits for residual low work.
	np, err := MeanResponseTimes(classes, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	if np[1] <= resp[1] {
		t.Fatalf("NP high %g not above preemptive %g", np[1], resp[1])
	}
}

func TestInstabilityGivesInf(t *testing.T) {
	classes := []Class{
		expClass(t, 0.9, 1), // low: with high's 0.5 load, total 1.4 > 1
		expClass(t, 0.5, 1),
	}
	got, err := MeanResponseTimes(classes, PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got[0], 1) {
		t.Fatalf("unstable low class = %g, want +Inf", got[0])
	}
	if math.IsInf(got[1], 1) {
		t.Fatalf("stable high class = %g", got[1])
	}
}

func TestMeanResponseTimesErrors(t *testing.T) {
	if _, err := MeanResponseTimes(nil, NonPreemptive); err == nil {
		t.Fatal("empty classes accepted")
	}
	good := []Class{{Rate: 1, MeanService: 0.1, M2Service: 0.02}}
	if _, err := MeanResponseTimes(good, PreemptiveRepeat); err == nil {
		t.Fatal("preemptive-repeat closed form should be refused")
	}
	if _, err := MeanResponseTimes(good, Discipline(99)); err == nil {
		t.Fatal("unknown discipline accepted")
	}
	bad := []Class{{Rate: 1, MeanService: 1, M2Service: 0.5}}
	if _, err := MeanResponseTimes(bad, NonPreemptive); err == nil {
		t.Fatal("M2 < mean² accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]Class{
		"NaN rate":         {Rate: nan, MeanService: 0.1, M2Service: 0.02},
		"+Inf rate":        {Rate: inf, MeanService: 0.1, M2Service: 0.02},
		"NaN mean":         {Rate: 1, MeanService: nan, M2Service: 0.02},
		"+Inf mean":        {Rate: 1, MeanService: inf, M2Service: inf},
		"NaN M2":           {Rate: 1, MeanService: 0.1, M2Service: nan},
		"+Inf M2":          {Rate: 1, MeanService: 0.1, M2Service: inf},
		"NaN moments":      {Rate: 1, MeanService: nan, M2Service: nan},
		"+Inf moments":     {Rate: 0.5, MeanService: inf, M2Service: inf},
		"-Inf mean and M2": {Rate: 1, MeanService: math.Inf(-1), M2Service: math.Inf(-1)},
	} {
		for _, d := range []Discipline{NonPreemptive, PreemptiveResume} {
			if got, err := MeanResponseTimes([]Class{good[0], c}, d); err == nil {
				t.Errorf("%s under %v accepted: %v", name, d, got)
			}
		}
	}
	// Finite inputs keep their verdicts: an overloaded class is +Inf, not
	// an error.
	over := []Class{{Rate: 20, MeanService: 0.1, M2Service: 0.02}}
	if got, err := MeanResponseTimes(over, NonPreemptive); err != nil || !math.IsInf(got[0], 1) {
		t.Errorf("overloaded class: %v, %v; want +Inf and no error", got, err)
	}
}

func TestSimulationMatchesExactNP(t *testing.T) {
	classes := []Class{
		expClass(t, 0.45, 1),
		expClass(t, 0.15, 0.75),
	}
	want, err := MeanResponseTimes(classes, NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res, err := Simulate(rng, classes, SimConfig{Jobs: 200000, WarmupFraction: 0.1, Discipline: NonPreemptive})
	if err != nil {
		t.Fatal(err)
	}
	for k := range classes {
		got := res.PerClass[k].Mean()
		if math.Abs(got-want[k])/want[k] > 0.06 {
			t.Fatalf("class %d: simulated %g vs exact %g", k, got, want[k])
		}
	}
	if res.Evictions != 0 {
		t.Fatalf("NP run recorded %d evictions", res.Evictions)
	}
	if res.WastedService != 0 {
		t.Fatalf("NP run wasted %g service", res.WastedService)
	}
}

func TestSimulationMatchesExactPreemptiveResume(t *testing.T) {
	classes := []Class{
		expClass(t, 0.4, 1),
		expClass(t, 0.2, 1),
	}
	want, err := MeanResponseTimes(classes, PreemptiveResume)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	res, err := Simulate(rng, classes, SimConfig{Jobs: 200000, WarmupFraction: 0.1, Discipline: PreemptiveResume})
	if err != nil {
		t.Fatal(err)
	}
	for k := range classes {
		got := res.PerClass[k].Mean()
		if math.Abs(got-want[k])/want[k] > 0.06 {
			t.Fatalf("class %d: simulated %g vs exact %g", k, got, want[k])
		}
	}
	if res.Evictions == 0 {
		t.Fatal("preemptive run recorded no evictions")
	}
	if res.WastedService != 0 {
		t.Fatal("resume discipline must not waste service")
	}
}

func TestPreemptiveRepeatWastesWork(t *testing.T) {
	classes := []Class{
		expClass(t, 0.35, 0.8),
		expClass(t, 0.25, 1.2),
	}
	rng := rand.New(rand.NewSource(3))
	repeat, err := Simulate(rng, classes, SimConfig{Jobs: 100000, WarmupFraction: 0.1, Discipline: PreemptiveRepeat})
	if err != nil {
		t.Fatal(err)
	}
	if repeat.WastedService <= 0 {
		t.Fatal("repeat discipline wasted no service")
	}
	if w := repeat.ResourceWastePct(); w <= 0 || w >= 100 {
		t.Fatalf("waste pct = %g", w)
	}
	rng2 := rand.New(rand.NewSource(3))
	resume, err := Simulate(rng2, classes, SimConfig{Jobs: 100000, WarmupFraction: 0.1, Discipline: PreemptiveResume})
	if err != nil {
		t.Fatal(err)
	}
	// Re-execution makes the low class slower than under resume.
	if repeat.PerClass[0].Mean() <= resume.PerClass[0].Mean() {
		t.Fatalf("repeat low-class mean %g not above resume %g",
			repeat.PerClass[0].Mean(), resume.PerClass[0].Mean())
	}
}

func TestSimulateValidation(t *testing.T) {
	classes := []Class{expClass(t, 0.5, 1)}
	rng := rand.New(rand.NewSource(1))
	if _, err := Simulate(rng, classes, SimConfig{Jobs: 0, Discipline: NonPreemptive}); err == nil {
		t.Fatal("zero jobs accepted")
	}
	if _, err := Simulate(rng, classes, SimConfig{Jobs: 10, WarmupFraction: 1, Discipline: NonPreemptive}); err == nil {
		t.Fatal("warmup=1 accepted")
	}
	if _, err := Simulate(rng, classes, SimConfig{Jobs: 10, Discipline: Discipline(0)}); err == nil {
		t.Fatal("zero discipline accepted")
	}
	noSampler := []Class{{Rate: 1, MeanService: 1, M2Service: 2}}
	if _, err := Simulate(rng, noSampler, SimConfig{Jobs: 10, Discipline: NonPreemptive}); err == nil {
		t.Fatal("missing sampler accepted")
	}
	zeroRate := []Class{{Rate: 0, MeanService: 1, M2Service: 2}}
	if _, err := Simulate(rng, zeroRate, SimConfig{Jobs: 10, Discipline: NonPreemptive}); err == nil {
		t.Fatal("zero total rate accepted")
	}
}

func TestDisciplineString(t *testing.T) {
	if NonPreemptive.String() != "NP" || PreemptiveRepeat.String() != "P" {
		t.Fatal("unexpected shorthand")
	}
	if PreemptiveResume.String() != "P-resume" {
		t.Fatal("unexpected resume shorthand")
	}
	if Discipline(42).String() == "" {
		t.Fatal("unknown discipline has empty string")
	}
}

// Property: exact NP response times are monotone in priority when all
// classes share the same service distribution.
func TestPropertyMonotonePriorities(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		classes := make([]Class, k)
		// Total load < 0.9 split unevenly.
		load := 0.2 + rng.Float64()*0.7
		for i := range classes {
			classes[i] = Class{Rate: load / float64(k), MeanService: 1, M2Service: 2}
		}
		resp, err := MeanResponseTimes(classes, NonPreemptive)
		if err != nil {
			return false
		}
		for i := 1; i < k; i++ {
			if resp[i] > resp[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulated utilization tracks offered load for stable systems.
func TestPropertySimulatedLoad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := 0.3 + rng.Float64()*0.5
		ph, err := phdist.Exponential(1)
		if err != nil {
			return false
		}
		c, err := FromPH(rho, ph)
		if err != nil {
			return false
		}
		res, err := Simulate(rng, []Class{c}, SimConfig{Jobs: 20000, WarmupFraction: 0.1, Discipline: NonPreemptive})
		if err != nil {
			return false
		}
		got := res.TotalService / res.Makespan
		return math.Abs(got-rho) < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateNP(b *testing.B) {
	ph, err := phdist.Exponential(1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := FromPH(0.7, ph)
	if err != nil {
		b.Fatal(err)
	}
	classes := []Class{c, c}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := Simulate(rng, classes, SimConfig{Jobs: 5000, WarmupFraction: 0.1, Discipline: NonPreemptive}); err != nil {
			b.Fatal(err)
		}
	}
}
