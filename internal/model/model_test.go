package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dias/internal/phdist"
	"dias/internal/queueing"
)

func TestEffectiveTasks(t *testing.T) {
	cases := []struct {
		n     int
		theta float64
		want  int
	}{
		{50, 0, 50}, {50, 0.2, 40}, {50, 0.9, 5}, {3, 0.5, 2},
		{1, 0.9, 1}, {0, 0.5, 0},
	}
	for _, c := range cases {
		if got, err := EffectiveTasks(c.n, c.theta); err != nil || got != c.want {
			t.Fatalf("EffectiveTasks(%d, %g) = %d, %v; want %d", c.n, c.theta, got, err, c.want)
		}
	}
	// θ outside [0,1) is rejected as the models reject it; NaN once came
	// back as math.MinInt64.
	for _, theta := range []float64{math.NaN(), -1, -0.1, 1, 1.5, math.Inf(1)} {
		if got, err := EffectiveTasks(10, theta); err == nil {
			t.Fatalf("EffectiveTasks(10, %g) = %d, accepted", theta, got)
		}
	}
}

func TestWaves(t *testing.T) {
	cases := []struct{ tasks, slots, want int }{
		{40, 20, 2}, {41, 20, 3}, {20, 20, 1}, {1, 20, 1}, {0, 20, 0}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := Waves(c.tasks, c.slots); got != c.want {
			t.Fatalf("Waves(%d, %d) = %d, want %d", c.tasks, c.slots, got, c.want)
		}
	}
}

func TestTaskCountPMF(t *testing.T) {
	p := FixedTasks(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Max() != 5 {
		t.Fatalf("Max = %d", p.Max())
	}
	if err := (TaskCountPMF{0.5, 0.4}).Validate(); err == nil {
		t.Fatal("non-normalized PMF accepted")
	}
	if err := (TaskCountPMF{}).Validate(); err == nil {
		t.Fatal("empty PMF accepted")
	}
	if err := (TaskCountPMF{-0.1, 1.1}).Validate(); err == nil {
		t.Fatal("negative probability accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []TaskCountPMF{{nan, 0.5, 0.5}, {0.5, nan}, {nan}, {inf, 1}, {1, inf, -inf}} {
		if err := p.Validate(); err == nil {
			t.Errorf("%v accepted", p)
		}
	}
}

func TestEffectivePMF(t *testing.T) {
	// 10 tasks with θ=0.5 -> 5 effective.
	p, err := FixedTasks(10).effectivePMF(0.5)
	if err != nil || len(p) != 5 || math.Abs(p[4]-1) > 1e-12 {
		t.Fatalf("effectivePMF = %v, %v", p, err)
	}
	// Mixed counts collapsing onto the same effective value.
	mixed := TaskCountPMF{0, 0.5, 0.5}  // 2 or 3 tasks, half each
	eff, err := mixed.effectivePMF(0.4) // ⌈2·0.6⌉=2, ⌈3·0.6⌉=2
	if err != nil || len(eff) != 2 || math.Abs(eff[1]-1) > 1e-12 {
		t.Fatalf("collapsed effectivePMF = %v, %v", eff, err)
	}
}

// baseTaskConfig returns a valid minimal config to mutate in tests.
func baseTaskConfig() TaskLevelConfig {
	return TaskLevelConfig{
		Slots:       4,
		MapTasks:    FixedTasks(3),
		ReduceTasks: FixedTasks(2),
		MuMap:       1,
		MuReduce:    2,
	}
}

func TestTaskLevelValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TaskLevelConfig)
	}{
		{"zero slots", func(c *TaskLevelConfig) { c.Slots = 0 }},
		{"bad map pmf", func(c *TaskLevelConfig) { c.MapTasks = TaskCountPMF{0.5} }},
		{"zero mu map", func(c *TaskLevelConfig) { c.MuMap = 0 }},
		{"negative shuffle", func(c *TaskLevelConfig) { c.MuShuffle = -1 }},
		{"theta out of range", func(c *TaskLevelConfig) { c.ThetaMap = 1 }},
		{"NaN mu map", func(c *TaskLevelConfig) { c.MuMap = math.NaN() }},
		{"+Inf mu map", func(c *TaskLevelConfig) { c.MuMap = math.Inf(1) }},
		{"NaN mu reduce", func(c *TaskLevelConfig) { c.MuReduce = math.NaN() }},
		{"NaN mu setup", func(c *TaskLevelConfig) { c.MuSetup = math.NaN() }},
		{"+Inf mu setup", func(c *TaskLevelConfig) { c.MuSetup = math.Inf(1) }},
		{"NaN mu shuffle", func(c *TaskLevelConfig) { c.MuShuffle = math.NaN() }},
		{"NaN theta map", func(c *TaskLevelConfig) { c.ThetaMap = math.NaN() }},
		{"NaN theta reduce", func(c *TaskLevelConfig) { c.ThetaReduce = math.NaN() }},
		{"NaN map probability", func(c *TaskLevelConfig) { c.MapTasks = TaskCountPMF{math.NaN(), 0.5, 0.5} }},
		{"NaN reduce probability", func(c *TaskLevelConfig) { c.ReduceTasks = TaskCountPMF{0.5, math.NaN(), 0.5} }},
	}
	for _, c := range cases {
		cfg := baseTaskConfig()
		c.mutate(&cfg)
		if _, err := cfg.ProcessingTime(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestTaskLevelSerialChain(t *testing.T) {
	// C=1: tasks run serially, so the processing time is Erlang-like:
	// E[S] = t/µm + u/µr (+ setup + shuffle).
	cfg := TaskLevelConfig{
		Slots:       1,
		MapTasks:    FixedTasks(3),
		ReduceTasks: FixedTasks(2),
		MuMap:       2,
		MuReduce:    4,
		MuSetup:     10,
		MuShuffle:   5,
	}
	mean, err := cfg.MeanProcessingTime()
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0/2 + 2.0/4 + 1.0/10 + 1.0/5
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", mean, want)
	}
}

func TestTaskLevelParallelDrain(t *testing.T) {
	// C >= t: the map stage drains like an M/M/∞ departure chain:
	// E = Σ_{j=1..t} 1/(j·µ). Single reduce task adds 1/µr.
	cfg := TaskLevelConfig{
		Slots:       10,
		MapTasks:    FixedTasks(4),
		ReduceTasks: FixedTasks(1),
		MuMap:       1,
		MuReduce:    1,
	}
	mean, err := cfg.MeanProcessingTime()
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 1.0/2 + 1.0/3 + 1.0/4) + 1.0
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", mean, want)
	}
}

func TestTaskLevelSlotsCap(t *testing.T) {
	// With C=2 and 4 tasks: rates 2µ,2µ,2µ,µ — wait, transitions are
	// M4→M3 at 2µ, M3→M2 at 2µ, M2→M1 at 2µ, M1→S at µ.
	cfg := TaskLevelConfig{
		Slots:       2,
		MapTasks:    FixedTasks(4),
		ReduceTasks: FixedTasks(1),
		MuMap:       1,
		MuReduce:    100, // negligible
	}
	mean, err := cfg.MeanProcessingTime()
	if err != nil {
		t.Fatal(err)
	}
	want := 3*(1.0/2) + 1.0 + 1.0/100
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", mean, want)
	}
}

func TestTaskLevelDropShortensJobs(t *testing.T) {
	means := make([]float64, 0, 3)
	for _, theta := range []float64{0, 0.4, 0.8} {
		cfg := baseTaskConfig()
		cfg.MapTasks = FixedTasks(10)
		cfg.ThetaMap = theta
		m, err := cfg.MeanProcessingTime()
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, m)
	}
	if !(means[0] > means[1] && means[1] > means[2]) {
		t.Fatalf("means not decreasing with drop: %v", means)
	}
}

func TestTaskLevelRandomTaskCounts(t *testing.T) {
	// Mean over a 50/50 mixture of 1-task and 3-task jobs at C=1 equals
	// the average of the two deterministic means.
	cfg := TaskLevelConfig{
		Slots:       1,
		MapTasks:    TaskCountPMF{0.5, 0, 0.5},
		ReduceTasks: FixedTasks(1),
		MuMap:       1,
		MuReduce:    1,
	}
	mean, err := cfg.MeanProcessingTime()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*(1.0+1.0) + 0.5*(3.0+1.0)
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", mean, want)
	}
}

func TestWaveCountPMF(t *testing.T) {
	// 40 tasks on 20 slots: always 2 waves.
	q, err := WaveCountPMF(FixedTasks(40), 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 || math.Abs(q[1]-1) > 1e-12 {
		t.Fatalf("q = %v", q)
	}
	// Dropping 60% of 40 tasks -> 16 tasks -> 1 wave.
	q, err = WaveCountPMF(FixedTasks(40), 0.6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || math.Abs(q[0]-1) > 1e-12 {
		t.Fatalf("q after drop = %v", q)
	}
	// Mixture straddling the wave boundary.
	pmf := TaskCountPMF(make([]float64, 25))
	pmf[19] = 0.5 // 20 tasks -> 1 wave
	pmf[24] = 0.5 // 25 tasks -> 2 waves
	q, err = WaveCountPMF(pmf, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q[0]-0.5) > 1e-12 || math.Abs(q[1]-0.5) > 1e-12 {
		t.Fatalf("straddling q = %v", q)
	}
	if _, err := WaveCountPMF(FixedTasks(5), 0, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	if q, err := WaveCountPMF(TaskCountPMF{math.NaN(), 0.5, 0.5}, 0, 2); err == nil {
		t.Fatalf("NaN probability accepted: q = %v", q)
	}
	// A θ outside [0,1) once gave an empty q and no error.
	for _, theta := range []float64{math.NaN(), 1.5, 1, -0.2} {
		if q, err := WaveCountPMF(FixedTasks(40), theta, 20); err == nil {
			t.Fatalf("drop ratio %g accepted: q = %v", theta, q)
		}
	}
}

func mustExp(t *testing.T, rate float64) *phdist.PH {
	t.Helper()
	ph, err := phdist.Exponential(rate)
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func TestWaveLevelMean(t *testing.T) {
	// Deterministic 2 map waves and 1 reduce wave with exponential parts:
	// E = E[setup] + E[w1] + E[w2] + E[shuffle] + E[r1].
	setup := mustExp(t, 10)
	shuffle := mustExp(t, 5)
	cfg := WaveLevelConfig{
		Slots:       20,
		MapTasks:    FixedTasks(40),
		ReduceTasks: FixedTasks(10),
		Setup:       setup,
		Shuffle:     shuffle,
		MapWave:     func(d int) *phdist.PH { return mustExp(t, float64(d)) }, // waves 1,2
		ReduceWave:  func(d int) *phdist.PH { return mustExp(t, 4) },
	}
	ph, err := cfg.ProcessingTime()
	if err != nil {
		t.Fatal(err)
	}
	mean, err := ph.Mean()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 + (1.0 + 0.5) + 0.2 + 0.25
	if math.Abs(mean-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", mean, want)
	}
}

func TestWaveLevelValidation(t *testing.T) {
	good := WaveLevelConfig{
		Slots:       2,
		MapTasks:    FixedTasks(2),
		ReduceTasks: FixedTasks(2),
		MapWave:     func(int) *phdist.PH { return mustExp(t, 1) },
		ReduceWave:  func(int) *phdist.PH { return mustExp(t, 1) },
	}
	if _, err := good.ProcessingTime(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.MapWave = nil
	if _, err := bad.ProcessingTime(); err == nil {
		t.Fatal("nil wave accepted")
	}
	bad = good
	bad.ThetaReduce = 1.2
	if _, err := bad.ProcessingTime(); err == nil {
		t.Fatal("theta out of range accepted")
	}
	for _, theta := range []float64{math.NaN(), -0.1, math.Inf(1)} {
		bad = good
		bad.ThetaMap = theta
		if _, err := bad.ProcessingTime(); err == nil {
			t.Errorf("θm = %g accepted", theta)
		}
		bad = good
		bad.ThetaReduce = theta
		if _, err := bad.ProcessingTime(); err == nil {
			t.Errorf("θr = %g accepted", theta)
		}
	}
}

// TestWaveLevelMatchesPaperBlockMatrix rebuilds the explicit wm=wr=2 block
// matrix from §4.2 and verifies the closure-based construction yields the
// same distribution.
func TestWaveLevelMatchesPaperBlockMatrix(t *testing.T) {
	// Components: setup O, map waves m1/m2, shuffle S, reduce waves r1/r2.
	// All single-phase exponentials with distinct rates; qm=(0.3,0.7),
	// qr=(0.6,0.4) arranged via task-count PMFs on C=2.
	muO, muM1, muM2, muS, muR1, muR2 := 9.0, 1.0, 2.0, 7.0, 3.0, 4.0
	qm1, qm2 := 0.3, 0.7
	qr1, qr2 := 0.6, 0.4

	mapPMF := TaskCountPMF(make([]float64, 4))
	mapPMF[1] = qm1 // 2 tasks -> 1 wave on C=2
	mapPMF[3] = qm2 // 4 tasks -> 2 waves
	redPMF := TaskCountPMF(make([]float64, 4))
	redPMF[1] = qr1
	redPMF[3] = qr2

	cfg := WaveLevelConfig{
		Slots:       2,
		MapTasks:    mapPMF,
		ReduceTasks: redPMF,
		Setup:       mustExp(t, muO),
		Shuffle:     mustExp(t, muS),
		MapWave: func(d int) *phdist.PH {
			if d == 1 {
				return mustExp(t, muM1)
			}
			return mustExp(t, muM2)
		},
		ReduceWave: func(d int) *phdist.PH {
			if d == 1 {
				return mustExp(t, muR1)
			}
			return mustExp(t, muR2)
		},
	}
	got, err := cfg.ProcessingTime()
	if err != nil {
		t.Fatal(err)
	}

	// Paper's explicit 6-phase matrix: order O, M(1), M(2), S, R(1), R(2).
	// One-wave jobs enter the *last* wave block (αm(2)·qm(1)).
	want, err := phdist.New([]float64{1, 0, 0, 0, 0, 0}, []phdist.Entry{
		{I: 0, J: 0, V: -muO},
		{I: 0, J: 1, V: muO * qm2}, // needs 2 waves: start at wave 1
		{I: 0, J: 2, V: muO * qm1}, // needs 1 wave: start at wave 2
		{I: 1, J: 1, V: -muM1},
		{I: 1, J: 2, V: muM1},
		{I: 2, J: 2, V: -muM2},
		{I: 2, J: 3, V: muM2},
		{I: 3, J: 3, V: -muS},
		{I: 3, J: 4, V: muS * qr2},
		{I: 3, J: 5, V: muS * qr1},
		{I: 4, J: 4, V: -muR1},
		{I: 4, J: 5, V: muR1},
		{I: 5, J: 5, V: -muR2},
	})
	if err != nil {
		t.Fatal(err)
	}

	gm, err := got.Mean()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := want.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gm-wm) > 1e-9 {
		t.Fatalf("means differ: closure %g vs block matrix %g", gm, wm)
	}
	gms, err := got.Moments(4)
	if err != nil {
		t.Fatal(err)
	}
	wms, err := want.Moments(4)
	if err != nil {
		t.Fatal(err)
	}
	for k := range gms {
		if math.Abs(gms[k]-wms[k]) > 1e-9*wms[k] {
			t.Fatalf("moment %d: closure %g vs block matrix %g", k+1, gms[k], wms[k])
		}
	}
}

func TestOverheadModel(t *testing.T) {
	o := OverheadModel{ThetaLo: 0, OverheadLo: 20, ThetaHi: 0.9, OverheadHi: 5}
	if got := o.At(0); got != 20 {
		t.Fatalf("At(0) = %g", got)
	}
	if got := o.At(0.9); got != 5 {
		t.Fatalf("At(0.9) = %g", got)
	}
	if got := o.At(0.45); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("At(0.45) = %g", got)
	}
}

func TestPredictMeanResponse(t *testing.T) {
	// Two classes with exponential processing; must equal queueing directly.
	low := mustExp(t, 1.0/100)
	high := mustExp(t, 1.0/50)
	classes := []ClassModel{
		{Rate: 0.005, Processing: low},
		{Rate: 0.002, Processing: high},
	}
	got, err := PredictMeanResponse(classes, queueing.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := queueing.FromPH(0.005, low)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := queueing.FromPH(0.002, high)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MeanResponseTimes([]queueing.Class{cl, ch}, queueing.NonPreemptive)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("class %d: %g vs %g", k, got[k], want[k])
		}
	}
}

// Property: task-level mean processing time decreases monotonically in the
// map drop ratio.
func TestPropertyDropMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := TaskLevelConfig{
			Slots:       1 + rng.Intn(8),
			MapTasks:    FixedTasks(2 + rng.Intn(30)),
			ReduceTasks: FixedTasks(1 + rng.Intn(10)),
			MuMap:       0.5 + rng.Float64()*2,
			MuReduce:    0.5 + rng.Float64()*2,
			MuSetup:     1 + rng.Float64()*10,
		}
		prev := math.Inf(1)
		for _, theta := range []float64{0, 0.3, 0.6, 0.9} {
			cfg.ThetaMap = theta
			m, err := cfg.MeanProcessingTime()
			if err != nil {
				return false
			}
			if m > prev+1e-9 {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the task-level PH is a valid distribution (nonnegative exit
// rates, positive mean, nonnegative variance) for random configurations.
func TestPropertyTaskLevelValidPH(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := TaskLevelConfig{
			Slots:       1 + rng.Intn(6),
			MapTasks:    FixedTasks(1 + rng.Intn(12)),
			ReduceTasks: FixedTasks(1 + rng.Intn(6)),
			MuMap:       0.2 + rng.Float64(),
			MuReduce:    0.2 + rng.Float64(),
			MuShuffle:   rng.Float64() * 5,
		}
		ph, err := cfg.ProcessingTime()
		if err != nil {
			return false
		}
		for _, exit := range ph.ExitVector() {
			if exit < -1e-12 {
				return false
			}
		}
		ms, err := ph.Moments(2)
		return err == nil && ms[0] > 0 && ms[1] >= ms[0]*ms[0]*(1-1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTaskLevelProcessingTime builds the task-level PH of the
// model-level ablation's text job: 60 map tasks at θ = 0.2 and 10 reduce
// tasks on 20 slots, with setup and shuffle stages.
func BenchmarkTaskLevelProcessingTime(b *testing.B) {
	cfg := TaskLevelConfig{
		Slots:       20,
		MapTasks:    FixedTasks(60),
		ReduceTasks: FixedTasks(10),
		MuMap:       1 / 8.5,
		MuReduce:    1 / 1.5,
		MuSetup:     1 / 5.0,
		MuShuffle:   1 / 1.2,
		ThetaMap:    0.2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ProcessingTime(); err != nil {
			b.Fatal(err)
		}
	}
}
