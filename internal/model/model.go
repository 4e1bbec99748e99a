// Package model implements the paper's bottom-up stochastic models of job
// processing times (§4): the task-level CTMC whose transition rates are
// equation (1), and the wave-level model that strings per-wave phase-type
// execution times into one PH representation. Both yield phase-type
// distributions that plug directly into the queueing package to predict
// per-priority response times, and into the deflator's drop-ratio search.
package model

import (
	"errors"
	"fmt"
	"math"

	"dias/internal/matrix"
	"dias/internal/phdist"
	"dias/internal/queueing"
	"dias/internal/stats"
)

// EffectiveTasks returns ⌈n(1-θ)⌉, the number of tasks executed after
// dropping at ratio θ (the paper's n̄).
func EffectiveTasks(n int, theta float64) int {
	if n <= 0 {
		return 0
	}
	if theta <= 0 {
		return n
	}
	if theta >= 1 {
		return 0
	}
	return int(math.Ceil(float64(n) * (1 - theta)))
}

// Waves returns ⌈tasks/slots⌉, the paper's wave count.
func Waves(tasks, slots int) int {
	if tasks <= 0 || slots <= 0 {
		return 0
	}
	return (tasks + slots - 1) / slots
}

// TaskCountPMF is a probability mass function over task counts: entry i is
// the probability of having i+1 tasks (support starts at 1, as in §4.1).
type TaskCountPMF []float64

// Validate checks the PMF sums to one.
func (p TaskCountPMF) Validate() error {
	if len(p) == 0 {
		return errors.New("model: empty task-count distribution")
	}
	var sum float64
	for i, v := range p {
		if v < 0 {
			return fmt.Errorf("model: negative probability %g at %d tasks", v, i+1)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("model: task-count probabilities sum to %g", sum)
	}
	return nil
}

// FixedTasks is the degenerate PMF of exactly n tasks.
func FixedTasks(n int) TaskCountPMF {
	p := make(TaskCountPMF, n)
	p[n-1] = 1
	return p
}

// Max returns the largest task count with positive probability (N^k).
func (p TaskCountPMF) Max() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] > 0 {
			return i + 1
		}
	}
	return 0
}

// effectivePMF maps the PMF through ⌈t(1-θ)⌉: entry t̄ (1-based via index
// t̄-1) of the result is P(effective tasks = t̄).
func (p TaskCountPMF) effectivePMF(theta float64) TaskCountPMF {
	maxEff := EffectiveTasks(p.Max(), 0) // upper bound before drop
	out := make(TaskCountPMF, maxEff)
	for i, pr := range p {
		if pr == 0 {
			continue
		}
		eff := EffectiveTasks(i+1, theta)
		if eff >= 1 {
			out[eff-1] += pr
		}
	}
	// Trim trailing zeros.
	last := 0
	for i, v := range out {
		if v > 0 {
			last = i + 1
		}
	}
	return out[:last]
}

// --- Task-level model (§4.1) ---------------------------------------------

// TaskLevelConfig parameterizes the §4.1 CTMC for one priority class.
type TaskLevelConfig struct {
	// Slots is C, the cluster's parallelism cap.
	Slots int
	// MapTasks and ReduceTasks are the task-count distributions pm, pr.
	MapTasks    TaskCountPMF
	ReduceTasks TaskCountPMF
	// MuMap, MuReduce, MuSetup, MuShuffle are the exponential rates of
	// map/reduce task execution, initial setup (overhead stage O) and the
	// shuffle stage S. A zero MuSetup or MuShuffle skips that stage.
	MuMap, MuReduce, MuSetup, MuShuffle float64
	// ThetaMap and ThetaReduce are the drop ratios θm, θr in [0,1).
	ThetaMap, ThetaReduce float64
}

func (c TaskLevelConfig) validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("model: %d slots", c.Slots)
	}
	if err := c.MapTasks.Validate(); err != nil {
		return fmt.Errorf("map tasks: %w", err)
	}
	if err := c.ReduceTasks.Validate(); err != nil {
		return fmt.Errorf("reduce tasks: %w", err)
	}
	if c.MuMap <= 0 || c.MuReduce <= 0 {
		return fmt.Errorf("model: task rates map=%g reduce=%g", c.MuMap, c.MuReduce)
	}
	if c.MuSetup < 0 || c.MuShuffle < 0 {
		return fmt.Errorf("model: stage rates setup=%g shuffle=%g", c.MuSetup, c.MuShuffle)
	}
	if c.ThetaMap < 0 || c.ThetaMap >= 1 || c.ThetaReduce < 0 || c.ThetaReduce >= 1 {
		return fmt.Errorf("model: drop ratios θm=%g θr=%g out of [0,1)", c.ThetaMap, c.ThetaReduce)
	}
	return nil
}

// ProcessingTime builds the phase-type distribution of the job processing
// time with phase space {O, M_N̄m..M_1, S, R_N̄r..R_1} and the transition
// rates of equation (1).
func (c TaskLevelConfig) ProcessingTime() (*phdist.PH, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	pmEff := c.MapTasks.effectivePMF(c.ThetaMap)
	prEff := c.ReduceTasks.effectivePMF(c.ThetaReduce)
	nm := len(pmEff) // N̄m
	nr := len(prEff) // N̄r
	if nm == 0 || nr == 0 {
		return nil, errors.New("model: dropping removed all tasks")
	}

	hasSetup := c.MuSetup > 0
	hasShuffle := c.MuShuffle > 0

	// Phase layout: [O]? M_nm..M_1 [S]? R_nr..R_1.
	phases := nm + nr
	oIdx := -1
	if hasSetup {
		oIdx = 0
		phases++
	}
	mapBase := oIdx + 1 // phase index of M_nm
	mapIdx := func(t int) int { return mapBase + (nm - t) }
	sIdx := -1
	redBase := mapBase + nm
	if hasShuffle {
		sIdx = redBase
		redBase++
		phases++
	}
	redIdx := func(u int) int { return redBase + (nr - u) }

	f := matrix.Zeros(phases, phases)
	add := func(i, j int, rate float64) {
		f.Set(i, j, f.At(i, j)+rate)
		f.Set(i, i, f.At(i, i)-rate)
	}
	addExit := func(i int, rate float64) {
		f.Set(i, i, f.At(i, i)-rate)
	}

	parallel := func(t int) float64 {
		if t >= c.Slots {
			return float64(c.Slots)
		}
		return float64(t)
	}

	// Entry into the map stage: from O at rate µo·pm(t̄), or directly via
	// the initial vector when there is no setup stage.
	alpha := make([]float64, phases)
	if hasSetup {
		alpha[oIdx] = 1
		for tb := 1; tb <= nm; tb++ {
			if pmEff[tb-1] > 0 {
				add(oIdx, mapIdx(tb), c.MuSetup*pmEff[tb-1])
			}
		}
	} else {
		for tb := 1; tb <= nm; tb++ {
			alpha[mapIdx(tb)] = pmEff[tb-1]
		}
	}
	// Map stage: tasks finish one by one at min(t,C)·µm.
	for t := nm; t >= 2; t-- {
		add(mapIdx(t), mapIdx(t-1), parallel(t)*c.MuMap)
	}
	// M_1 → S (or directly into reduce when there is no shuffle stage).
	if hasShuffle {
		add(mapIdx(1), sIdx, c.MuMap)
		for ub := 1; ub <= nr; ub++ {
			if prEff[ub-1] > 0 {
				add(sIdx, redIdx(ub), c.MuShuffle*prEff[ub-1])
			}
		}
	} else {
		for ub := 1; ub <= nr; ub++ {
			if prEff[ub-1] > 0 {
				add(mapIdx(1), redIdx(ub), c.MuMap*prEff[ub-1])
			}
		}
	}
	// Reduce stage; R_1 exits to absorption (job completion).
	for u := nr; u >= 2; u-- {
		add(redIdx(u), redIdx(u-1), parallel(u)*c.MuReduce)
	}
	addExit(redIdx(1), c.MuReduce)

	return phdist.New(alpha, f)
}

// MeanProcessingTime is a convenience wrapper returning E[S].
func (c TaskLevelConfig) MeanProcessingTime() (float64, error) {
	ph, err := c.ProcessingTime()
	if err != nil {
		return 0, err
	}
	return ph.Mean()
}

// --- Wave-level model (§4.2) ---------------------------------------------

// WaveLevelConfig parameterizes the §4.2 model for one priority class.
// Per-wave execution times are arbitrary PH distributions, possibly
// different per wave index, avoiding the exponential-task assumption.
type WaveLevelConfig struct {
	// Slots is C.
	Slots int
	// MapTasks and ReduceTasks are the task-count distributions.
	MapTasks    TaskCountPMF
	ReduceTasks TaskCountPMF
	// ThetaMap and ThetaReduce are drop ratios in [0,1).
	ThetaMap, ThetaReduce float64
	// Setup and Shuffle are the overhead stage O and shuffle stage S
	// distributions; nil skips the stage.
	Setup, Shuffle *phdist.PH
	// MapWave(d) returns the execution-time distribution of the d-th map
	// wave (1-based); ReduceWave likewise. Both are required.
	MapWave, ReduceWave func(d int) *phdist.PH
}

// WaveCountPMF returns q(d): the probability that the stage needs d waves,
// computed from the task-count PMF, drop ratio and slot count exactly as
// the paper's q_m(d) double sum.
func WaveCountPMF(tasks TaskCountPMF, theta float64, slots int) ([]float64, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if slots <= 0 {
		return nil, fmt.Errorf("model: %d slots", slots)
	}
	eff := tasks.effectivePMF(theta)
	maxWaves := Waves(len(eff), slots)
	q := make([]float64, maxWaves)
	for tb := 1; tb <= len(eff); tb++ {
		if eff[tb-1] == 0 {
			continue
		}
		d := Waves(tb, slots)
		q[d-1] += eff[tb-1]
	}
	return q, nil
}

func (c WaveLevelConfig) validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("model: %d slots", c.Slots)
	}
	if err := c.MapTasks.Validate(); err != nil {
		return fmt.Errorf("map tasks: %w", err)
	}
	if err := c.ReduceTasks.Validate(); err != nil {
		return fmt.Errorf("reduce tasks: %w", err)
	}
	if c.MapWave == nil || c.ReduceWave == nil {
		return errors.New("model: missing wave distributions")
	}
	if c.ThetaMap < 0 || c.ThetaMap >= 1 || c.ThetaReduce < 0 || c.ThetaReduce >= 1 {
		return fmt.Errorf("model: drop ratios θm=%g θr=%g out of [0,1)", c.ThetaMap, c.ThetaReduce)
	}
	return nil
}

// stagePH builds the PH of one stage: a q-weighted mixture over wave
// counts d of the convolution of d consecutive waves. Following the
// paper's block matrix (§4.2), a job needing d of the maximum D waves
// enters at wave D-d+1 and runs through wave D — e.g. with D=2, one-wave
// jobs start directly in α_m(2). This is that matrix expressed through PH
// closure operations.
func stagePH(q []float64, wave func(d int) *phdist.PH) (*phdist.PH, error) {
	var comps []*phdist.PH
	var weights []float64
	maxWaves := len(q)
	for d := 1; d <= maxWaves; d++ {
		if q[d-1] == 0 {
			continue
		}
		seq := make([]*phdist.PH, 0, d)
		for i := maxWaves - d + 1; i <= maxWaves; i++ {
			w := wave(i)
			if w == nil {
				return nil, fmt.Errorf("model: nil wave distribution at index %d", i)
			}
			seq = append(seq, w)
		}
		conv, err := phdist.ConvolveAll(seq...)
		if err != nil {
			return nil, err
		}
		comps = append(comps, conv)
		weights = append(weights, q[d-1])
	}
	if len(comps) == 0 {
		return nil, errors.New("model: stage has zero waves")
	}
	// Normalize weights defensively (they may sum to <1 on trimmed PMFs).
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i := range weights {
		weights[i] /= sum
	}
	return phdist.Mixture(weights, comps)
}

// ProcessingTime assembles the wave-level PH representation of the job
// processing time: Setup ⊕ map waves ⊕ Shuffle ⊕ reduce waves.
func (c WaveLevelConfig) ProcessingTime() (*phdist.PH, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	qm, err := WaveCountPMF(c.MapTasks, c.ThetaMap, c.Slots)
	if err != nil {
		return nil, err
	}
	qr, err := WaveCountPMF(c.ReduceTasks, c.ThetaReduce, c.Slots)
	if err != nil {
		return nil, err
	}
	mapStage, err := stagePH(qm, c.MapWave)
	if err != nil {
		return nil, fmt.Errorf("map stage: %w", err)
	}
	redStage, err := stagePH(qr, c.ReduceWave)
	if err != nil {
		return nil, fmt.Errorf("reduce stage: %w", err)
	}
	parts := make([]*phdist.PH, 0, 4)
	if c.Setup != nil {
		parts = append(parts, c.Setup)
	}
	parts = append(parts, mapStage)
	if c.Shuffle != nil {
		parts = append(parts, c.Shuffle)
	}
	parts = append(parts, redStage)
	return phdist.ConvolveAll(parts...)
}

// --- Parameterization (§4.3) ---------------------------------------------

// OverheadModel interpolates the profiled setup overhead between two
// anchor measurements: no dropping and the maximum considered drop ratio
// (the paper profiles θ=0 and θ=0.9 only).
type OverheadModel struct {
	ThetaLo, OverheadLo float64
	ThetaHi, OverheadHi float64
}

// At returns the interpolated mean overhead at drop ratio theta.
func (o OverheadModel) At(theta float64) float64 {
	return stats.Interpolate(o.ThetaLo, o.OverheadLo, o.ThetaHi, o.OverheadHi, theta)
}

// --- Response-time prediction --------------------------------------------

// ClassModel couples an arrival rate with a processing-time distribution
// for one priority class.
type ClassModel struct {
	Rate       float64
	Processing *phdist.PH
}

// PredictMeanResponse returns per-class mean response times under the
// given discipline, feeding each class's PH processing time into the
// M[K]/PH[K]/1 formulas. Class order: index = priority (higher = more
// important), as everywhere in this repo.
func PredictMeanResponse(classes []ClassModel, d queueing.Discipline) ([]float64, error) {
	qc := make([]queueing.Class, len(classes))
	for k, c := range classes {
		cls, err := queueing.FromPH(c.Rate, c.Processing)
		if err != nil {
			return nil, fmt.Errorf("class %d: %w", k, err)
		}
		qc[k] = cls
	}
	return queueing.MeanResponseTimes(qc, d)
}
