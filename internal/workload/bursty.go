package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// --- Gamma renewal process ------------------------------------------------

// Gamma is a renewal arrival process with gamma-distributed
// inter-arrival times of configurable coefficient of variation at a
// given mean rate. CV = 1 recovers the exponential gaps of PoissonMix;
// CV > 1 clumps arrivals into bursts separated by long lulls (the
// regime where routing and admission policies actually differentiate);
// CV < 1 is smoother-than-Poisson, approaching a metronome as CV → 0.
//
// Gaps are Gamma(k, θ) with shape k = 1/CV² and scale θ = CV²/λ, so the
// mean gap is kθ = 1/λ for the total per-class rate λ — burstiness
// changes *when* jobs arrive, never *how many*, which is what "equal
// mean rate" comparisons against Poisson require. Classes are marked
// independently per arrival with probability rate_k/total, exactly like
// PoissonMix.
type Gamma struct {
	rates        []float64
	total        float64
	cv           float64
	shape, scale float64
}

// NewGamma builds a gamma renewal process from per-class rates (jobs
// per second; index = class) and an inter-arrival coefficient of
// variation (> 0; 1 = Poisson).
func NewGamma(rates []float64, cv float64) (*Gamma, error) {
	pm, err := NewPoissonMix(rates) // reuse the rate validation
	if err != nil {
		return nil, err
	}
	if cv <= 0 || math.IsNaN(cv) || math.IsInf(cv, 0) {
		return nil, fmt.Errorf("workload: gamma CV %g must be positive and finite", cv)
	}
	return &Gamma{
		rates: pm.rates,
		total: pm.total,
		cv:    cv,
		shape: 1 / (cv * cv),
		scale: cv * cv / pm.total,
	}, nil
}

// Next draws a gamma gap and marks the arrival's class.
func (g *Gamma) Next(rng *rand.Rand) (gap float64, class int) {
	gap = gammaSample(rng, g.shape) * g.scale
	return gap, markClass(rng, g.rates, g.total)
}

// markClass draws an arrival's class with probability rate_k/total, the
// shared marking step of every rate-mix process.
func markClass(rng *rand.Rand, rates []float64, total float64) int {
	u := rng.Float64() * total
	var cum float64
	for k, r := range rates {
		cum += r
		if u < cum {
			return k
		}
	}
	return len(rates) - 1
}

// gammaSample draws Gamma(shape, 1) via Marsaglia–Tsang squeeze
// rejection (ACM TOMS 2000), the standard constant-expected-cost
// sampler; shapes below 1 use the boost Gamma(k) = Gamma(k+1)·U^(1/k).
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// --- MMPP ----------------------------------------------------------------

// MMPP is a two-state Markov-modulated Poisson process: a background
// Markov chain alternates between a calm state and a burst state, and
// arrivals are Poisson at the state's rate. Unlike Gamma's independent
// gaps, MMPP produces *correlated* burstiness — whole intervals of
// elevated rate — which is what diurnal-scale traffic and incident
// traffic look like, compressed to arbitrary sojourn scales. It is the
// K=1-per-class special case of the paper's MMAP[K] arrivals (§4).
//
// The construction preserves the mean: given per-class rates totalling
// λ, a burst factor b and mean sojourns (s₀, s₁), the stationary state
// probabilities are πᵢ = sᵢ/(s₀+s₁), the burst state arrives at λ₁ = bλ
// and the calm state at λ₀ = λ(1-π₁b)/π₀, so π₀λ₀ + π₁λ₁ = λ exactly.
// That requires π₁b ≤ 1 — you cannot spend more than the whole mean
// rate inside the bursts.
type MMPP struct {
	rates      []float64
	total      float64
	lambda     [2]float64 // per-state arrival rates
	switchRate [2]float64 // 1/mean sojourn, per state
	state      int
}

// NewMMPP builds a mean-preserving two-state MMPP from per-class rates
// (jobs per second; index = class), a burst factor (> 1; the burst
// state's rate is burst × the mean rate), and the mean sojourn seconds
// of the calm and burst states. The process starts in the calm state.
func NewMMPP(rates []float64, burst float64, meanSojournSec [2]float64) (*MMPP, error) {
	pm, err := NewPoissonMix(rates) // reuse the rate validation
	if err != nil {
		return nil, err
	}
	if burst <= 1 || math.IsNaN(burst) || math.IsInf(burst, 0) {
		return nil, fmt.Errorf("workload: mmpp burst factor %g must exceed 1", burst)
	}
	for _, s := range meanSojournSec {
		if !(s > 0 && s <= math.MaxFloat64) {
			return nil, fmt.Errorf("workload: mmpp sojourns %v must be positive and finite", meanSojournSec)
		}
	}
	pi1 := meanSojournSec[1] / (meanSojournSec[0] + meanSojournSec[1])
	if pi1*burst > 1 {
		return nil, fmt.Errorf(
			"workload: mmpp burst %g x stationary burst share %.3g exceeds the mean rate (need burst*share <= 1)",
			burst, pi1)
	}
	pi0 := 1 - pi1
	return &MMPP{
		rates:      pm.rates,
		total:      pm.total,
		lambda:     [2]float64{pm.total * (1 - pi1*burst) / pi0, pm.total * burst},
		switchRate: [2]float64{1 / meanSojournSec[0], 1 / meanSojournSec[1]},
	}, nil
}

// Next advances the modulating chain by competing exponentials: in
// state s the next event fires at rate λ_s + switch_s and is an arrival
// with probability λ_s/(λ_s + switch_s), otherwise the chain flips
// state and the wait continues to accumulate into the returned gap.
func (m *MMPP) Next(rng *rand.Rand) (gap float64, class int) {
	for {
		s := m.state
		r := m.lambda[s] + m.switchRate[s]
		gap += rng.ExpFloat64() / r
		if rng.Float64()*r < m.lambda[s] {
			return gap, markClass(rng, m.rates, m.total)
		}
		m.state = 1 - s
	}
}
