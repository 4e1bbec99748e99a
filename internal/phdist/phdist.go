// Package phdist implements continuous phase-type (PH) distributions: the
// building block of the paper's job processing-time models (§4).
//
// A PH distribution is the time to absorption of a Markov chain with
// transient generator A (an n×n sub-generator) started from the row vector
// α. The class is closed under convolution and mixture, which the paper
// exploits to assemble job processing times from setup, map-wave, shuffle
// and reduce-wave components.
package phdist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dias/internal/matrix"
)

// PH is a phase-type distribution with initial vector Alpha and transient
// sub-generator A. Mass may be placed directly in the absorbing state by
// having Alpha sum to less than one (an atom at zero).
type PH struct {
	alpha []float64
	a     *matrix.Matrix
}

// New validates and builds a PH distribution. Alpha must be a
// sub-probability vector of the same order as the square sub-generator a:
// off-diagonal entries nonnegative, diagonal negative-or-zero, row sums <= 0
// with at least one strictly negative exit overall.
func New(alpha []float64, a *matrix.Matrix) (*PH, error) {
	cp := make([]float64, len(alpha))
	copy(cp, alpha)
	return newOwned(cp, a.Clone())
}

// newOwned is New for a representation the caller built and hands over:
// validated the same way, not copied. The package's own constructors
// (Erlang, Convolve, Mixture, …) assemble fresh generators of a few hundred
// phases; cloning each one again doubled what a convolution chain allocates.
func newOwned(alpha []float64, a *matrix.Matrix) (*PH, error) {
	n := len(alpha)
	if a.Rows() != n || a.Cols() != n {
		return nil, fmt.Errorf("phdist: alpha has %d entries but A is %dx%d", n, a.Rows(), a.Cols())
	}
	if n == 0 {
		return nil, errors.New("phdist: empty representation")
	}
	var mass float64
	for i, v := range alpha {
		if !(v >= -1e-12) {
			return nil, fmt.Errorf("phdist: alpha[%d] = %g negative or NaN", i, v)
		}
		mass += v
	}
	if !(mass <= 1+1e-9) {
		return nil, fmt.Errorf("phdist: alpha mass %g exceeds 1", mass)
	}
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			v := a.At(i, j)
			if i == j {
				if !(v <= 1e-12) {
					return nil, fmt.Errorf("phdist: diagonal A[%d][%d] = %g positive or NaN", i, j, v)
				}
			} else if !(v >= -1e-12) {
				return nil, fmt.Errorf("phdist: off-diagonal A[%d][%d] = %g negative or NaN", i, j, v)
			}
			row += v
		}
		if !(row <= 1e-9) {
			return nil, fmt.Errorf("phdist: row %d of A sums to %g > 0", i, row)
		}
	}
	return &PH{alpha: alpha, a: a}, nil
}

// MustNew is New for statically known-valid representations; it panics on
// error and is intended for package-internal constructors and tests.
func MustNew(alpha []float64, a *matrix.Matrix) *PH {
	ph, err := New(alpha, a)
	if err != nil {
		panic(err)
	}
	return ph
}

// Order returns the number of transient phases.
func (p *PH) Order() int { return len(p.alpha) }

// ExitVector returns a = -A·1, the absorption rates per phase.
func (p *PH) ExitVector() []float64 {
	n := p.Order()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			row += p.a.At(i, j)
		}
		out[i] = -row
	}
	return out
}

// Moments returns the first k raw moments E[X], …, E[X^k], where
// E[Xⁱ] = i!·α·(-A)⁻ⁱ·1: one LU factorisation and k triangular solves,
// never an inverse. The factorisation is of A itself — A·zᵢ = zᵢ₋₁ from
// z₀ = 1 gives zᵢ = (-1)ⁱ·(-A)⁻ⁱ·1 exactly, signs being free in floating
// point — which saves negating a copy of the generator.
func (p *PH) Moments(k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("phdist: Moments(%d)", k)
	}
	f, err := matrix.Factorize(p.a)
	if err != nil {
		return nil, fmt.Errorf("moment of defective generator: %w", err)
	}
	out := make([]float64, k)
	z := matrix.Ones(p.Order())
	signedFact := 1.0
	for i := 1; i <= k; i++ {
		z = f.Solve(z)
		signedFact *= -float64(i)
		out[i-1] = signedFact * matrix.Dot(p.alpha, z)
	}
	return out, nil
}

// Moment returns the k-th raw moment E[X^k].
func (p *PH) Moment(k int) (float64, error) {
	ms, err := p.Moments(k)
	if err != nil {
		return 0, err
	}
	return ms[k-1], nil
}

// Mean returns E[X].
func (p *PH) Mean() (float64, error) { return p.Moment(1) }

// Sample draws one value by simulating the absorbing chain.
func (p *PH) Sample(rng *rand.Rand) float64 {
	n := p.Order()
	// Choose initial phase; mass 1-Σα is an atom at zero.
	u := rng.Float64()
	state := -1
	var cum float64
	for i := 0; i < n; i++ {
		cum += p.alpha[i]
		if u < cum {
			state = i
			break
		}
	}
	if state < 0 {
		return 0
	}
	exit := p.ExitVector()
	var t float64
	for {
		rate := -p.a.At(state, state)
		if rate <= 0 {
			return t // defensive: absorbing-like phase
		}
		t += rng.ExpFloat64() / rate
		// Choose next phase or absorption proportionally to rates.
		u := rng.Float64() * rate
		cum := exit[state]
		if u < cum {
			return t
		}
		next := -1
		for j := 0; j < n; j++ {
			if j == state {
				continue
			}
			cum += p.a.At(state, j)
			if u < cum {
				next = j
				break
			}
		}
		if next < 0 {
			return t
		}
		state = next
	}
}

// Exponential returns an exponential distribution with the given rate.
func Exponential(rate float64) (*PH, error) {
	if !(rate > 0 && rate <= math.MaxFloat64) {
		return nil, fmt.Errorf("phdist: Exponential rate %g", rate)
	}
	return newOwned([]float64{1}, matrix.New(1, 1, []float64{-rate}))
}

// Erlang returns the sum of k exponentials of the given rate.
func Erlang(k int, rate float64) (*PH, error) {
	if k < 1 || !(rate > 0 && rate <= math.MaxFloat64) {
		return nil, fmt.Errorf("phdist: Erlang(%d, %g)", k, rate)
	}
	a := matrix.Zeros(k, k)
	for i := 0; i < k; i++ {
		a.Set(i, i, -rate)
		if i+1 < k {
			a.Set(i, i+1, rate)
		}
	}
	alpha := make([]float64, k)
	alpha[0] = 1
	return newOwned(alpha, a)
}

// HyperExponential returns a probabilistic mixture of exponentials.
func HyperExponential(probs, rates []float64) (*PH, error) {
	if len(probs) != len(rates) || len(probs) == 0 {
		return nil, fmt.Errorf("phdist: HyperExponential %d probs, %d rates", len(probs), len(rates))
	}
	n := len(probs)
	a := matrix.Zeros(n, n)
	var mass float64
	for i := 0; i < n; i++ {
		if !(rates[i] > 0 && rates[i] <= math.MaxFloat64) || !(probs[i] >= 0) {
			return nil, fmt.Errorf("phdist: HyperExponential branch %d (p=%g, rate=%g)", i, probs[i], rates[i])
		}
		a.Set(i, i, -rates[i])
		mass += probs[i]
	}
	if !(math.Abs(mass-1) <= 1e-9) {
		return nil, fmt.Errorf("phdist: HyperExponential probabilities sum to %g", mass)
	}
	return newOwned(append([]float64(nil), probs...), a)
}

// Convolve returns the distribution of X+Y for independent PH X and Y:
// the chain runs X to absorption, then starts Y.
func Convolve(x, y *PH) *PH {
	nx, ny := x.Order(), y.Order()
	n := nx + ny
	a := matrix.Zeros(n, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			a.Set(i, j, x.a.At(i, j))
		}
	}
	exit := x.ExitVector()
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			a.Set(i, nx+j, exit[i]*y.alpha[j])
		}
	}
	for i := 0; i < ny; i++ {
		for j := 0; j < ny; j++ {
			a.Set(nx+i, nx+j, y.a.At(i, j))
		}
	}
	alpha := make([]float64, n)
	copy(alpha, x.alpha)
	// Atom at zero in X starts Y immediately.
	var mass float64
	for _, v := range x.alpha {
		mass += v
	}
	if atom := 1 - mass; atom > 1e-12 {
		for j := 0; j < ny; j++ {
			alpha[nx+j] = atom * y.alpha[j]
		}
	}
	out, err := newOwned(alpha, a)
	if err != nil {
		panic(err) // two valid representations convolve into a valid one
	}
	return out
}

// ConvolveAll returns the distribution of the sum of independent PH
// variables: the chain runs each in turn to absorption. It writes the
// chained generator once, bit for bit the one a pairwise Convolve fold
// builds: each row keeps its running sum in column order, so every exit
// product -rowsum·α is the float the fold computes.
func ConvolveAll(ps ...*PH) (*PH, error) {
	if len(ps) == 0 {
		return nil, errors.New("phdist: ConvolveAll of nothing")
	}
	if len(ps) == 1 {
		return ps[0], nil
	}
	var n int
	for _, p := range ps {
		n += p.Order()
	}
	a := matrix.Zeros(n, n)
	alpha := make([]float64, n)
	rowSum := make([]float64, n)
	var mass float64 // Σ alpha so far, summed in order as Convolve does
	off := 0
	for _, p := range ps {
		// The chain so far exits into p's initial phases…
		for i := 0; i < off; i++ {
			exit := -rowSum[i]
			for j, aj := range p.alpha {
				v := exit * aj
				a.Set(i, off+j, v)
				rowSum[i] += v
			}
		}
		// …and its atom at zero starts p immediately.
		if atom := 1 - mass; atom > 1e-12 {
			for j, aj := range p.alpha {
				alpha[off+j] = atom * aj
				mass += alpha[off+j]
			}
		}
		m := p.Order()
		for i := 0; i < m; i++ {
			var row float64
			for j := 0; j < m; j++ {
				v := p.a.At(i, j)
				a.Set(off+i, off+j, v)
				row += v
			}
			rowSum[off+i] = row
		}
		off += m
	}
	return newOwned(alpha, a)
}

// Mixture returns the distribution that is ps[i] with probability ws[i].
// Weights must be nonnegative and sum to 1.
func Mixture(ws []float64, ps []*PH) (*PH, error) {
	if len(ws) != len(ps) || len(ws) == 0 {
		return nil, fmt.Errorf("phdist: Mixture %d weights, %d components", len(ws), len(ps))
	}
	var mass float64
	var n int
	for i, w := range ws {
		if !(w >= 0) {
			return nil, fmt.Errorf("phdist: Mixture weight %d = %g", i, w)
		}
		mass += w
		n += ps[i].Order()
	}
	if !(math.Abs(mass-1) <= 1e-9) {
		return nil, fmt.Errorf("phdist: Mixture weights sum to %g", mass)
	}
	a := matrix.Zeros(n, n)
	alpha := make([]float64, n)
	off := 0
	for i, p := range ps {
		for r := 0; r < p.Order(); r++ {
			alpha[off+r] = ws[i] * p.alpha[r]
			for c := 0; c < p.Order(); c++ {
				a.Set(off+r, off+c, p.a.At(r, c))
			}
		}
		off += p.Order()
	}
	return newOwned(alpha, a)
}

// FitMeanSCV returns a small PH matching a mean and squared coefficient of
// variation: exponential at scv≈1, an Erlang-like (possibly fractional via
// mixture) fit for scv<1, and a balanced two-phase hyperexponential for
// scv>1. This is the standard two-moment fit used to parameterize wave
// execution times from profiled task samples.
func FitMeanSCV(mean, scv float64) (*PH, error) {
	if !(mean > 0 && mean <= math.MaxFloat64) || math.IsNaN(scv) || math.IsInf(scv, 0) {
		return nil, fmt.Errorf("phdist: FitMeanSCV(%g, %g)", mean, scv)
	}
	const eps = 1e-6
	switch {
	case math.Abs(scv-1) <= eps:
		return Exponential(1 / mean)
	case scv < eps:
		// Near-deterministic: cap the order to keep matrices small.
		return Erlang(64, 64/mean)
	case scv < 1:
		// Tijms' two-moment fit: for 1/K <= scv <= 1/(K-1), a mixture of
		// Erlang(K-1) and Erlang(K) with a common rate matches both moments.
		// The order is capped at 64 to keep downstream matrix work (moments,
		// convolutions) tractable; below scv=1/64 the fit degrades to a pure
		// Erlang(64), slightly overestimating variability.
		k := int(math.Ceil(1 / scv))
		if k < 2 {
			k = 2
		}
		if k > 64 {
			k = 64
		}
		kf := float64(k)
		p := (kf*scv - math.Sqrt(kf*(1+scv)-kf*kf*scv)) / (1 + scv)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		rate := (kf - p) / mean
		ek1, err := Erlang(k-1, rate)
		if err != nil {
			return nil, err
		}
		ek, err := Erlang(k, rate)
		if err != nil {
			return nil, err
		}
		return Mixture([]float64{p, 1 - p}, []*PH{ek1, ek})
	default: // scv > 1: two-phase hyperexponential, balanced means.
		p1 := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
		p2 := 1 - p1
		r1 := 2 * p1 / mean
		r2 := 2 * p2 / mean
		return HyperExponential([]float64{p1, p2}, []float64{r1, r2})
	}
}
