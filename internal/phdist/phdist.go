// Package phdist implements continuous phase-type (PH) distributions: the
// building block of the paper's job processing-time models (§4).
//
// A PH distribution is the time to absorption of a Markov chain with
// transient generator A (an n×n sub-generator) started from the row vector
// α. The class is closed under convolution and mixture, which the paper
// exploits to assemble job processing times from setup, map-wave, shuffle
// and reduce-wave components.
//
// Every chain the model builds is acyclic: a phase only moves on to
// higher-numbered phases, so A is upper triangular. It is stored as sparse
// rows — the diagonal, then the non-zero entries right of it in ascending
// column order — and the moments come from back-substitution over those
// rows. The dense matrix package is only New's input format and, through
// its LU solve, the reference the tests hold the moments to.
package phdist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dias/internal/matrix"
)

// PH is a phase-type distribution with initial vector alpha and transient
// sub-generator A. Mass may be placed directly in the absorbing state by
// having alpha sum to less than one (an atom at zero).
//
// A is upper triangular and stored by rows: diag[i] is A[i][i], and row
// i's non-zero entries right of the diagonal are val[next[i]:next[i+1]],
// in the ascending columns col[next[i]:next[i+1]].
type PH struct {
	alpha, diag, val []float64
	next, col        []int32
}

// alloc returns an order-n PH with room for nnz off-diagonal entries, all
// zero: one float and one index allocation behind the five slices, which
// are filled in place and never appended to.
func alloc(n, nnz int) *PH {
	if n+1+nnz > math.MaxInt32 {
		panic(fmt.Sprintf("phdist: %d phases and %d entries overflow the int32 row index", n, nnz))
	}
	fs := make([]float64, 2*n+nnz)
	is := make([]int32, n+1+nnz)
	return &PH{
		alpha: fs[:n], diag: fs[n : 2*n], val: fs[2*n:],
		next: is[:n+1], col: is[n+1:],
	}
}

// New validates and builds a PH distribution from a dense sub-generator.
// Alpha must be a sub-probability vector of the same order as the square
// sub-generator a: off-diagonal entries nonnegative, diagonal
// negative-or-zero, row sums <= 0 with at least one strictly negative exit
// overall. The chain must be acyclic with its phases in order: an entry
// below the diagonal is an error. Neither argument is retained.
func New(alpha []float64, a *matrix.Matrix) (*PH, error) {
	n := len(alpha)
	if a.Rows() != n || a.Cols() != n {
		return nil, fmt.Errorf("phdist: alpha has %d entries but A is %dx%d", n, a.Rows(), a.Cols())
	}
	nnz := 0
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := a.At(i, j); v != 0 {
				return nil, fmt.Errorf("phdist: A[%d][%d] = %g below the diagonal: the chain is cyclic or its phases are out of order", i, j, v)
			}
		}
		for j := i + 1; j < n; j++ {
			if a.At(i, j) != 0 {
				nnz++
			}
		}
	}
	p := alloc(n, nnz)
	copy(p.alpha, alpha)
	e := 0
	for i := 0; i < n; i++ {
		p.diag[i] = a.At(i, i)
		for j := i + 1; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				p.col[e], p.val[e] = int32(j), v
				e++
			}
		}
		p.next[i+1] = int32(e)
	}
	return newOwned(p)
}

// newOwned validates a representation the package assembled itself, as New
// validates a caller's.
func newOwned(p *PH) (*PH, error) {
	n := p.Order()
	if n == 0 {
		return nil, errors.New("phdist: empty representation")
	}
	var mass float64
	for i, v := range p.alpha {
		if !(v >= -1e-12) {
			return nil, fmt.Errorf("phdist: alpha[%d] = %g negative or NaN", i, v)
		}
		mass += v
	}
	if !(mass <= 1+1e-9) {
		return nil, fmt.Errorf("phdist: alpha mass %g exceeds 1", mass)
	}
	for i, d := range p.diag {
		if !(d <= 1e-12) {
			return nil, fmt.Errorf("phdist: diagonal A[%d][%d] = %g positive or NaN", i, i, d)
		}
		cols, vals := p.row(i)
		for k, v := range vals {
			if !(v >= -1e-12) {
				return nil, fmt.Errorf("phdist: off-diagonal A[%d][%d] = %g negative or NaN", i, int(cols[k]), v)
			}
		}
		if row := p.rowSum(i); !(row <= 1e-9) {
			return nil, fmt.Errorf("phdist: row %d of A sums to %g > 0", i, row)
		}
	}
	return p, nil
}

// MustNew is New for statically known-valid representations; it panics on
// error and is intended for tests.
func MustNew(alpha []float64, a *matrix.Matrix) *PH {
	ph, err := New(alpha, a)
	if err != nil {
		panic(err)
	}
	return ph
}

// Order returns the number of transient phases.
func (p *PH) Order() int { return len(p.alpha) }

// row returns the columns and rates of row i's entries right of the
// diagonal.
func (p *PH) row(i int) ([]int32, []float64) {
	lo, hi := p.next[i], p.next[i+1]
	return p.col[lo:hi], p.val[lo:hi]
}

// rowSum returns the sum of row i of A in column order, starting from +0
// as a dense row's sum does: the zero entries a dense row also adds change
// no such sum, so it is the float the dense sum gives.
func (p *PH) rowSum(i int) float64 {
	var s float64
	s += p.diag[i]
	_, vals := p.row(i)
	for _, v := range vals {
		s += v
	}
	return s
}

// copyRow copies row r of src's entries right of the diagonal into p from
// entry e on, their columns shifted by off, and returns the next free
// entry.
func (p *PH) copyRow(e int, src *PH, r, off int) int {
	cols, vals := src.row(r)
	for k, c := range cols {
		p.col[e], p.val[e] = c+int32(off), vals[k]
		e++
	}
	return e
}

// ExitVector returns a = -A·1, the absorption rates per phase.
func (p *PH) ExitVector() []float64 {
	out := make([]float64, p.Order())
	for i := range out {
		out[i] = -p.rowSum(i)
	}
	return out
}

// Moments returns the first k raw moments E[X], …, E[X^k], where
// E[Xⁱ] = i!·α·(-A)⁻ⁱ·1: k back-substitutions over A's rows, never an
// inverse. A·zᵢ = zᵢ₋₁ from z₀ = 1 gives zᵢ = (-1)ⁱ·(-A)⁻ⁱ·1 exactly, signs
// being free in floating point, which saves negating the generator.
func (p *PH) Moments(k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("phdist: Moments(%d)", k)
	}
	for _, d := range p.diag {
		if d == 0 { // a phase that is never left: the chain need not absorb
			return nil, fmt.Errorf("moment of defective generator: %w", matrix.ErrSingular)
		}
	}
	out := make([]float64, k)
	z := matrix.Ones(p.Order())
	signedFact := 1.0
	for i := 1; i <= k; i++ {
		p.solve(z)
		signedFact *= -float64(i)
		out[i-1] = signedFact * matrix.Dot(p.alpha, z)
	}
	return out, nil
}

// solve overwrites z with A⁻¹·z. A is upper triangular, so row i, taken
// last to first, needs only the entries already solved right of it. They
// are subtracted in ascending column order, as a dense LU solve of A
// subtracts them: on a triangular A that solve never pivots and every
// elimination multiplier is zero, so both perform the same operations on
// the same floats, the dense one with exact-zero terms added.
func (p *PH) solve(z []float64) {
	for i := len(z) - 1; i >= 0; i-- {
		cols, vals := p.row(i)
		zi := z[i]
		for k, c := range cols {
			zi -= float64(vals[k] * z[c])
		}
		z[i] = zi / p.diag[i]
	}
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

// Sample draws one value by simulating the absorbing chain. It allocates
// nothing.
func (p *PH) Sample(rng *rand.Rand) float64 {
	// Choose initial phase; mass 1-Σα is an atom at zero.
	u := rng.Float64()
	state := -1
	var cum float64
	for i, a := range p.alpha {
		cum += a
		if u < cum {
			state = i
			break
		}
	}
	if state < 0 {
		return 0
	}
	var t float64
	for {
		rate := -p.diag[state]
		if rate <= 0 {
			return t // defensive: absorbing-like phase
		}
		t += rng.ExpFloat64() / rate
		// Choose absorption or the next phase proportionally to rates.
		u := rng.Float64() * rate
		cum := -p.rowSum(state)
		if u < cum {
			return t
		}
		next := -1
		cols, vals := p.row(state)
		for k, v := range vals {
			cum += v
			if u < cum {
				next = int(cols[k])
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
	p := alloc(1, 0)
	p.alpha[0], p.diag[0] = 1, -rate
	return newOwned(p)
}

// Erlang returns the sum of k exponentials of the given rate.
func Erlang(k int, rate float64) (*PH, error) {
	if k < 1 || !(rate > 0 && rate <= math.MaxFloat64) {
		return nil, fmt.Errorf("phdist: Erlang(%d, %g)", k, rate)
	}
	p := alloc(k, k-1)
	p.alpha[0] = 1
	for i := range k {
		p.diag[i] = -rate
	}
	for i := 0; i+1 < k; i++ {
		p.col[i], p.val[i] = int32(i+1), rate
		p.next[i+1] = int32(i + 1)
	}
	p.next[k] = int32(k - 1)
	return newOwned(p)
}

// HyperExponential returns a probabilistic mixture of exponentials.
func HyperExponential(probs, rates []float64) (*PH, error) {
	if len(probs) != len(rates) || len(probs) == 0 {
		return nil, fmt.Errorf("phdist: HyperExponential %d probs, %d rates", len(probs), len(rates))
	}
	p := alloc(len(probs), 0)
	var mass float64
	for i, r := range rates {
		if !(r > 0 && r <= math.MaxFloat64) || !(probs[i] >= 0) {
			return nil, fmt.Errorf("phdist: HyperExponential branch %d (p=%g, rate=%g)", i, probs[i], r)
		}
		p.diag[i] = -r
		mass += probs[i]
	}
	if !(math.Abs(mass-1) <= 1e-9) {
		return nil, fmt.Errorf("phdist: HyperExponential probabilities sum to %g", mass)
	}
	copy(p.alpha, probs)
	return newOwned(p)
}

// Convolve returns the distribution of X+Y for independent PH X and Y:
// the chain runs X to absorption, then starts Y.
func Convolve(x, y *PH) *PH {
	nx, ny := x.Order(), y.Order()
	exit := x.ExitVector()
	nnz := len(x.val) + len(y.val)
	for _, ex := range exit {
		for _, aj := range y.alpha {
			if ex*aj != 0 {
				nnz++
			}
		}
	}
	out := alloc(nx+ny, nnz)
	e := 0
	for i := 0; i < nx; i++ {
		out.diag[i] = x.diag[i]
		e = out.copyRow(e, x, i, 0)
		for j, aj := range y.alpha {
			if v := exit[i] * aj; v != 0 {
				out.col[e], out.val[e] = int32(nx+j), v
				e++
			}
		}
		out.next[i+1] = int32(e)
	}
	for i := 0; i < ny; i++ {
		out.diag[nx+i] = y.diag[i]
		e = out.copyRow(e, y, i, nx)
		out.next[nx+i+1] = int32(e)
	}
	copy(out.alpha, x.alpha)
	// Atom at zero in X starts Y immediately.
	var mass float64
	for _, v := range x.alpha {
		mass += v
	}
	if atom := 1 - mass; atom > 1e-12 {
		for j, aj := range y.alpha {
			out.alpha[nx+j] = atom * aj
		}
	}
	p, err := newOwned(out)
	if err != nil {
		panic(err) // two valid representations convolve into a valid one
	}
	return p
}

// chainExits writes the entries a row gets from the components ps that
// follow its own in a convolution chain, the first of them starting at
// column off, into col and val, and returns how many there are; with col
// nil it only counts them. sum is the row's sum so far in column order.
// Each component receives the row's exit -sum split by its initial
// vector, and the sum runs on over those entries as it does over a dense
// row, so every exit is the float a pairwise Convolve fold computes. Once
// the sum is zero the row has no exit left to pass on.
func chainExits(sum float64, ps []*PH, off int, col []int32, val []float64) int {
	e := 0
	for _, q := range ps {
		if sum == 0 {
			break
		}
		exit := -sum
		for j, aj := range q.alpha {
			v := float64(exit * aj)
			if v == 0 {
				continue
			}
			if col != nil {
				col[e], val[e] = int32(off+j), v
			}
			e++
			sum += v
		}
		off += q.Order()
	}
	return e
}

// ConvolveAll returns the distribution of the sum of independent PH
// variables: the chain runs each in turn to absorption. It writes the
// chained generator once, bit for bit the one a pairwise Convolve fold
// builds, sized by a first pass that counts each row's entries.
func ConvolveAll(ps ...*PH) (*PH, error) {
	if len(ps) == 0 {
		return nil, errors.New("phdist: ConvolveAll of nothing")
	}
	if len(ps) == 1 {
		return ps[0], nil
	}
	var n, nnz int
	for c, p := range ps {
		n += p.Order()
		nnz += len(p.val)
		for r := range p.Order() {
			nnz += chainExits(p.rowSum(r), ps[c+1:], 0, nil, nil)
		}
	}
	out := alloc(n, nnz)
	var mass float64 // Σ alpha so far, summed in order as Convolve does
	e, off := 0, 0
	for c, p := range ps {
		// An atom at zero of the chain so far starts p immediately.
		if atom := 1 - mass; atom > 1e-12 {
			for j, aj := range p.alpha {
				out.alpha[off+j] = atom * aj
				mass += out.alpha[off+j]
			}
		}
		m := p.Order()
		for r := 0; r < m; r++ {
			out.diag[off+r] = p.diag[r]
			e = out.copyRow(e, p, r, off)
			e += chainExits(p.rowSum(r), ps[c+1:], off+m, out.col[e:], out.val[e:])
			out.next[off+r+1] = int32(e)
		}
		off += m
	}
	return newOwned(out)
}

// Mixture returns the distribution that is ps[i] with probability ws[i].
// Weights must be nonnegative and sum to 1.
func Mixture(ws []float64, ps []*PH) (*PH, error) {
	if len(ws) != len(ps) || len(ws) == 0 {
		return nil, fmt.Errorf("phdist: Mixture %d weights, %d components", len(ws), len(ps))
	}
	var mass float64
	var n, nnz int
	for i, w := range ws {
		if !(w >= 0) {
			return nil, fmt.Errorf("phdist: Mixture weight %d = %g", i, w)
		}
		mass += w
		n += ps[i].Order()
		nnz += len(ps[i].val)
	}
	if !(math.Abs(mass-1) <= 1e-9) {
		return nil, fmt.Errorf("phdist: Mixture weights sum to %g", mass)
	}
	out := alloc(n, nnz)
	e, off := 0, 0
	for i, p := range ps {
		for r := 0; r < p.Order(); r++ {
			out.alpha[off+r] = ws[i] * p.alpha[r]
			out.diag[off+r] = p.diag[r]
			e = out.copyRow(e, p, r, off)
			out.next[off+r+1] = int32(e)
		}
		off += p.Order()
	}
	return newOwned(out)
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
		p := (float64(kf*scv) - math.Sqrt(float64(kf*(1+scv))-float64(kf*kf*scv))) / (1 + scv)
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
		p1 := float64(0.5 * (1 + math.Sqrt((scv-1)/(scv+1))))
		p2 := 1 - p1
		r1 := 2 * p1 / mean
		r2 := 2 * p2 / mean
		return HyperExponential([]float64{p1, p2}, []float64{r1, r2})
	}
}
