package workload

import (
	"errors"
	"fmt"
	"math/rand"
)

// Process is a stateful arrival process: each call draws the gap to the
// next arrival and its priority class. PoissonMix satisfies it, as do
// the bursty Gamma and MMPP processes (MMPP is the per-class case of the
// paper's MMAP[K] arrivals, §4) and the replay/bootstrap processes below,
// so scenarios can swap arrival models freely.
type Process interface {
	Next(rng *rand.Rand) (gap float64, class int)
}

// StreamOf materialises the first n arrivals of any process.
func StreamOf(p Process, rng *rand.Rand, n int) []Arrival {
	out := make([]Arrival, 0, n)
	var t float64
	for i := 0; i < n; i++ {
		gap, k := p.Next(rng)
		t += gap
		out = append(out, Arrival{At: t, Class: k})
	}
	return out
}

// --- Trace replay ---------------------------------------------------------

// Replay re-issues a recorded arrival sequence with its original gaps,
// cycling when exhausted (the wrap gap equals the first recorded arrival
// time, so long replays repeat the trace back to back). Replay ignores the
// RNG: it is fully deterministic.
type Replay struct {
	arrivals []Arrival
	idx      int
	prevAt   float64
}

// NewReplay validates and wraps a recorded arrival sequence. Arrivals must
// be in nondecreasing time order with nonnegative times and classes.
func NewReplay(arrivals []Arrival) (*Replay, error) {
	if len(arrivals) == 0 {
		return nil, errors.New("workload: empty replay sequence")
	}
	prev := 0.0
	for i, a := range arrivals {
		if a.At < prev {
			return nil, fmt.Errorf("workload: replay arrival %d at %g precedes %g", i, a.At, prev)
		}
		if a.Class < 0 {
			return nil, fmt.Errorf("workload: replay arrival %d has class %d", i, a.Class)
		}
		prev = a.At
	}
	cp := make([]Arrival, len(arrivals))
	copy(cp, arrivals)
	return &Replay{arrivals: cp}, nil
}

// Next replays the next recorded arrival, ignoring the RNG.
func (r *Replay) Next(_ *rand.Rand) (gap float64, class int) {
	a := r.arrivals[r.idx]
	if r.idx == 0 {
		// Wrap (or first) gap: from virtual time zero of this cycle.
		gap = a.At
	} else {
		gap = a.At - r.prevAt
	}
	r.prevAt = a.At
	r.idx++
	if r.idx == len(r.arrivals) {
		r.idx = 0
		r.prevAt = 0
	}
	return gap, a.Class
}

// Len returns the number of recorded arrivals in one replay cycle.
func (r *Replay) Len() int { return len(r.arrivals) }

// Rescale multiplies every arrival time by factor: factor > 1 stretches the
// stream (lower load), factor < 1 compresses it (higher load).
func Rescale(arrivals []Arrival, factor float64) ([]Arrival, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("workload: rescale factor %g must be positive", factor)
	}
	out := make([]Arrival, len(arrivals))
	for i, a := range arrivals {
		out[i] = Arrival{At: a.At * factor, Class: a.Class}
	}
	return out, nil
}

// --- Bootstrap ------------------------------------------------------------

// Empirical is a bootstrap arrival process: it resamples (gap, class) pairs
// i.i.d. from a recorded stream, preserving the marginal inter-arrival
// distribution and class mix while discarding temporal correlation. Useful
// to extend a short trace into an arbitrarily long stationary stream.
type Empirical struct {
	gaps    []float64
	classes []int
}

// NewEmpirical builds the bootstrap from a recorded arrival sequence.
func NewEmpirical(arrivals []Arrival) (*Empirical, error) {
	if len(arrivals) == 0 {
		return nil, errors.New("workload: empty empirical sequence")
	}
	e := &Empirical{
		gaps:    make([]float64, len(arrivals)),
		classes: make([]int, len(arrivals)),
	}
	prev := 0.0
	for i, a := range arrivals {
		if a.At < prev {
			return nil, fmt.Errorf("workload: empirical arrival %d at %g precedes %g", i, a.At, prev)
		}
		if a.Class < 0 {
			return nil, fmt.Errorf("workload: empirical arrival %d has class %d", i, a.Class)
		}
		e.gaps[i] = a.At - prev
		e.classes[i] = a.Class
		prev = a.At
	}
	return e, nil
}

// Next resamples one recorded (gap, class) pair.
func (e *Empirical) Next(rng *rand.Rand) (gap float64, class int) {
	i := rng.Intn(len(e.gaps))
	return e.gaps[i], e.classes[i]
}

// MeanGap returns the average recorded inter-arrival gap.
func (e *Empirical) MeanGap() float64 {
	var s float64
	for _, g := range e.gaps {
		s += g
	}
	return s / float64(len(e.gaps))
}

// ClassMix returns the empirical class-frequency vector (indexed by class,
// sized to the largest class seen, summing to 1).
func (e *Empirical) ClassMix() []float64 {
	maxClass := 0
	for _, c := range e.classes {
		if c > maxClass {
			maxClass = c
		}
	}
	mix := make([]float64, maxClass+1)
	for _, c := range e.classes {
		mix[c]++
	}
	for i := range mix {
		mix[i] /= float64(len(e.classes))
	}
	return mix
}
