package workload

import (
	"errors"
	"fmt"
	"math/rand"
)

// Process is a stateful arrival process: each call draws the gap to the
// next arrival and its priority class. PoissonMix satisfies it, as do
// the bursty Gamma and MMPP processes (MMPP is the per-class case of the
// paper's MMAP[K] arrivals, §4) and the replay process below, so
// scenarios can swap arrival models freely.
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
