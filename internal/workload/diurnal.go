package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// DiurnalMix is a nonhomogeneous Poisson arrival process whose total rate
// swings sinusoidally around a mean — the classic diurnal load pattern
// elastic-capacity experiments stress autoscalers with:
//
//	rate(t) = total(rates) * (1 + Amplitude * sin(2π t / PeriodSec))
//
// Classes are drawn by the fixed per-class mix of rates. Arrivals are
// generated by Lewis–Shedler thinning against the peak rate, so the
// process is an exact nonhomogeneous Poisson stream, stateful like Replay
// (it tracks its own absolute time; use a fresh instance per run).
type DiurnalMix struct {
	rates     []float64
	total     float64
	amplitude float64
	periodSec float64
	t         float64 // absolute time of the last arrival
}

// NewDiurnalMix builds the process from per-class mean rates (index =
// class), a relative amplitude in [0,1) and the swing period in seconds.
func NewDiurnalMix(rates []float64, amplitude, periodSec float64) (*DiurnalMix, error) {
	pm, err := NewPoissonMix(rates) // reuse the rate validation
	if err != nil {
		return nil, err
	}
	if !(amplitude >= 0 && amplitude < 1) {
		return nil, fmt.Errorf("workload: diurnal amplitude %g out of [0,1)", amplitude)
	}
	if !(periodSec > 0 && periodSec <= math.MaxFloat64) {
		return nil, fmt.Errorf("workload: diurnal period %g", periodSec)
	}
	return &DiurnalMix{rates: pm.rates, total: pm.total, amplitude: amplitude, periodSec: periodSec}, nil
}

// rateAt returns the instantaneous total rate.
func (d *DiurnalMix) rateAt(t float64) float64 {
	return d.total * (1 + d.amplitude*math.Sin(2*math.Pi*t/d.periodSec))
}

// PeakRate returns the maximum instantaneous total rate.
func (d *DiurnalMix) PeakRate() float64 { return d.total * (1 + d.amplitude) }

// Next draws the gap to the next arrival (thinning against the peak rate)
// and its class.
func (d *DiurnalMix) Next(rng *rand.Rand) (gap float64, class int) {
	peak := d.PeakRate()
	t := d.t
	for {
		t += rng.ExpFloat64() / peak
		if rng.Float64()*peak <= d.rateAt(t) {
			break
		}
	}
	gap = t - d.t
	d.t = t
	// The class mix is time-invariant: only the total swings.
	u := rng.Float64() * d.total
	var cum float64
	for k, r := range d.rates {
		cum += r
		if u < cum {
			return gap, k
		}
	}
	return gap, len(d.rates) - 1
}
