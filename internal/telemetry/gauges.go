package telemetry

import (
	"fmt"

	"dias/internal/simtime"
)

// Column describes one gauge series. Member routes the series to the
// right process lane in the Chrome export.
type Column struct {
	Name   string
	Member int
}

// Timeline is a columnar gauge store: one shared time axis, one float64
// series per column. Rows are appended in simulated-time order by a
// Sampler.
type Timeline struct {
	cols  []Column
	times []float64
	rows  [][]float64
}

// Columns returns the column descriptors.
func (t *Timeline) Columns() []Column { return t.cols }

// Len returns the number of sampled rows.
func (t *Timeline) Len() int { return len(t.times) }

// Row returns the i-th sample: its simulated time and one value per
// column. The returned slice is the backing store; do not mutate it.
func (t *Timeline) Row(i int) (float64, []float64) { return t.times[i], t.rows[i] }

func (t *Timeline) append(at float64, row []float64) {
	t.times = append(t.times, at)
	t.rows = append(t.rows, row)
}

// MemberGauges is the per-member read surface a Sampler polls. The
// function fields are bound to the scheduler and cluster getters
// (method values), keeping telemetry free of upward imports.
type MemberGauges struct {
	// Classes is the priority-class count; QueuedInClass is sampled for
	// each class in [0, Classes).
	Classes       int
	QueuedInClass func(class int) int
	// Rejected is the cumulative admission-reject counter; the sampler
	// differentiates it into a per-interval rate.
	Rejected     func() int
	BusySlots    func() int
	PoweredNodes func() int
	Utilization  func() float64
}

// Sampler drives a simulation while sampling gauges into a Timeline at a
// fixed simulated-time cadence. It deliberately schedules no simulation
// events: a gauge tick after the last real event would advance the clock
// and change the run's makespan and energy integrals, breaking the
// telemetry-off invariance guarantee. Instead, Drive interleaves
// RunUntil calls between real events, so the event queue and the final
// clock are exactly those of an untraced run.
type Sampler struct {
	tl           *Timeline
	interval     simtime.Duration
	members      []MemberGauges
	lastRejected []int
}

// NewSampler builds the gauge timeline for the given members (index i is
// member i), attaches it to the collector, and returns the sampler. The
// cadence comes from the collector's GaugeIntervalSec.
func NewSampler(c *Collector, members []MemberGauges) *Sampler {
	tl := &Timeline{}
	for i, g := range members {
		for k := 0; k < g.Classes; k++ {
			tl.cols = append(tl.cols, Column{Name: fmt.Sprintf("c%d.queued.k%d", i, k), Member: i})
		}
		tl.cols = append(tl.cols,
			Column{Name: fmt.Sprintf("c%d.busy_slots", i), Member: i},
			Column{Name: fmt.Sprintf("c%d.powered_nodes", i), Member: i},
			Column{Name: fmt.Sprintf("c%d.utilization", i), Member: i},
			Column{Name: fmt.Sprintf("c%d.reject_rate", i), Member: i},
		)
	}
	c.SetTimeline(tl)
	return &Sampler{
		tl:           tl,
		interval:     simtime.Duration(c.cfg.GaugeIntervalSec),
		members:      members,
		lastRejected: make([]int, len(members)),
	}
}

// Drive replaces sim.Run(): it fires every pending event while sampling
// the gauges each interval of simulated time, and leaves the clock at the
// last real event — byte-identical figures with telemetry on or off.
func (s *Sampler) Drive(sim *simtime.Simulation) {
	s.sample(sim.Now())
	next := sim.Now().Add(s.interval)
	for {
		t, ok := sim.NextEventTime()
		if !ok {
			// Queue drained: stop sampling so the clock stays at the last
			// real event instead of advancing to the next tick.
			return
		}
		if t < next {
			sim.RunUntil(t)
			continue
		}
		// Fires any events at exactly the tick instant first, then advances
		// the clock to it: samples observe post-event state.
		sim.RunUntil(next)
		s.sample(sim.Now())
		next = next.Add(s.interval)
	}
}

func (s *Sampler) sample(now simtime.Time) {
	row := make([]float64, 0, len(s.tl.cols))
	interval := s.interval.Seconds()
	for i, g := range s.members {
		for k := 0; k < g.Classes; k++ {
			row = append(row, float64(g.QueuedInClass(k)))
		}
		rejected := g.Rejected()
		rate := float64(rejected-s.lastRejected[i]) / interval
		s.lastRejected[i] = rejected
		row = append(row,
			float64(g.BusySlots()),
			float64(g.PoweredNodes()),
			g.Utilization(),
			rate,
		)
	}
	s.tl.append(now.Seconds(), row)
}
