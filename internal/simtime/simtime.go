package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute instant on the virtual clock, in seconds since the
// start of the simulation.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration float64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// String formats the duration as seconds with millisecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fs", float64(d)) }

// EventID identifies a scheduled event so it can be cancelled or
// rescheduled. The zero EventID is never issued. IDs encode an arena slot
// plus a generation counter, so a stale ID (event already fired, cancelled,
// or its slot since reused) is detected in O(1) without any map lookup.
type EventID uint64

// makeID packs a slot index and its generation into an EventID. Slot is
// stored +1 so the zero EventID is never issued.
func makeID(slot int32, gen uint32) EventID {
	return EventID(gen)<<32 | EventID(uint32(slot+1))
}

// event is a pending callback on the simulation timeline, stored in the
// simulation's arena and reused (same slot, bumped generation) after it
// fires or is cancelled. Its ordering key lives in its heap entry.
type event struct {
	fn  func()
	gen uint32
	pos int32 // index in the heap, -1 while the slot is free
}

// heapEntry is one pending event as the heap orders it: the (at, seq) key
// inline, so sifts compare contiguous entries without touching the arena,
// and the arena slot the key belongs to.
type heapEntry struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	slot int32
}

// less orders heap entries by (at, seq).
func less(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth versus a binary heap and keeps a node's children in four adjacent
// entries, which measurably speeds the sift-down in event-dense
// simulations.
const heapArity = 4

// Simulation is a single-threaded discrete-event simulator.
// The zero value is not usable; call New.
//
// Internally the pending-event set is an indexed d-ary heap of keyed
// entries over an event arena: scheduling, firing, cancellation, and
// rescheduling are all O(log n) sifts, with no per-event allocation once
// the arena has warmed up and no auxiliary id map.
type Simulation struct {
	now     Time
	events  []event     // arena; EventIDs address slots in it
	heap    []heapEntry // keyed entries ordered as a heapArity-ary min-heap
	free    []int32     // recycled arena slots
	nextSeq uint64
}

// New returns an empty simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// siftUp moves the entry at position i towards the root until its parent
// precedes it. Only entries that move get their arena pos rewritten, so
// the entry's own pos must already be i.
func (s *Simulation) siftUp(i int) {
	h := s.heap
	x := h[i]
	start := i
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(&x, &h[parent]) {
			break
		}
		h[i] = h[parent]
		s.events[h[i].slot].pos = int32(i)
		i = parent
	}
	if i != start {
		h[i] = x
		s.events[x.slot].pos = int32(i)
	}
}

// siftDown moves the entry at position i towards the leaves until it
// precedes all its children. Like siftUp, it rewrites pos only for
// entries that move.
func (s *Simulation) siftDown(i int) {
	h := s.heap
	n := len(h)
	x := h[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+heapArity, n)
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		if !less(&h[best], &x) {
			break
		}
		h[i] = h[best]
		s.events[h[i].slot].pos = int32(i)
		i = best
	}
	if i != start {
		h[i] = x
		s.events[x.slot].pos = int32(i)
	}
}

// removeHeap detaches the heap entry at position i, restoring heap order.
func (s *Simulation) removeHeap(i int) {
	n := len(s.heap) - 1
	if i != n {
		s.heap[i] = s.heap[n]
		s.events[s.heap[i].slot].pos = int32(i)
	}
	s.heap = s.heap[:n]
	if i != n {
		s.siftDown(i)
		s.siftUp(i)
	}
}

// lookup resolves an EventID to its live arena event, or nil when the
// event already fired, was cancelled, or the id was never issued.
func (s *Simulation) lookup(id EventID) *event {
	slot := int32(uint32(id)) - 1
	if slot < 0 || int(slot) >= len(s.events) {
		return nil
	}
	ev := &s.events[slot]
	if ev.pos < 0 || ev.gen != uint32(id>>32) {
		return nil
	}
	return ev
}

// release returns a fired or cancelled event's slot to the freelist. The
// generation bump invalidates outstanding EventIDs for the slot, and
// dropping fn releases the callback's closure immediately rather than
// keeping it alive until the slot is reused.
func (s *Simulation) release(slot int32) {
	ev := &s.events[slot]
	ev.fn = nil
	ev.pos = -1
	ev.gen++
	s.free = append(s.free, slot)
}

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// or at NaN panics: it indicates a logic error in the caller, and a NaN
// key would make every heap comparison false and silently mis-order the run.
func (s *Simulation) At(t Time, fn func()) EventID {
	if !(t >= s.now) {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.events))
		s.events = append(s.events, event{pos: -1})
	}
	ev := &s.events[slot]
	ev.fn = fn
	ev.pos = int32(len(s.heap))
	s.nextSeq++
	s.heap = append(s.heap, heapEntry{at: t, seq: s.nextSeq, slot: slot})
	s.siftUp(int(ev.pos))
	return makeID(slot, ev.gen)
}

// After schedules fn to run d after the current time. Negative durations
// are clamped to zero.
func (s *Simulation) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired, was cancelled, or never existed).
func (s *Simulation) Cancel(id EventID) bool {
	ev := s.lookup(id)
	if ev == nil {
		return false
	}
	pos := int(ev.pos)
	slot := s.heap[pos].slot
	s.removeHeap(pos)
	s.release(slot)
	return true
}

// Reschedule moves a pending event to instant t, keeping its callback. The
// move counts as a fresh scheduling for FIFO ordering: among events at the
// same instant, a rescheduled event fires after ones already queued there.
// It reports whether the event was still pending; rescheduling into the
// past or to NaN panics like At.
func (s *Simulation) Reschedule(id EventID, t Time) bool {
	if !(t >= s.now) {
		panic(fmt.Sprintf("simtime: rescheduling event to %v before now %v", t, s.now))
	}
	ev := s.lookup(id)
	if ev == nil {
		return false
	}
	s.nextSeq++
	h := &s.heap[ev.pos]
	h.at, h.seq = t, s.nextSeq
	// The key moved arbitrarily: restore order from its position.
	s.siftDown(int(ev.pos))
	s.siftUp(int(ev.pos))
	return true
}

// RescheduleAfter moves a pending event to d after the current time,
// clamping negative durations to zero like After. It reports whether the
// event was still pending. This is the allocation-free alternative to
// Cancel + After for restartable timers: the callback closure is reused.
func (s *Simulation) RescheduleAfter(id EventID, d Duration) bool {
	if d < 0 {
		d = 0
	}
	return s.Reschedule(id, s.now.Add(d))
}

// Pending returns the number of events waiting to fire.
func (s *Simulation) Pending() int { return len(s.heap) }

// step fires the earliest pending event. It reports false when the queue is
// empty.
func (s *Simulation) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	top := &s.heap[0]
	slot := top.slot
	s.now = top.at
	fn := s.events[slot].fn
	s.removeHeap(0)
	s.release(slot)
	// The event is fully retired before its callback runs: fn may cancel,
	// reschedule, or schedule events (growing the arena) freely.
	fn()
	return true
}

// Run fires events until the queue drains.
func (s *Simulation) Run() {
	for s.step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled after t stay pending.
func (s *Simulation) RunUntil(t Time) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor runs the simulation for a span of virtual time from the current
// instant.
func (s *Simulation) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// NextEventTime returns the timestamp of the earliest pending event, or
// (0, false) when the queue is empty.
func (s *Simulation) NextEventTime() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// Timer is a restartable one-shot timer bound to a Simulation, analogous to
// time.Timer. The zero value is not usable; call NewTimer.
//
// Reset on an armed timer reschedules the pending event in place, so a
// timer allocates exactly one callback closure over its whole lifetime no
// matter how many times it restarts.
type Timer struct {
	sim  *Simulation
	id   EventID
	fn   func()
	fire func()
	set  bool
}

// NewTimer returns a stopped timer bound to sim.
func NewTimer(sim *Simulation) *Timer {
	t := &Timer{sim: sim}
	t.fire = func() {
		t.set = false
		fn := t.fn
		t.fn = nil
		fn()
	}
	return t
}

// Reset schedules fn to fire d from now, cancelling any pending firing.
func (t *Timer) Reset(d Duration, fn func()) {
	t.fn = fn
	if t.set && t.sim.RescheduleAfter(t.id, d) {
		return
	}
	t.id = t.sim.After(d, t.fire)
	t.set = true
}

// Stop cancels the pending firing, if any. It reports whether a firing was
// cancelled.
func (t *Timer) Stop() bool {
	if !t.set {
		return false
	}
	t.set = false
	t.fn = nil
	return t.sim.Cancel(t.id)
}

// IsFinite reports whether t is a usable instant (not NaN or ±Inf).
// Simulation entry points use it to validate externally supplied times.
func IsFinite[T ~float64](t T) bool {
	f := float64(t)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
