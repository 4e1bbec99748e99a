// Package simtime provides a deterministic discrete-event simulation
// kernel: a virtual clock plus a priority queue of scheduled events.
//
// All DiAS experiments run on virtual time. A Simulation owns the clock
// and the pending-event set; events scheduled for the same instant fire in
// scheduling order, which keeps runs bit-for-bit reproducible. Time is
// represented as seconds in a float64-backed type, and the simulation
// never reads the wall clock.
//
// # Event queue
//
// The pending-event set is an indexed d-ary min-heap (arity 4) over an
// event arena. Every operation the engine's hot path needs — At/After
// scheduling, firing, Cancel, and Reschedule/RescheduleAfter — is an
// O(log n) sift. Each heap entry holds its (at, seq) key inline next to
// its arena slot, so sifts compare contiguous entries, and only entries
// that move have their arena position rewritten. Event slots are recycled
// through a freelist, so steady-state event churn allocates nothing, and
// EventIDs carry a generation counter that detects stale ids (fired,
// cancelled, or slot reused) in O(1) without a map.
//
// # Cancellation and rescheduling
//
// Cancel removes a pending event and immediately drops its callback so
// the closure does not outlive the event. Reschedule moves a pending
// event to a new instant while keeping its callback — the allocation-free
// way to restart timers and to rescale in-flight work under DVFS speed
// changes. A rescheduled event is ordered as if freshly scheduled: among
// events at the same instant it fires after events already queued there.
// Both operations report false for events that already fired; an event's
// own callback observes its id as no longer pending.
//
// Timer wraps this into a restartable one-shot timer analogous to
// time.Timer that allocates a single closure over its whole lifetime.
package simtime
