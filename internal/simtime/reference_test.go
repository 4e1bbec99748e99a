package simtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// kernel is the surface the differential test drives: the Simulation and
// the sorted-slice reference below both implement it.
type kernel interface {
	Now() Time
	At(t Time, fn func()) EventID
	After(d Duration, fn func()) EventID
	Cancel(id EventID) bool
	Reschedule(id EventID, t Time) bool
	RescheduleAfter(id EventID, d Duration) bool
	Pending() int
	NextEventTime() (Time, bool)
	Stop()
	Run()
	RunUntil(t Time)
}

// timer is the restartable-timer surface of both kernels.
type timer interface {
	Reset(d Duration, fn func())
	Stop() bool
	Active() bool
}

// refKernel is the obviously-correct reference for the heap kernel: the
// pending set is one slice kept sorted by (at, seq), an insert is a binary
// search plus a copy, an id lookup is a linear scan, and firing pops the
// front. Its only contract is the one Simulation documents.
type refKernel struct {
	now     Time
	pending []refEvent
	nextSeq uint64
	nextID  EventID
	stopped bool
}

type refEvent struct {
	at  Time
	seq uint64
	id  EventID
	fn  func()
}

func (r *refKernel) insert(ev refEvent) {
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		return p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)
	})
	r.pending = slices.Insert(r.pending, i, ev)
}

func (r *refKernel) find(id EventID) int {
	for i, ev := range r.pending {
		if ev.id == id {
			return i
		}
	}
	return -1
}

func (r *refKernel) Now() Time { return r.now }

func (r *refKernel) At(t Time, fn func()) EventID {
	if !(t >= r.now) {
		panic(fmt.Sprintf("reference: scheduling at %v before now %v", t, r.now))
	}
	r.nextSeq++
	r.nextID++
	r.insert(refEvent{at: t, seq: r.nextSeq, id: r.nextID, fn: fn})
	return r.nextID
}

func (r *refKernel) After(d Duration, fn func()) EventID {
	return r.At(r.now.Add(max(d, 0)), fn)
}

func (r *refKernel) Cancel(id EventID) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	r.pending = slices.Delete(r.pending, i, i+1)
	return true
}

func (r *refKernel) Reschedule(id EventID, t Time) bool {
	if !(t >= r.now) {
		panic(fmt.Sprintf("reference: rescheduling to %v before now %v", t, r.now))
	}
	i := r.find(id)
	if i < 0 {
		return false
	}
	ev := r.pending[i]
	r.pending = slices.Delete(r.pending, i, i+1)
	r.nextSeq++
	ev.at, ev.seq = t, r.nextSeq
	r.insert(ev)
	return true
}

func (r *refKernel) RescheduleAfter(id EventID, d Duration) bool {
	return r.Reschedule(id, r.now.Add(max(d, 0)))
}

func (r *refKernel) Pending() int { return len(r.pending) }

func (r *refKernel) NextEventTime() (Time, bool) {
	if len(r.pending) == 0 {
		return 0, false
	}
	return r.pending[0].at, true
}

func (r *refKernel) Stop() { r.stopped = true }

func (r *refKernel) step() {
	ev := r.pending[0]
	r.pending = slices.Delete(r.pending, 0, 1)
	r.now = ev.at
	ev.fn()
}

func (r *refKernel) Run() {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		r.step()
	}
}

func (r *refKernel) RunUntil(t Time) {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 && r.pending[0].at <= t {
		r.step()
	}
	if !r.stopped && t > r.now {
		r.now = t
	}
}

// refTimer is Timer's documented behaviour over any kernel: Reset moves
// an armed firing in place, otherwise schedules a fresh one.
type refTimer struct {
	k   kernel
	id  EventID
	fn  func()
	set bool
}

func (t *refTimer) fire() {
	t.set = false
	fn := t.fn
	t.fn = nil
	fn()
}

func (t *refTimer) Reset(d Duration, fn func()) {
	t.fn = fn
	if t.set && t.k.RescheduleAfter(t.id, d) {
		return
	}
	t.id = t.k.After(d, t.fire)
	t.set = true
}

func (t *refTimer) Stop() bool {
	if !t.set {
		return false
	}
	t.set = false
	t.fn = nil
	return t.k.Cancel(t.id)
}

func (t *refTimer) Active() bool { return t.set }

// driveKernel runs one seeded random program against k and returns its
// observable transcript: every firing with the clock, Pending and
// NextEventTime seen from inside the callback, every Cancel/Reschedule/
// Timer.Stop verdict, and the state after each RunUntil, Run and Stop.
// Times are quantised to 0.5 s so coincident instants are common, and
// callbacks issue further operations, so both the (at, seq) tiebreak and
// in-callback mutation are exercised. The program's choices depend only
// on the seed and on what it observed, so two kernels that agree on every
// observation produce the same transcript.
func driveKernel(k kernel, timers []timer, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	var ids []EventID
	labels := 0
	// Time offsets in [0, 5] s on a 0.5 s grid.
	quantum := func() Duration { return Duration(rng.Intn(11)) * 0.5 }
	pick := func() (int, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return rng.Intn(len(ids)), true
	}
	var op func(inCallback bool)
	callback := func() func() {
		labels++
		label := labels
		return func() {
			next, ok := k.NextEventTime()
			logf("fire %d now=%v pending=%d next=%v/%v", label, k.Now(), k.Pending(), next, ok)
			for n := rng.Intn(3); n > 0; n-- {
				op(true)
			}
		}
	}
	op = func(inCallback bool) {
		// Past a budget, stop creating events so every program drains.
		grow := labels < 400
		switch c := rng.Intn(10); {
		case c == 0 && grow:
			ids = append(ids, k.At(k.Now().Add(quantum()), callback()))
		case c == 1 && grow:
			d := quantum()
			if rng.Intn(5) == 0 {
				d = -d // clamped to now
			}
			ids = append(ids, k.After(d, callback()))
		case c == 2:
			if i, ok := pick(); ok {
				logf("cancel %d -> %v", i, k.Cancel(ids[i]))
			}
		case c == 3:
			if i, ok := pick(); ok {
				logf("reschedule %d -> %v", i, k.Reschedule(ids[i], k.Now().Add(quantum())))
			}
		case c == 4:
			if i, ok := pick(); ok {
				logf("reschedule-after %d -> %v", i, k.RescheduleAfter(ids[i], quantum()-1))
			}
		case c == 5 && grow:
			ti := rng.Intn(len(timers))
			timers[ti].Reset(quantum(), callback())
			logf("timer %d reset active=%v", ti, timers[ti].Active())
		case c == 6:
			ti := rng.Intn(len(timers))
			logf("timer %d stop -> %v", ti, timers[ti].Stop())
		case c == 7 && inCallback && rng.Intn(4) == 0:
			k.Stop()
			logf("stop")
		}
		next, ok := k.NextEventTime()
		logf("  now=%v pending=%d next=%v/%v", k.Now(), k.Pending(), next, ok)
	}
	for round := 0; round < 12; round++ {
		for n := rng.Intn(8); n > 0; n-- {
			op(false)
		}
		// RunUntil boundaries on the same grid land on event instants.
		until := k.Now().Add(quantum())
		k.RunUntil(until)
		next, ok := k.NextEventTime()
		logf("run-until %v: now=%v pending=%d next=%v/%v", until, k.Now(), k.Pending(), next, ok)
	}
	for k.Pending() > 0 {
		k.Run()
		next, ok := k.NextEventTime()
		logf("run: now=%v pending=%d next=%v/%v", k.Now(), k.Pending(), next, ok)
	}
	return log
}

// TestKernelMatchesSortedReference is the heap kernel's differential
// oracle: over seeded random programs of At, After, Cancel, Reschedule,
// RescheduleAfter, Timer.Reset/Stop and Stop — issued from the top level
// and from inside callbacks, at coincident instants, across RunUntil
// boundaries — the heap and the sorted-slice reference must fire the same
// events in the same order and agree on Now, Pending and NextEventTime at
// every step.
func TestKernelMatchesSortedReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	fired := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sim := New()
		got := driveKernel(sim, []timer{NewTimer(sim), NewTimer(sim)}, seed)
		ref := &refKernel{}
		want := driveKernel(ref, []timer{&refTimer{k: ref}, &refTimer{k: ref}}, seed)
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: transcripts diverge at line %d:\n heap:      %s\n reference: %s", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: heap transcript has %d lines, reference %d", seed, len(got), len(want))
		}
		for _, line := range got {
			if strings.HasPrefix(line, "fire ") {
				fired++
			}
		}
	}
	// The programs must actually exercise the kernel.
	if fired < 10*seeds {
		t.Fatalf("only %d firings over %d programs", fired, seeds)
	}
}
