package simtime

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	s.Run()
	if got := s.Now(); got != 0 {
		t.Fatalf("Now() after empty Run = %v, want 0", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestAfterClampsNegative(t *testing.T) {
	s := New()
	fired := false
	s.After(-1, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

// TestSchedulingInPastPanics: an instant before Now is a caller bug, and
// so is NaN — it compares false against everything, so it would slip past
// a plain t < now check and corrupt the heap order.
func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	for _, at := range []Time{5, Time(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("scheduling at %v with the clock at %v did not panic", at, s.Now())
				}
			}()
			s.At(at, func() {})
		}()
	}
	if s.Pending() != 0 {
		t.Fatalf("%d rejected events entered the queue", s.Pending())
	}
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	s.At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	id := s.At(1, func() { fired = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(id) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New()
	id := s.At(1, func() {})
	s.Run()
	if s.Cancel(id) {
		t.Fatal("Cancel returned true for fired event")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	ids := make([]EventID, 0, 20)
	for i := 0; i < 20; i++ {
		i := i
		ids = append(ids, s.At(Time(i), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	want := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		if i%3 == 0 {
			s.Cancel(ids[i])
		} else {
			want = append(want, i)
		}
	}
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	s := New()
	var times []Time
	var tick func()
	n := 0
	tick = func() {
		times = append(times, s.Now())
		n++
		if n < 5 {
			s.After(2, tick)
		}
	}
	s.After(2, tick)
	s.Run()
	for i, at := range times {
		if want := Time(2 * (i + 1)); at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events after Run, want 5", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := New()
	s.RunUntil(10)
	fired := false
	s.After(5, func() { fired = true })
	s.RunFor(5)
	if !fired {
		t.Fatal("event within RunFor window did not fire")
	}
	if s.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", s.Now())
	}
}

func TestNextEventTime(t *testing.T) {
	s := New()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime ok on empty queue")
	}
	s.At(7, func() {})
	at, ok := s.NextEventTime()
	if !ok || at != 7 {
		t.Fatalf("NextEventTime = %v,%v want 7,true", at, ok)
	}
}

func TestTimer(t *testing.T) {
	s := New()
	tm := NewTimer(s)
	if tm.Stop() {
		t.Fatal("Stop returned true for a new timer")
	}
	fired := 0
	tm.Reset(5, func() { fired++ })
	// Reset before firing replaces the deadline.
	tm.Reset(10, func() { fired += 100 })
	s.Run()
	if fired != 100 {
		t.Fatalf("fired = %d, want 100 (only the second reset)", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop returned true after firing")
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	tm := NewTimer(s)
	fired := false
	tm.Reset(5, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimeArithmetic(t *testing.T) {
	var t0 Time = 10
	if got := t0.Add(5); got != 15 {
		t.Fatalf("Add = %v, want 15", got)
	}
	if got := Time(15).Sub(t0); got != 5 {
		t.Fatalf("Sub = %v, want 5", got)
	}
	if Time(1.5).Seconds() != 1.5 || Duration(2.5).Seconds() != 2.5 {
		t.Fatal("Seconds round-trip failed")
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(Time(1)) || !IsFinite(Duration(0)) {
		t.Fatal("finite values reported non-finite")
	}
	zero := Time(0)
	inf := Time(1) / zero
	if IsFinite(inf) || IsFinite(inf-inf) {
		t.Fatal("non-finite values reported finite")
	}
}

// Property: for any batch of events with random times, firing order equals
// sorted order by (time, insertion index), regardless of cancellations.
func TestPropertyOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 1
		type entry struct {
			at   Time
			seq  int
			keep bool
		}
		entries := make([]entry, count)
		var fired []int
		ids := make([]EventID, count)
		for i := 0; i < count; i++ {
			at := Time(rng.Intn(10)) // coarse times force ties
			entries[i] = entry{at: at, seq: i, keep: true}
			i := i
			ids[i] = s.At(at, func() { fired = append(fired, i) })
		}
		for i := 0; i < count; i++ {
			if rng.Intn(4) == 0 {
				entries[i].keep = false
				s.Cancel(ids[i])
			}
		}
		s.Run()
		var want []int
		kept := make([]entry, 0, count)
		for _, e := range entries {
			if e.keep {
				kept = append(kept, e)
			}
		}
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].at < kept[j].at })
		for _, e := range kept {
			want = append(want, e.seq)
		}
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock is monotonically non-decreasing across callbacks.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := Time(-1)
		ok := true
		var spawn func()
		remaining := 100
		spawn = func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if remaining > 0 {
				remaining--
				s.After(Duration(rng.Float64()), spawn)
			}
		}
		for i := 0; i < 10; i++ {
			s.After(Duration(rng.Float64()*5), spawn)
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Cancellation / rescheduling edge cases (new with the indexed heap) ---

func TestCancelDuringRun(t *testing.T) {
	s := New()
	var fired []int
	var idLater EventID
	s.At(1, func() {
		fired = append(fired, 1)
		// Cancel a later event from inside a callback mid-Run.
		if !s.Cancel(idLater) {
			t.Error("Cancel of pending event during Run returned false")
		}
	})
	idLater = s.At(2, func() { fired = append(fired, 2) })
	s.At(3, func() { fired = append(fired, 3) })
	s.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

func TestCancelSelfDuringCallback(t *testing.T) {
	s := New()
	var id EventID
	id = s.At(1, func() {
		// The firing event is already retired: cancelling yourself is a no-op.
		if s.Cancel(id) {
			t.Error("Cancel of the currently firing event returned true")
		}
	})
	s.Run()
}

func TestRescheduleMovesEvent(t *testing.T) {
	s := New()
	var fired []string
	id := s.At(1, func() { fired = append(fired, "moved") })
	s.At(5, func() { fired = append(fired, "fixed") })
	if !s.Reschedule(id, 9) {
		t.Fatal("Reschedule of pending event returned false")
	}
	s.Run()
	if len(fired) != 2 || fired[0] != "fixed" || fired[1] != "moved" {
		t.Fatalf("fired = %v, want [fixed moved]", fired)
	}
	if s.Now() != 9 {
		t.Fatalf("Now() = %v, want 9", s.Now())
	}
}

func TestRescheduleActsAsFreshScheduling(t *testing.T) {
	// Among events at the same instant, a rescheduled event fires after
	// events already queued there — it is ordered as if newly scheduled.
	s := New()
	var fired []string
	id := s.At(1, func() { fired = append(fired, "rescheduled") })
	s.At(7, func() { fired = append(fired, "first-at-7") })
	s.Reschedule(id, 7)
	s.Run()
	if len(fired) != 2 || fired[0] != "first-at-7" || fired[1] != "rescheduled" {
		t.Fatalf("fired = %v, want [first-at-7 rescheduled]", fired)
	}
}

func TestRescheduleAlreadyFired(t *testing.T) {
	s := New()
	id := s.At(1, func() {})
	s.Run()
	if s.Reschedule(id, 5) {
		t.Fatal("Reschedule of fired event returned true")
	}
	if s.RescheduleAfter(id, 5) {
		t.Fatal("RescheduleAfter of fired event returned true")
	}
}

func TestRescheduleCancelledEvent(t *testing.T) {
	s := New()
	id := s.At(1, func() { t.Error("cancelled event fired") })
	s.Cancel(id)
	if s.Reschedule(id, 2) {
		t.Fatal("Reschedule of cancelled event returned true")
	}
	s.Run()
}

func TestRescheduleIntoPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	id := s.At(20, func() {})
	s.RunUntil(15)
	for _, at := range []Time{5, Time(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rescheduling to %v with the clock at %v did not panic", at, s.Now())
				}
			}()
			s.Reschedule(id, at)
		}()
	}
}

func TestRescheduleAfterClampsNegative(t *testing.T) {
	s := New()
	s.At(3, func() {})
	id := s.At(10, func() {})
	s.RunUntil(3)
	if !s.RescheduleAfter(id, -5) {
		t.Fatal("RescheduleAfter returned false for pending event")
	}
	at, ok := s.NextEventTime()
	if !ok || at != 3 {
		t.Fatalf("NextEventTime = %v,%v, want 3,true (clamped to now)", at, ok)
	}
}

func TestRescheduleDuringRun(t *testing.T) {
	// An event callback postpones a sibling event repeatedly; the sibling
	// must fire exactly once, at its final deadline.
	s := New()
	var sibling EventID
	count := 0
	sibling = s.At(2, func() { count++ })
	for _, at := range []Time{1, 3, 5} {
		at := at
		s.At(at, func() { s.Reschedule(sibling, at+3) })
	}
	s.Run()
	if count != 1 {
		t.Fatalf("sibling fired %d times, want 1", count)
	}
	if s.Now() != 8 {
		t.Fatalf("Now() = %v, want 8 (final deadline)", s.Now())
	}
}

func TestStaleIDAfterSlotReuse(t *testing.T) {
	// A fired event's slot is recycled for the next scheduling; the stale
	// id must not cancel or reschedule the new tenant.
	s := New()
	stale := s.At(1, func() {})
	s.Run()
	fired := false
	fresh := s.At(2, func() { fired = true })
	if s.Cancel(stale) {
		t.Fatal("stale id cancelled a recycled slot")
	}
	if s.Reschedule(stale, 50) {
		t.Fatal("stale id rescheduled a recycled slot")
	}
	s.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
	_ = fresh
}

// Property: interleaved cancels and reschedules preserve the (time, seq)
// firing order, where a reschedule re-anchors the event's seq as if it
// were freshly scheduled. The test mirrors the kernel's seq counter and
// checks the exact firing sequence against a reference sort.
func TestPropertyCancelRescheduleOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%48) + 2
		type entry struct {
			at   Time
			seq  int
			keep bool
		}
		entries := make([]entry, count)
		ids := make([]EventID, count)
		var fired []int
		nextSeq := 0
		for i := 0; i < count; i++ {
			at := Time(rng.Intn(8)) // coarse times force ties
			entries[i] = entry{at: at, seq: nextSeq, keep: true}
			nextSeq++
			i := i
			ids[i] = s.At(at, func() { fired = append(fired, i) })
		}
		for i := 0; i < count; i++ {
			switch rng.Intn(3) {
			case 0:
				entries[i].keep = !s.Cancel(ids[i])
			case 1:
				at := Time(rng.Intn(8))
				if s.Reschedule(ids[i], at) {
					// A reschedule re-anchors (at, seq) as a fresh scheduling.
					entries[i].at, entries[i].seq = at, nextSeq
					nextSeq++
				}
			}
		}
		s.Run()
		type keptEntry struct{ idx, seq int }
		var want []keptEntry
		for i, e := range entries {
			if e.keep {
				want = append(want, keptEntry{idx: i, seq: e.seq})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			ea, eb := entries[want[a].idx], entries[want[b].idx]
			if ea.at != eb.at {
				return ea.at < eb.at
			}
			return ea.seq < eb.seq
		})
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i].idx {
				return false
			}
		}
		return s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTimerChurn exercises the Cancel/Reschedule hot path the engine
// and scheduler timers hit: an armed timer repeatedly restarted before it
// fires. With the indexed heap and closure reuse this allocates nothing
// per restart.
func BenchmarkTimerChurn(b *testing.B) {
	s := New()
	tm := NewTimer(s)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(1, fn)
	}
	tm.Stop()
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		s.Run()
	}
}
