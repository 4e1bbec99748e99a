package federation

// LoadIndex is the routing state a member cannot answer in O(1) on its
// own: per-member, per-class suffix backlogs (a scheduler would rerun a
// per-class queue loop for each), the engine-busy bit, and availability.
// Everything else the policies key on — busy slots, utilization, sprint
// and power state — is one getter away on the member's cluster and is
// read there directly.
//
// The counters are plain array stores at the scheduler transitions that
// already exist (core.StateObserver: arrive/dispatch/complete/evict) and
// at cluster-level outages (SetMemberDown). The argmin itself is not
// maintained: the stateful policies scan the candidates at route time.
// A run makes about 200 slot and queue transitions per routing read and
// every federation in the tree has at most 8 members, so a structure
// that makes the read O(1) by making each write O(log members) costs far
// more than the scan it saves (an eagerly fixed heap per key was 24% of
// the wall-clock of a 50,000-job run; the scan does not register).
//
// The index is owned by the Federation and shared by its members; all
// updates happen in simulation context, so it is single-threaded like
// everything else on the virtual clock.
type LoadIndex struct {
	n       int // member count
	classes int

	// queued and suffix are [member*classes + class]; suffix[m][c] counts
	// buffered jobs of class >= c, so a class backlog is one add away.
	queued      []int32
	suffix      []int32
	busyJob     []int32 // 0/1: the member's engine holds a dispatched job
	totalQueued []int32
	available   []bool
	down        int
}

// newLoadIndex sizes an index for n members, all idle and available.
func newLoadIndex(n, classes int) *LoadIndex {
	li := &LoadIndex{
		n:           n,
		classes:     classes,
		queued:      make([]int32, n*classes),
		suffix:      make([]int32, n*classes),
		busyJob:     make([]int32, n),
		totalQueued: make([]int32, n),
		available:   make([]bool, n),
	}
	for m := range li.available {
		li.available[m] = true
	}
	return li
}

// --- Queries ----------------------------------------------------------------

// Members returns the member count the index covers.
func (li *LoadIndex) Members() int { return li.n }

// Classes returns the per-member priority class count.
func (li *LoadIndex) Classes() int { return li.classes }

// QueuedInClass returns member m's buffered class-c jobs.
func (li *LoadIndex) QueuedInClass(m, class int) int {
	if class < 0 || class >= li.classes {
		return 0
	}
	return int(li.queued[m*li.classes+class])
}

// Backlog returns the jobs that would precede a new class-c arrival on
// member m: buffered jobs of class >= c plus the running one. Classes at
// or above the configured count see only the running job; negative
// classes see everything.
func (li *LoadIndex) Backlog(m, class int) int {
	if class >= li.classes {
		return int(li.busyJob[m])
	}
	if class < 0 {
		class = 0
	}
	return int(li.suffix[m*li.classes+class] + li.busyJob[m])
}

// TotalQueued returns member m's buffered jobs plus the running one.
func (li *LoadIndex) TotalQueued(m int) int {
	return int(li.totalQueued[m] + li.busyJob[m])
}

// Busy reports whether member m's engine holds a dispatched job.
func (li *LoadIndex) Busy(m int) bool { return li.busyJob[m] != 0 }

// Available reports whether member m is routable (not in an outage).
func (li *LoadIndex) Available(m int) bool { return li.available[m] }

// DownMembers returns the number of members in a cluster-level outage.
func (li *LoadIndex) DownMembers() int { return li.down }

// --- Updates ----------------------------------------------------------------

// jobDelta applies one buffered-job count change on member m: the
// class's counter and the suffix backlogs it contributes to.
func (li *LoadIndex) jobDelta(m, class int, d int32) {
	base := m * li.classes
	li.queued[base+class] += d
	for c := 0; c <= class; c++ {
		li.suffix[base+c] += d
	}
	li.totalQueued[m] += d
}

// busyChanged records member m's engine occupancy flipping.
func (li *LoadIndex) busyChanged(m int, busy bool) {
	if busy {
		li.busyJob[m] = 1
	} else {
		li.busyJob[m] = 0
	}
}

// setAvailable records member m entering or leaving a cluster-level
// outage.
func (li *LoadIndex) setAvailable(m int, up bool) {
	if li.available[m] == up {
		return
	}
	li.available[m] = up
	if up {
		li.down--
	} else {
		li.down++
	}
}

// memberObserver adapts one member's core.StateObserver callbacks onto
// the shared index.
type memberObserver struct {
	li *LoadIndex
	m  int
}

func (o memberObserver) JobQueued(class int)   { o.li.jobDelta(o.m, class, 1) }
func (o memberObserver) JobDequeued(class int) { o.li.jobDelta(o.m, class, -1) }
func (o memberObserver) BusyChanged(busy bool) { o.li.busyChanged(o.m, busy) }
