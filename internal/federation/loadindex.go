package federation

// LoadIndex is the routing state a member cannot answer in O(1) on its
// own: per-member, per-class suffix backlogs (a scheduler would rerun a
// per-class queue loop for each) and the engine-busy bit. Everything else
// the policies key on — busy slots, utilization, sprint and power state,
// availability — is one getter away on the member and is read there
// directly.
//
// The counters are plain array stores at the scheduler transitions that
// already exist (core.StateObserver: arrive/dispatch/complete/evict). The
// argmin itself is not maintained: the stateful policies scan the
// candidates at route time. A run makes about 200 slot and queue
// transitions per routing read and every federation in the tree has at
// most 8 members, so a structure that makes the read O(1) by making each
// write O(log members) costs far more than the scan it saves (an eagerly
// fixed heap per key was 24% of the wall-clock of a 50,000-job run; the
// scan does not register).
//
// The index is owned by the Federation and shared by its members; all
// updates happen in simulation context, so it is single-threaded like
// everything else on the virtual clock.
type LoadIndex struct {
	classes int

	// suffix is [member*classes + class]; suffix[m][c] counts buffered
	// jobs of class >= c, so a class backlog is one add away.
	suffix      []int32
	busyJob     []int32 // 0/1: the member's engine holds a dispatched job
	totalQueued []int32
}

// newLoadIndex sizes an index for n idle members.
func newLoadIndex(n, classes int) *LoadIndex {
	return &LoadIndex{
		classes:     classes,
		suffix:      make([]int32, n*classes),
		busyJob:     make([]int32, n),
		totalQueued: make([]int32, n),
	}
}

// --- Queries ----------------------------------------------------------------

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

// --- Updates ----------------------------------------------------------------

// jobDelta applies one buffered-job count change on member m: the suffix
// backlogs it contributes to and the member's total.
func (li *LoadIndex) jobDelta(m, class int, d int32) {
	base := m * li.classes
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

// memberObserver adapts one member's core.StateObserver callbacks onto
// the shared index.
type memberObserver struct {
	li *LoadIndex
	m  int
}

func (o memberObserver) JobQueued(class int)   { o.li.jobDelta(o.m, class, 1) }
func (o memberObserver) JobDequeued(class int) { o.li.jobDelta(o.m, class, -1) }
func (o memberObserver) BusyChanged(busy bool) { o.li.busyChanged(o.m, busy) }
