// Package ring provides a growable ring-buffer deque used by the
// simulation hot paths (engine task queues, scheduler class buffers,
// queueing-model wait queues). Unlike the previous slice-based queues
// (`q = q[1:]` pops and `append([]*T{x}, q...)` pushes), a Deque reuses
// its backing array across drain/refill cycles, so steady-state queue
// traffic performs no allocation at all.
package ring

// Deque is a double-ended queue backed by a circular buffer.
// The zero value is an empty deque ready for use.
type Deque[T any] struct {
	buf  []T
	head int // index of the front element when n > 0
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// grow doubles the buffer (minimum 8) and linearizes the contents.
func (d *Deque[T]) grow() {
	c := len(d.buf) * 2
	if c < 8 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// PushBack appends x at the tail.
func (d *Deque[T]) PushBack(x T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = x
	d.n++
}

// PushFront inserts x at the head.
func (d *Deque[T]) PushFront(x T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = x
	d.n++
}

// Front returns the head element; it panics on an empty deque.
func (d *Deque[T]) Front() T {
	if d.n == 0 {
		panic("ring: Front of empty deque")
	}
	return d.buf[d.head]
}

// PopFront removes and returns the head element; it panics on an empty
// deque. The vacated slot is zeroed so popped pointers do not linger.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("ring: PopFront of empty deque")
	}
	var zero T
	x := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return x
}
