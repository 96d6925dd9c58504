package pipeline

// Ring is a capacity-pinned FIFO: the out-of-order core's ROB, LSQ halves
// and front-end queue (rings of *uop), and the in-order cores' fetch queues
// (rings of uop values). The backing array is allocated once at core
// construction, so the pipeline's push/pop traffic — tens of millions of
// operations per simulated second — performs zero steady-state heap work,
// unlike `q = q[1:]` slices whose backing arrays drift and force a
// reallocation every capacity's-worth of pops.
//
// Operations keep program order: PushBack at the tail, PopFront at the
// head, At(i) indexes from the head, and Truncate drops a suffix (flush).
// Vacated slots are zeroed so a recycled entry is never reachable through
// a stale slot.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// NewRing returns a ring with room for capacity entries (minimum 1).
func NewRing[T any](capacity int) Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return Ring[T]{buf: make([]T, capacity)}
}

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.n }

// slot maps a logical index to a physical one without a divide.
func (r *Ring[T]) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

// At returns the i-th entry in program order (0 = oldest).
func (r *Ring[T]) At(i int) T { return r.buf[r.slot(i)] }

// Front returns the oldest entry in place; it stays valid until the next
// PopFront or Truncate.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Set overwrites the i-th entry.
func (r *Ring[T]) Set(i int, v T) { r.buf[r.slot(i)] = v }

// PushBack appends v, growing the backing array if the ring is full (the
// cores check their structural limits first, so growth only happens when
// a caller runs an over-subscribed configuration).
func (r *Ring[T]) PushBack(v T) { *r.PushSlot() = v }

// PushSlot appends a zero entry and returns it in place for the caller to
// fill, so a large entry is written once instead of being built and then
// copied in by PushBack. The pointer stays valid until the next push,
// PopFront or Truncate.
func (r *Ring[T]) PushSlot() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	p := &r.buf[r.slot(r.n)]
	r.n++
	return p
}

// PopFront removes the oldest entry.
func (r *Ring[T]) PopFront() {
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// Truncate drops every entry at logical index >= keep.
func (r *Ring[T]) Truncate(keep int) {
	var zero T
	for i := keep; i < r.n; i++ {
		r.Set(i, zero)
	}
	r.n = keep
}

// grow doubles the backing array, re-linearizing the contents.
func (r *Ring[T]) grow() {
	nb := make([]T, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = r.At(i)
	}
	r.buf = nb
	r.head = 0
}
