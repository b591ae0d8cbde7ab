package runtime

// The blocking primitives every layer waits on, written once over the
// Task/Ticket seam: a waiter takes a ticket with Task.Prepare, registers it
// where the wakeup will come from, and parks; whoever makes progress wakes
// the ticket. Both backends keep these structures consistent the way they
// keep any store structure — through the execution contract — so neither
// type carries a lock, and on the sim kernel each wake is the same
// zero-delay event it always was.

// Queue is an unbounded FIFO connecting tasks: producers Put without
// blocking, consumers Get and block while the queue is empty. Getters are
// served in FIFO order. The zero value is an empty queue.
type Queue struct {
	items   []any
	head    int
	getters []Ticket
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Put appends v and wakes one blocked getter, if any.
func (q *Queue) Put(v any) {
	q.items = append(q.items, v)
	if len(q.getters) > 0 {
		tk := q.getters[0]
		q.getters = shiftDown(q.getters)
		tk.Wake()
	}
}

// TryGet pops the head item without blocking. ok is false when empty.
func (q *Queue) TryGet() (v any, ok bool) {
	if q.Len() == 0 {
		return nil, false
	}
	v = q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Get pops the head item, blocking the task while the queue is empty.
func (q *Queue) Get(t Task) any {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.getters = append(q.getters, t.Prepare())
		t.Park()
	}
}

// resWaiter is one task waiting for n units of a Resource.
type resWaiter struct {
	tk      Ticket
	n       int64
	granted *bool
}

// Resource is a counting semaphore: the standard model for anything with
// bounded concurrency (SSD service units, admission tokens, DMA engines).
// Waiters are granted strictly in FIFO order, so a large request at the head
// blocks smaller ones behind it — matching hardware queues.
type Resource struct {
	capacity int64
	avail    int64
	waiters  []resWaiter
}

// NewResource returns a resource with the given capacity, fully available.
func NewResource(capacity int64) *Resource {
	return &Resource{capacity: capacity, avail: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Avail returns the currently available units.
func (r *Resource) Avail() int64 { return r.avail }

// InUse returns capacity minus available units.
func (r *Resource) InUse() int64 { return r.capacity - r.avail }

// Waiting returns the number of queued acquirers — the waiting-queue
// occupancy schedulers use to detect over-subscription.
func (r *Resource) Waiting() int { return len(r.waiters) }

// TryAcquire takes n units if immediately available and nobody is queued
// ahead. It reports whether the units were taken.
func (r *Resource) TryAcquire(n int64) bool {
	if len(r.waiters) > 0 || r.avail < n {
		return false
	}
	r.avail -= n
	return true
}

// Acquire blocks the task until n units are available and all earlier
// waiters have been served.
func (r *Resource) Acquire(t Task, n int64) {
	if n > r.capacity {
		panic("runtime: Resource.Acquire exceeds capacity")
	}
	if r.TryAcquire(n) {
		return
	}
	granted := false
	r.waiters = append(r.waiters, resWaiter{tk: t.Prepare(), n: n, granted: &granted})
	for !granted {
		t.Park()
		if !granted {
			// Spurious wake (a stale ticket); re-park with a fresh ticket
			// wired to the same waiter entry.
			for i := range r.waiters {
				if r.waiters[i].granted == &granted {
					r.waiters[i].tk = t.Prepare()
				}
			}
		}
	}
}

// Release returns n units and grants as many queued waiters as now fit, in
// FIFO order.
func (r *Resource) Release(n int64) {
	r.avail += n
	if r.avail > r.capacity {
		panic("runtime: Resource.Release over capacity")
	}
	for len(r.waiters) > 0 && r.waiters[0].n <= r.avail {
		w := r.waiters[0]
		r.waiters = shiftDown(r.waiters)
		r.avail -= w.n
		*w.granted = true
		w.tk.Wake()
	}
}

// shiftDown drops the head of a waiter list by shifting the rest down.
// Reslicing forward (s[1:]) would walk the slice base off its backing
// array, so the next append would allocate a fresh one — once per blocking
// Get or Acquire, on the serve hot path.
func shiftDown[T any](s []T) []T {
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	return s[:n]
}
