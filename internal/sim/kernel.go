// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing scheduled events in
// (time, sequence) order. Simulation actors are written as ordinary blocking
// Go code inside a Proc: a goroutine that the kernel resumes one at a time,
// baton-passing style, so execution is single-threaded and fully
// deterministic even though every actor is its own goroutine.
//
// The package also provides the kernel's own one-shot multi-waiter Events and
// a FIFO Mutex. Blocking FIFO queues and counting-semaphore resources are
// runtime.Queue and runtime.Resource, which park through Proc like any
// other task.
package sim

import (
	"container/heap"
	"sync"

	"leed/internal/runtime"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is the shared runtime.Time, aliased so sim-side code keeps
// its historical spelling; arithmetic on Time values is plain integer
// arithmetic.
type Time = runtime.Time

// Convenient duration units of virtual time.
const (
	Nanosecond  = runtime.Nanosecond
	Microsecond = runtime.Microsecond
	Millisecond = runtime.Millisecond
	Second      = runtime.Second
)

// schedEntry is one pending event on the kernel heap.
type schedEntry struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	fn   func()
}

type eventHeap []schedEntry

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)       { *h = append(*h, x.(schedEntry)) }
func (h *eventHeap) Pop() any         { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() *schedEntry { return &h[0] }

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct one with New. A Kernel and everything scheduled on it
// must be used from a single OS-level caller: procs hand execution back and
// forth with the kernel but never run concurrently.
type Kernel struct {
	now   Time
	seq   uint64
	heap  eventHeap
	yield chan struct{} // proc -> kernel baton
	pmu   sync.Mutex    // guards procs and Proc.done during Close teardown
	procs map[*Proc]struct{}
	fault any // captured proc panic, re-raised by Run
	nproc int // name counter
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	return &Kernel{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time when. Events scheduled in
// the past run at the current time. Events with equal times run in the order
// they were scheduled.
func (k *Kernel) At(when Time, fn func()) {
	if when < k.now {
		when = k.now
	}
	k.seq++
	heap.Push(&k.heap, schedEntry{when: when, seq: k.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Run executes events until the heap is empty or the optional deadline (the
// first until value, if given) is reached, and returns the final time.
func (k *Kernel) Run(until ...Time) Time {
	deadline := Time(-1)
	if len(until) > 0 {
		deadline = until[0]
	}
	for len(k.heap) > 0 {
		if deadline >= 0 && k.heap.peek().when > deadline {
			k.now = deadline
			return k.now
		}
		e := heap.Pop(&k.heap).(schedEntry)
		k.now = e.when
		e.fn()
		if k.fault != nil {
			panic(k.fault)
		}
	}
	if deadline >= 0 && deadline > k.now {
		k.now = deadline
	}
	return k.now
}

// Idle reports whether no events remain.
func (k *Kernel) Idle() bool { return len(k.heap) == 0 }

// Close releases every parked proc goroutine. Call it once after the last
// Run; the kernel must not be used afterwards. Released procs unwind via
// runtime.Goexit on their own goroutines; pmu keeps their self-removal from
// the proc table ordered against this sweep.
func (k *Kernel) Close() {
	k.pmu.Lock()
	for p := range k.procs {
		if !p.done {
			p.done = true
			close(p.resume)
		}
		delete(k.procs, p)
	}
	k.pmu.Unlock()
}
