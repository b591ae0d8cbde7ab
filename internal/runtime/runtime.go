// Package runtime defines the execution substrate the LEED stack runs on.
//
// Every layer above the device models (flashsim, core, engine, the leed
// facade) is written against the small interfaces in this package instead of
// a concrete scheduler, so the same store code runs on two backends:
//
//   - internal/sim: the deterministic discrete-event kernel. Virtual time,
//     single-threaded baton-passing execution, bit-identical replays.
//   - internal/runtime/wallclock: real goroutines, time.Now/time.Sleep and
//     sync under a single runtime lock, for serving real traffic.
//
// The execution contract both backends provide: at most one Task executes
// user code at any instant, and a Task releases the processor only inside
// the blocking primitives (Sleep, Wait, Park, Queue.Get, Resource.Acquire).
// Code written for this contract needs no data-level locking of its own —
// exactly the invariant the sim kernel has always provided — while the
// wallclock backend still overlaps timers, device I/O completions, and
// sleeping tasks in real time.
//
// A backend supplies only the clock, the spawner, Task.Prepare/Park with
// its Ticket, and Event. Queue and Resource are written once in this
// package over that seam, so both backends run one algorithm. Event stays
// per backend because its fire path is where each backend's scheduler
// lives: the sim kernel schedules callbacks as heap events, while the
// wallclock backend carries the payload in its run-queue entry so a fire
// allocates nothing.
package runtime

import "leed/internal/obs"

// Env is one runtime environment: a clock, a timer wheel, a spawner, and
// constructors for the synchronization primitives the stack is built from.
type Env interface {
	// Now returns the current time: virtual nanoseconds on the sim backend,
	// nanoseconds since Env creation on the wallclock backend.
	Now() Time
	// After schedules fn to run d from now. fn runs in scheduler context
	// (it must not block); completions and timeouts are wired through it.
	After(d Time, fn func())
	// Spawn starts fn as a new task. name is used for debugging.
	Spawn(name string, fn func(t Task))
	// Offload runs fn outside the execution contract and then runs done with
	// fn's result back in scheduler context. It is the seam for real blocking
	// work (file I/O syscalls) that must not stall every other task: the
	// wallclock backend executes fn on a worker-pool goroutine without the
	// runtime lock, so submissions keep flowing while the syscall runs; the
	// sim backend executes fn inline at the current virtual time, preserving
	// determinism. fn must not touch Env state or any structure protected by
	// the execution contract — it gets its inputs up front and communicates
	// results only through its return value.
	Offload(fn func() any, done func(v any))
	// AfterIdle runs fn once, outside the execution contract, when the
	// environment next goes quiet: at the first point where the runtime
	// lock is given up with no zero-delay callback queued and no task woken
	// or spawned that has yet to run. The deferral is bounded — a busy
	// environment that never goes quiet still runs fn within a fixed number
	// of lock hand-offs. It is the seam for work that gains from batching
	// across tasks (a coalesced socket write). Like Offload's fn, fn must
	// not touch Env state or structures protected by the execution
	// contract. Call in task or scheduler context. The sim backend runs fn
	// as After(0, fn).
	AfterIdle(fn func())
	// MakeEvent returns an unfired one-shot completion event.
	MakeEvent() Event
	// MakeQueue returns an empty unbounded FIFO queue.
	MakeQueue() *Queue
	// MakeResource returns a counting semaphore with the given capacity.
	MakeResource(capacity int64) *Resource
	// MakeHistogram returns an empty latency histogram.
	MakeHistogram() *obs.Histogram
}

// Task is the execution context of one running task. Blocking store APIs
// take a Task the same way POSIX blocking calls implicitly take a thread.
type Task interface {
	// Name returns the task's debug name.
	Name() string
	// Now returns the environment's current time.
	Now() Time
	// Sleep blocks the task for d.
	Sleep(d Time)
	// Wait blocks until ev fires and returns its payload. The event must
	// belong to the same Env as the task.
	Wait(ev Event) any
	// Prepare issues a one-shot wakeup ticket for the task's next Park.
	// Custom blocking primitives (e.g. core's per-segment locks) register
	// the ticket with whoever will wake them, then Park.
	Prepare() Ticket
	// Park blocks until a ticket from the most recent Prepare is woken.
	// Wakeups may be spurious; callers must loop on their condition.
	Park()
	// Blocking runs fn on the task while it is released from the execution
	// contract, so fn may block in a syscall (a socket read, an accept)
	// without stalling other tasks; the task resumes under the contract
	// when fn returns. The wallclock backend gives up the runtime lock
	// around fn, as Sleep does; the sim backend runs fn inline. fn must not
	// touch state protected by the contract.
	Blocking(fn func())
}

// Ticket is a one-shot wakeup permit issued by Task.Prepare. A ticket whose
// task has moved on (woken by something else, or exited) is silently
// ignored, so stale wakeups are harmless.
type Ticket interface {
	// Wake schedules the ticket's task to resume now.
	Wake()
	// WakeAfter schedules the wakeup d into the future.
	WakeAfter(d Time)
}

// Event is a one-shot completion signal with an optional payload. Any number
// of tasks may Wait on it and any number of callbacks may be attached; all
// are released when Fire is called. Firing twice panics: completions in this
// system are single-owner.
type Event interface {
	// Fire marks the event complete, wakes all waiters, and schedules all
	// callbacks.
	Fire(val any)
	// Fired reports whether the event has fired.
	Fired() bool
	// Value returns the payload passed to Fire, or nil if not yet fired.
	Value() any
	// OnFire registers fn to run (in scheduler context) when the event
	// fires. If the event already fired, fn is scheduled immediately.
	OnFire(fn func(val any))
}
