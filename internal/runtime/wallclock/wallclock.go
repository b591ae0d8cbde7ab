// Package wallclock implements runtime.Env on real time: tasks are plain
// goroutines, Sleep is time.Sleep, timers with a positive delay are
// time.AfterFunc, and zero-delay work goes through an Env-owned run queue.
//
// The backend keeps the execution contract the store code was written for —
// at most one task runs at any instant — with a single environment-wide
// mutex (a "big runtime lock", like an early OS kernel): a task holds the
// lock from the moment it is scheduled until it blocks in a primitive, which
// releases the lock for the duration of the wait. Device I/O, timers, and
// sleeping tasks therefore overlap in real time while all store state is
// still accessed one task at a time, so the unlocked data structures in
// core/engine/flashsim are race-free here too (and `go test -race` agrees).
//
// Zero-delay callbacks — After(0, fn), Event.OnFire fan-out, device
// completions, group-commit flushes — never touch a timer or start a
// goroutine. They are appended to a FIFO run queue, and whoever holds the
// runtime lock drains that queue on its way out (Park, Sleep, Blocking,
// task exit, the end of a timer callback or an offload completion; see
// release). That is the paper's run-to-completion loop (§3.4): a task whose
// completion is produced by the drain it runs on its way into Park finds
// its wake token already waiting and carries on, on the same goroutine,
// without a timer, a goroutine start or a context switch.
//
// Two primitives let a task step outside the contract without a goroutine
// hand-off. Task.Blocking releases the lock around a blocking syscall made
// on the task's own goroutine (a socket read), the shape Sleep has.
// Env.AfterIdle defers a hook to the first release that finds the
// environment quiet — run queue empty, and no task woken, spawned or back
// from a blocking call that has yet to take the lock — and runs it there,
// after Unlock, on the releasing goroutine. A transport flushes its
// coalesced writes from such a hook, so everything every task queued in a
// burst leaves in one syscall. The deferral is bounded by the same
// yieldEvery pacing as the periodic Gosched.
//
// What wallclock does NOT provide is determinism: goroutine wakeup order
// under contention is up to the Go scheduler and the OS clock. Use the sim
// backend for reproducible experiments.
package wallclock

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// Env is the wall-clock runtime environment. Construct with New.
type Env struct {
	mu    sync.Mutex // the big runtime lock; see the package comment
	start time.Time
	ntask atomic.Int64 // task name counter

	// The run queue: zero-delay callbacks in registration order. rqmu is a
	// leaf lock (nothing is called while holding it), so any goroutine may
	// enqueue, with or without the runtime lock. Only the holder of mu pops.
	// rqn mirrors len(rq) so release can re-check the queue after Unlock
	// without taking rqmu; rqspare is the previously drained slice, owned by
	// the holder of mu and recycled so a steady state enqueues alloc-free.
	rqmu    sync.Mutex
	rq      []runEntry
	rqn     atomic.Int32
	rqspare []runEntry

	releases uint32 // release calls, guarded by mu; paces the yield

	// Idle hooks (AfterIdle), in registration order. idle is guarded by mu;
	// idlespare, the slice the last hook run emptied, is handed back after
	// the run without mu and is therefore guarded by rqmu. woken and waking
	// count tasks made runnable that have not yet taken mu: woken the parked
	// tasks a Wake has sent a token (incremented by the waker and
	// decremented by the task, both under mu, so a plain int keeps the
	// park/wake path free of atomics), waking the Spawns and returns from
	// Sleep or Blocking, which happen off the lock. The environment is quiet
	// when both counts and the run queue are zero.
	idle      []func()
	idlespare []func()
	woken     int
	waking    atomic.Int32

	// Inflight work counter: spawned tasks, queued callbacks, pending timers,
	// offloads and idle hooks. An atomic instead of sync.WaitGroup because
	// raw goroutines (a signal handler's Server.Close, a test's main
	// goroutine) inject work via After that may race with Wait — WaitGroup
	// forbids Add concurrent with Wait at counter zero. The condvar is
	// touched only when the count reaches zero.
	inflight atomic.Int64
	wgmu     sync.Mutex
	wgcond   *sync.Cond

	// The offload pool. offmu is a leaf lock ordered after mu: Offload is
	// called with mu held, workers take mu only while not holding offmu.
	// Workers are started lazily, then parked on offcond between jobs; they
	// live as long as the process (an Env has no teardown), which keeps the
	// per-job cost at one condvar signal instead of a goroutine spawn.
	offmu      sync.Mutex
	offcond    *sync.Cond // lazily initialized under offmu
	offjobs    []offloadJob
	offworkers int // started workers (parked or running)
	offidle    int // workers parked in offcond.Wait
}

// runEntry is one queued zero-delay callback: fn(), or fnv(val) for an event
// callback, which carries its payload here instead of in a closure.
type runEntry struct {
	fn  func()
	fnv func(val any)
	val any
}

// yieldEvery is how many lock releases pass between runtime.Gosched calls.
// A task that keeps finding its wake token already posted never blocks its
// goroutine, so on one P the Go scheduler never runs and time.Sleep /
// time.AfterFunc deadlines are noticed only at sysmon's 10 ms preemption:
// the engine's 1 ms compaction poll gets a tenth of its rounds and the key
// log fills. Yielding every 64th release (tens of microseconds of store
// work) keeps d > 0 timers within about a millisecond of their deadline and
// lets goroutines queued on the runtime lock take a turn. The same release
// runs pending idle hooks whether or not the environment is quiet, which
// bounds an AfterIdle deferral to yieldEvery releases.
const yieldEvery = 64

// maxOffloadWorkers bounds the I/O worker pool. Offloaded jobs are short
// (one batch of syscalls); a small pool keeps real parallelism without
// letting a submission burst spawn a goroutine per job.
const maxOffloadWorkers = 8

type offloadJob struct {
	fn   func() any
	done func(v any)
}

// Compile-time interface checks.
var (
	_ runtime.Env    = (*Env)(nil)
	_ runtime.Task   = (*task)(nil)
	_ runtime.Ticket = (*ticket)(nil)
	_ runtime.Event  = (*event)(nil)
)

// New returns a wall-clock environment whose clock starts at zero now.
func New() *Env {
	e := &Env{start: time.Now()}
	e.wgcond = sync.NewCond(&e.wgmu)
	return e
}

// Now returns the time elapsed since New, in nanoseconds.
func (e *Env) Now() runtime.Time { return runtime.Time(time.Since(e.start)) }

// track registers one unit of inflight work; untrack retires it and wakes
// Wait when the count reaches zero. Safe from any goroutine.
func (e *Env) track() { e.inflight.Add(1) }

func (e *Env) untrack() {
	if e.inflight.Add(-1) == 0 {
		e.wgmu.Lock()
		e.wgcond.Broadcast()
		e.wgmu.Unlock()
	}
}

// After schedules fn to run d from now in scheduler context (holding the
// runtime lock). With d <= 0 fn joins the run queue: it runs after the
// current task stops running, after every callback queued before it, and
// never inside this call when the caller is in task or scheduler context.
// Wait blocks until all pending callbacks and timers have run.
func (e *Env) After(d runtime.Time, fn func()) {
	if d <= 0 {
		e.enqueue(runEntry{fn: fn})
		return
	}
	e.track()
	time.AfterFunc(time.Duration(d), func() {
		e.mu.Lock()
		fn()
		e.release()
		e.untrack()
	})
}

// enqueue appends one callback to the run queue. A caller in task or
// scheduler context holds mu, so its TryLock fails and the entry waits for
// that caller's own release. A raw goroutine (a signal handler, a test's
// main goroutine) either takes the idle lock and drains on the spot, or
// fails because some holder exists — and every holder re-checks the queue after
// it unlocks (see release), so the entry is never stranded between the two.
func (e *Env) enqueue(ent runEntry) {
	e.track()
	e.rqmu.Lock()
	e.rq = append(e.rq, ent)
	e.rqn.Add(1)
	e.rqmu.Unlock()
	if e.mu.TryLock() {
		e.release()
	}
}

// drain runs queued callbacks in FIFO order until the queue is empty,
// including those the callbacks themselves enqueue. Caller holds mu.
func (e *Env) drain() {
	for e.rqn.Load() != 0 {
		e.rqmu.Lock()
		batch := e.rq
		e.rq = e.rqspare[:0]
		e.rqn.Store(0)
		e.rqmu.Unlock()
		for i := range batch {
			ent := batch[i]
			batch[i] = runEntry{}
			if ent.fnv != nil {
				ent.fnv(ent.val)
			} else {
				ent.fn()
			}
			e.untrack()
		}
		e.rqspare = batch
	}
}

// release gives up the runtime lock. Every path that unlocks mu goes
// through here, and the rule is: drain the run queue first, while still
// holding the lock. The drain is immediate rather than deferred until other
// woken tasks have run — holding it back does merge more appends per group
// commit, but makes every park in a latency-bound PUT wait for unrelated
// tasks to take a step. Idle hooks are what waits for the others: they are
// taken under the lock if the drain left the environment quiet (or this is
// a yield release) and run once mu is unlocked. After Unlock the queue is
// checked once more: a raw goroutine may have enqueued after the drain saw
// an empty queue and then failed its TryLock against us; if the lock cannot
// be retaken, its new holder inherits the duty. See yieldEvery for the
// periodic Gosched.
func (e *Env) release() {
	e.releases++
	yield := e.releases%yieldEvery == 0
	for {
		e.drain()
		var hooks []func()
		if len(e.idle) > 0 && (yield || e.woken == 0 && e.waking.Load() == 0 && e.rqn.Load() == 0) {
			hooks = e.idle
			e.rqmu.Lock()
			e.idle, e.idlespare = e.idlespare, nil
			e.rqmu.Unlock()
		}
		e.mu.Unlock()
		if hooks != nil {
			e.runIdle(hooks)
		}
		if e.rqn.Load() == 0 || !e.mu.TryLock() {
			break
		}
	}
	if yield {
		goruntime.Gosched()
	}
}

// relock retakes the runtime lock for a task coming back from a wait that
// did not go through a ticket (Sleep, Blocking), counting it as waking
// while it contends so that no idle hook runs in front of it.
func (e *Env) relock() {
	e.waking.Add(1)
	e.mu.Lock()
	e.waking.Add(-1)
}

// AfterIdle implements runtime.Env: fn runs once, without the runtime lock,
// at the first release that finds the run queue empty and no task waiting
// to take the lock — or at the next yield release, whichever comes first,
// so at most yieldEvery releases after this call. Task or scheduler
// context only: the caller's own release is what is guaranteed to look at
// the hook. Registering reuses the drained hook slice, so a caller that
// passes a method value bound once arms hooks without allocating.
func (e *Env) AfterIdle(fn func()) {
	e.track()
	e.idle = append(e.idle, fn)
}

// runIdle runs hooks taken by release, outside the lock, then hands the
// emptied slice back for reuse.
func (e *Env) runIdle(hooks []func()) {
	for i, fn := range hooks {
		hooks[i] = nil
		fn()
		e.untrack()
	}
	e.rqmu.Lock()
	if e.idlespare == nil {
		e.idlespare = hooks[:0]
	}
	e.rqmu.Unlock()
}

// Spawn starts fn as a new task goroutine. The task body runs holding the
// runtime lock except while blocked in a primitive.
func (e *Env) Spawn(name string, fn func(t runtime.Task)) {
	t := &task{
		env:  e,
		name: fmt.Sprintf("%s#%d", name, e.ntask.Add(1)),
		park: make(chan struct{}, 1),
	}
	t.tk.t = t
	e.track()
	e.waking.Add(1)
	go func() {
		defer e.untrack()
		e.mu.Lock()
		e.waking.Add(-1)
		defer e.release()
		fn(t)
	}()
}

// Wait blocks until every spawned task has returned, every queued callback,
// pending timer and idle hook has run, and every offloaded job has
// completed. Call it from the owning goroutine (not from a task) after the
// last Spawn; it is the wall-clock analogue of Kernel.Run draining the
// heap.
func (e *Env) Wait() {
	e.wgmu.Lock()
	for e.inflight.Load() > 0 {
		e.wgcond.Wait()
	}
	e.wgmu.Unlock()
}

// Offload implements runtime.Env: fn runs on a pool goroutine WITHOUT the
// runtime lock — this is the only place in the backend where user-supplied
// code executes outside the execution contract — and done(v) then runs
// holding the lock, like a timer callback. Jobs are served FIFO.
func (e *Env) Offload(fn func() any, done func(v any)) {
	e.track()
	e.offmu.Lock()
	if e.offcond == nil {
		e.offcond = sync.NewCond(&e.offmu)
	}
	e.offjobs = append(e.offjobs, offloadJob{fn: fn, done: done})
	switch {
	case e.offidle > 0:
		e.offcond.Signal()
	case e.offworkers < maxOffloadWorkers:
		e.offworkers++
		go e.offloadWorker()
	}
	e.offmu.Unlock()
}

func (e *Env) offloadWorker() {
	for {
		e.offmu.Lock()
		for len(e.offjobs) == 0 {
			e.offidle++
			e.offcond.Wait()
			e.offidle--
		}
		// Shift down rather than reslice forward, as runtime.Queue does, so
		// Offload's append reuses the backing array.
		job := e.offjobs[0]
		n := copy(e.offjobs, e.offjobs[1:])
		e.offjobs[n] = offloadJob{}
		e.offjobs = e.offjobs[:n]
		e.offmu.Unlock()

		v := job.fn()
		e.mu.Lock()
		job.done(v)
		e.release()
		e.untrack()
	}
}

// MakeEvent implements runtime.Env.
func (e *Env) MakeEvent() runtime.Event {
	ev := &event{env: e}
	ev.waiters, ev.cbs = ev.w0[:0], ev.cb0[:0]
	return ev
}

// MakeQueue implements runtime.Env.
func (e *Env) MakeQueue() *runtime.Queue { return new(runtime.Queue) }

// MakeResource implements runtime.Env.
func (e *Env) MakeResource(capacity int64) *runtime.Resource { return runtime.NewResource(capacity) }

// MakeHistogram implements runtime.Env.
func (e *Env) MakeHistogram() *obs.Histogram { return obs.NewHistogram() }

// task is one running goroutine. parked/woken/seq are guarded by env.mu;
// the park channel (capacity 1) carries the wakeup token so a Wake landing
// between lock release and channel receive is never lost. woken makes the
// token one per Park: the first Wake sends it and counts the task in
// env.woken, and later Wakes before the task has retaken the lock are
// redundant — it has yet to re-check its condition, and will see whatever
// they announced.
//
// tk is the task's single reusable ticket: Prepare bumps seq and hands out
// &t.tk instead of allocating, so the hot park/wake path is allocation-free.
// The cost of sharing one ticket is that a holder of an *old* ticket can no
// longer be distinguished by pointer identity — its Wake sees the current
// seq and wakes the task. That is exactly a spurious wakeup, which the
// runtime.Task contract already requires every caller to tolerate by
// re-checking its condition in a loop.
type task struct {
	env    *Env
	name   string
	park   chan struct{}
	seq    uint64
	parked bool
	woken  bool
	tk     ticket
}

// Name returns the task's debug name.
func (t *task) Name() string { return t.name }

// Now returns the environment's current time.
func (t *task) Now() runtime.Time { return t.env.Now() }

// Sleep blocks the task for d, releasing the runtime lock while asleep.
func (t *task) Sleep(d runtime.Time) {
	if d < 0 {
		d = 0
	}
	t.env.release()
	time.Sleep(time.Duration(d))
	t.env.relock()
}

// Blocking runs fn on the task's own goroutine with the runtime lock given
// up, exactly like Sleep gives it up around time.Sleep: other tasks run
// while fn blocks in a syscall, and no goroutine hand-off is involved. The
// release on the way in drains the run queue and may run idle hooks.
func (t *task) Blocking(fn func()) {
	t.env.release()
	fn()
	t.env.relock()
}

// Prepare issues a wakeup ticket for the task's next Park. The returned
// ticket is the task's embedded one (no allocation); see the task comment
// for why stale holders degrade to spurious wakeups rather than bugs.
func (t *task) Prepare() runtime.Ticket {
	t.seq++
	t.tk.seq = t.seq
	return &t.tk
}

// Park blocks until the current ticket is woken, releasing the runtime lock
// while parked. Wakeups may be spurious (a stale ticket of this task wakes
// it); primitives loop on their condition, as the runtime.Task contract
// requires. When the drain inside release already produced the wakeup, the
// receive below does not block and the task continues on this goroutine.
func (t *task) Park() {
	t.parked = true
	t.env.release()
	<-t.park
	t.env.mu.Lock()
	t.env.woken-- // counted by the Wake that sent the token
	t.parked, t.woken = false, false
}

// Wait blocks until ev fires and returns its payload.
func (t *task) Wait(ev runtime.Event) any {
	e := ev.(*event)
	for !e.fired {
		tk := t.Prepare().(*ticket)
		e.waiters = append(e.waiters, tk)
		t.Park()
	}
	return e.val
}

// ticket is a one-shot wakeup permit. Wake must run with env.mu held, which
// is true for every caller: primitives wake tickets from task context, and
// WakeAfter goes through After.
type ticket struct {
	t   *task
	seq uint64
}

// Wake resumes the ticket's task if it is still parked on this ticket.
func (tk *ticket) Wake() {
	t := tk.t
	if !t.parked || t.woken || t.seq != tk.seq {
		return
	}
	t.woken = true
	t.env.woken++
	t.park <- struct{}{} // never blocks: one token per Park, consumed by it
}

// WakeAfter schedules the wakeup d into the future.
func (tk *ticket) WakeAfter(d runtime.Time) {
	tk.t.env.After(d, tk.Wake)
}

// event is the wall-clock runtime.Event. All fields are guarded by env.mu.
// w0 and cb0 back the waiter and callback lists inline: nearly every event
// has one of either, so registering it allocates nothing.
type event struct {
	env     *Env
	fired   bool
	val     any
	waiters []*ticket
	cbs     []func(val any)
	w0      [1]*ticket
	cb0     [1]func(val any)
}

// Fire marks the event complete, wakes all waiters, and schedules all
// callbacks.
func (e *event) Fire(val any) {
	if e.fired {
		panic("wallclock: Event fired twice")
	}
	e.fired = true
	e.val = val
	for _, tk := range e.waiters {
		tk.Wake()
	}
	e.waiters = nil
	for _, cb := range e.cbs {
		e.env.enqueue(runEntry{fnv: cb, val: val})
	}
	e.cbs = nil
}

// Fired reports whether the event has fired.
func (e *event) Fired() bool { return e.fired }

// Value returns the payload passed to Fire, or nil if not yet fired.
func (e *event) Value() any { return e.val }

// OnFire registers fn to run when the event fires; if it already fired, fn
// is scheduled immediately.
func (e *event) OnFire(fn func(val any)) {
	if e.fired {
		e.env.enqueue(runEntry{fnv: fn, val: e.val})
		return
	}
	e.cbs = append(e.cbs, fn)
}
