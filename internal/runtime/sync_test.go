package runtime_test

import (
	"fmt"
	"testing"

	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
)

// backends runs body as one task on each runtime backend and returns once
// the environment has drained.
var backends = []struct {
	name string
	run  func(body func(env runtime.Env, t runtime.Task))
}{
	{"sim", func(body func(runtime.Env, runtime.Task)) {
		k := sim.New()
		defer k.Close()
		k.Spawn("test", func(t runtime.Task) { body(k, t) })
		k.Run()
	}},
	{"wallclock", func(body func(runtime.Env, runtime.Task)) {
		env := wallclock.New()
		env.Spawn("test", func(t runtime.Task) { body(env, t) })
		env.Wait()
	}},
}

// spawnParked starts a task that announces itself on arrived and then runs
// fn, and returns once the task has announced. A task holds the processor
// from its announcement until it blocks, so when spawnParked returns the new
// task is already parked inside whatever primitive fn blocks in first —
// this is how the cases below fix the order of waiters on either backend.
func spawnParked(env runtime.Env, t runtime.Task, arrived *runtime.Queue, fn func(t runtime.Task)) {
	env.Spawn("w", func(t runtime.Task) {
		arrived.Put(nil)
		fn(t)
	})
	arrived.Get(t)
}

// TestPrimitives runs each Queue and Resource property on both backends:
// the primitives are one implementation over Task.Prepare/Park, so each
// property must hold whichever scheduler delivers the wakeups.
func TestPrimitives(t *testing.T) {
	cases := []struct {
		name string
		fn   func(t *testing.T, env runtime.Env, tk runtime.Task)
	}{
		{"queue-fifo", func(t *testing.T, env runtime.Env, tk runtime.Task) {
			q, arrived, done := env.MakeQueue(), env.MakeQueue(), env.MakeQueue()
			const getters = 4
			for i := 0; i < getters; i++ {
				spawnParked(env, tk, arrived, func(t runtime.Task) {
					done.Put(fmt.Sprint(i, "<-", q.Get(t)))
				})
			}
			// Each Put wakes exactly the longest-waiting getter.
			for i := 0; i < getters; i++ {
				q.Put(i)
				if got, want := done.Get(tk), fmt.Sprint(i, "<-", i); got != want {
					t.Errorf("getter got %v, want %v", got, want)
				}
			}
			if _, ok := q.TryGet(); ok {
				t.Error("TryGet on an empty queue succeeded")
			}
			q.Put("a")
			q.Put("b")
			if q.Len() != 2 {
				t.Errorf("Len = %d, want 2", q.Len())
			}
			for _, want := range []string{"a", "b"} {
				if v, ok := q.TryGet(); !ok || v != want {
					t.Errorf("TryGet = %v, %v; want %v", v, ok, want)
				}
			}
			if q.Len() != 0 {
				t.Errorf("Len = %d after draining", q.Len())
			}
		}},
		{"resource-bound", func(t *testing.T, env runtime.Env, tk runtime.Task) {
			r, arrived := env.MakeResource(2), env.MakeQueue()
			gate := env.MakeEvent()
			inside, maxInside, finished := 0, 0, 0
			for i := 0; i < 6; i++ {
				spawnParked(env, tk, arrived, func(t runtime.Task) {
					r.Acquire(t, 1)
					inside++
					maxInside = max(maxInside, inside)
					t.Wait(gate)
					inside--
					r.Release(1)
					finished++
				})
			}
			if r.InUse() != 2 || r.Waiting() != 4 {
				t.Errorf("with 6 acquirers: in use %d, waiting %d; want 2, 4", r.InUse(), r.Waiting())
			}
			gate.Fire(nil)
			for finished < 6 {
				tk.Sleep(runtime.Millisecond)
			}
			if maxInside != 2 {
				t.Errorf("%d concurrent holders, capacity 2", maxInside)
			}
			if r.Avail() != 2 || r.Waiting() != 0 {
				t.Errorf("not fully released: avail %d, waiting %d", r.Avail(), r.Waiting())
			}
		}},
		{"resource-fifo-large-head", func(t *testing.T, env runtime.Env, tk runtime.Task) {
			r, arrived, order := env.MakeResource(3), env.MakeQueue(), env.MakeQueue()
			r.Acquire(tk, 2)
			// The head asks for all 3 units; the 1-unit request behind it
			// would fit now, but must not pass it.
			for _, n := range []int64{3, 1} {
				spawnParked(env, tk, arrived, func(t runtime.Task) {
					r.Acquire(t, n)
					order.Put(n)
					r.Release(n)
				})
			}
			if r.Waiting() != 2 {
				t.Errorf("waiting = %d, want 2 (the 1-unit request overtook the head)", r.Waiting())
			}
			if r.TryAcquire(1) {
				t.Error("TryAcquire succeeded while acquirers were queued")
			}
			r.Release(1)
			if r.Waiting() != 2 {
				t.Errorf("waiting = %d after a release the head cannot use, want 2", r.Waiting())
			}
			r.Release(1)
			for _, want := range []int64{3, 1} {
				if got := order.Get(tk); got != want {
					t.Errorf("granted %v, want %v", got, want)
				}
			}
		}},
		{"resource-stale-wake-reparks", func(t *testing.T, env runtime.Env, tk runtime.Task) {
			r, arrived := env.MakeResource(1), env.MakeQueue()
			r.Acquire(tk, 1)
			var stale runtime.Ticket
			acquired := false
			spawnParked(env, tk, arrived, func(t runtime.Task) {
				stale = t.Prepare() // superseded by Acquire's own ticket
				r.Acquire(t, 1)
				acquired = true
				r.Release(1)
			})
			// The stale wake is ignored (sim) or wakes the waiter spuriously
			// (wallclock); either way it must end up parked again.
			stale.Wake()
			tk.Sleep(runtime.Millisecond)
			if acquired || r.Waiting() != 1 {
				t.Errorf("after a stale wake: acquired %v, waiting %d; want false, 1", acquired, r.Waiting())
			}
			r.Release(1)
			for !acquired {
				tk.Sleep(runtime.Millisecond)
			}
			if r.Avail() != 1 {
				t.Errorf("avail = %d, want 1", r.Avail())
			}
		}},
	}
	for _, c := range cases {
		for _, b := range backends {
			t.Run(c.name+"/"+b.name, func(t *testing.T) {
				b.run(func(env runtime.Env, tk runtime.Task) { c.fn(t, env, tk) })
			})
		}
	}
}
