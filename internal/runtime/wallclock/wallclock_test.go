package wallclock

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leed/internal/runtime"
)

func TestNowAdvances(t *testing.T) {
	env := New()
	var before, after runtime.Time
	env.Spawn("sleeper", func(tk runtime.Task) {
		before = tk.Now()
		tk.Sleep(2 * runtime.Millisecond)
		after = tk.Now()
	})
	env.Wait()
	if after-before < 2*runtime.Millisecond {
		t.Fatalf("slept %v, want >= 2ms", after-before)
	}
}

func TestAfterRunsAndWaitBlocks(t *testing.T) {
	env := New()
	var fired atomic.Bool
	env.After(runtime.Millisecond, func() { fired.Store(true) })
	env.Wait()
	if !fired.Load() {
		t.Fatal("Wait returned before the pending timer ran")
	}
}

func TestEventWaitAcrossTasks(t *testing.T) {
	env := New()
	ev := env.MakeEvent()
	var got any
	env.Spawn("waiter", func(tk runtime.Task) { got = tk.Wait(ev) })
	env.Spawn("firer", func(tk runtime.Task) {
		tk.Sleep(runtime.Millisecond)
		ev.Fire("payload")
	})
	env.Wait()
	if got != "payload" {
		t.Fatalf("Wait returned %v, want payload", got)
	}
	if !ev.Fired() || ev.Value() != "payload" {
		t.Fatal("event state wrong after Fire")
	}
}

func TestEventOnFire(t *testing.T) {
	env := New()
	ev := env.MakeEvent()
	var ran []int
	env.Spawn("firer", func(tk runtime.Task) {
		ev.OnFire(func(v any) { ran = append(ran, v.(int)) })
		ev.Fire(1)
		// Registering after the fire still schedules the callback, behind
		// the one the fire queued.
		ev.OnFire(func(any) { ran = append(ran, 2) })
	})
	env.Wait()
	if fmt.Sprint(ran) != "[1 2]" {
		t.Fatalf("callbacks ran as %v, want [1 2]", ran)
	}
}

func TestTicketParkWake(t *testing.T) {
	env := New()
	var woken bool
	env.Spawn("parker", func(tk runtime.Task) {
		ticket := tk.Prepare()
		ticket.WakeAfter(runtime.Millisecond)
		tk.Park()
		woken = true
	})
	env.Wait()
	if !woken {
		t.Fatal("parked task never woke")
	}
}

func TestStaleTicketIgnored(t *testing.T) {
	env := New()
	done := make(chan struct{})
	env.Spawn("parker", func(tk runtime.Task) {
		stale := tk.Prepare()
		fresh := tk.Prepare() // invalidates stale
		stale.WakeAfter(0)    // must not satisfy the park below on its own
		fresh.WakeAfter(runtime.Millisecond)
		tk.Park()
		close(done)
	})
	env.Wait()
	select {
	case <-done:
	default:
		t.Fatal("task still parked")
	}
}

// TestManyTasksSharedState drives shared structures from many tasks; its
// value is maximized under -race, where it proves the big runtime lock makes
// unlocked shared state safe.
func TestManyTasksSharedState(t *testing.T) {
	env := New()
	q := env.MakeQueue()
	res := env.MakeResource(3)
	hist := env.MakeHistogram()
	counter := 0 // deliberately unsynchronized: the Env contract protects it
	const tasks = 12
	const opsPer = 50
	for i := 0; i < tasks; i++ {
		env.Spawn("hammer", func(tk runtime.Task) {
			for j := 0; j < opsPer; j++ {
				res.Acquire(tk, 1)
				counter++
				hist.Record(runtime.Time(j))
				q.Put(j)
				q.TryGet()
				res.Release(1)
			}
		})
	}
	env.Wait()
	if counter != tasks*opsPer {
		t.Fatalf("counter = %d, want %d", counter, tasks*opsPer)
	}
	if hist.Count() != tasks*opsPer {
		t.Fatalf("histogram count = %d, want %d", hist.Count(), tasks*opsPer)
	}
}

// The scheduler battery: what the run queue promises (ordering, no
// re-entrancy, nothing stranded, timers not starved). The allocation half is
// in alloc_test.go, which the race detector does not build.

// TestRunQueueOrderAndReentrancy: zero-delay callbacks — After(0), a fire's
// OnFire fan-out, OnFire on a fired event, and callbacks queued by callbacks
// — run in registration order, after the task that queued them stops
// running, and never inside the call that queued them.
func TestRunQueueOrderAndReentrancy(t *testing.T) {
	env := New()
	var order []string
	inCall, reentered := false, false
	note := func(name string) {
		if inCall {
			reentered = true
		}
		order = append(order, name)
	}
	call := func(fn func()) {
		inCall = true
		fn()
		inCall = false
	}
	env.Spawn("queuer", func(tk runtime.Task) {
		ev := env.MakeEvent()
		call(func() {
			env.After(0, func() {
				note("a0")
				call(func() { env.After(0, func() { note("a0-child") }) })
			})
		})
		ev.OnFire(func(v any) { note("cb-" + v.(string)) })
		call(func() { env.After(0, func() { note("a1") }) })
		call(func() { ev.Fire("fired") })
		call(func() { env.After(0, func() { note("a2") }) })
		call(func() { ev.OnFire(func(any) { note("cb-late") }) })
		if len(order) != 0 {
			t.Errorf("callbacks %v ran while the queuing task was still running", order)
		}
	})
	env.Wait()
	if want := "[a0 a1 cb-fired a2 cb-late a0-child]"; fmt.Sprint(order) != want {
		t.Errorf("callbacks ran as %v, want %s", order, want)
	}
	if reentered {
		t.Error("a callback ran inside the After/Fire/OnFire that queued it")
	}
}

// TestRawAfterNeverStranded hammers the hand-over between raw goroutines and
// lock holders: an After(0) whose TryLock loses to a holder that has already
// drained must still be picked up by that holder's re-check.
func TestRawAfterNeverStranded(t *testing.T) {
	env := New()
	const raws, perRaw = 8, 10_000
	ran := make([]int32, raws*perRaw) // written by callbacks, i.e. under the runtime lock
	var stop atomic.Bool

	// Two tasks that park and wake each other continuously, so the lock is
	// taken and released at the highest rate the backend can manage.
	ping, pong := env.MakeQueue(), env.MakeQueue()
	env.Spawn("pong", func(tk runtime.Task) {
		for ping.Get(tk) != nil {
			pong.Put(1)
		}
	})
	env.Spawn("ping", func(tk runtime.Task) {
		for !stop.Load() {
			ping.Put(1)
			pong.Get(tk)
		}
		ping.Put(nil)
	})

	var wg sync.WaitGroup
	for g := 0; g < raws; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perRaw; i++ {
				slot := &ran[g*perRaw+i]
				env.After(0, func() { *slot++ })
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)

	done := make(chan struct{})
	go func() {
		env.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Env.Wait did not return: a queued callback was stranded")
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("callback %d ran %d times, want exactly once", i, n)
		}
	}
}

// TestReleaseRechecksQueue isolates the re-check after Unlock. Two raw
// goroutines step through rounds in lockstep and call After(0) at the same
// moment; nothing else ever takes the lock. When one loses its TryLock to
// the other after that one's drain has already seen an empty queue, only the
// winner's look at the queue after Unlock can run the loser's callback.
func TestReleaseRechecksQueue(t *testing.T) {
	env := New()
	const rounds = 500_000
	var gate atomic.Int64
	arrive := func(round int64) { // both sides leave together
		gate.Add(1)
		for gate.Load() < 2*round {
			goruntime.Gosched()
		}
	}
	go func() {
		for r := int64(1); r <= rounds; r++ {
			arrive(r)
			env.After(0, func() {})
		}
	}()
	ran := make(chan struct{}, 1)
	signal := func() { ran <- struct{}{} }
	timeout := time.After(30 * time.Second) // the whole test takes about a second
	for r := int64(1); r <= rounds; r++ {
		arrive(r)
		env.After(0, signal)
		select {
		case <-ran:
		case <-timeout:
			t.Fatalf("round %d: callback stranded behind a holder that had already drained", r)
		}
	}
	env.Wait()
}

// TestTimersPromptUnderBusyRunQueue: on one P, a task whose every wait is
// satisfied by its own drain never blocks its goroutine, so without the
// periodic yield in release the Go scheduler — and with it every
// time.Sleep deadline — runs only at sysmon's 10 ms preemption and the
// sleeper below manages about ten rounds.
func TestTimersPromptUnderBusyRunQueue(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	env := New()
	stop := false
	rounds := 0
	env.Spawn("busy", func(tk runtime.Task) {
		for end := tk.Now() + 100*runtime.Millisecond; tk.Now() < end; {
			ev := env.MakeEvent()
			env.After(0, func() { ev.Fire(nil) })
			tk.Wait(ev)
		}
		stop = true
	})
	env.Spawn("sleeper", func(tk runtime.Task) {
		for !stop {
			tk.Sleep(runtime.Millisecond)
			rounds++
		}
	})
	env.Wait()
	if rounds < 30 {
		t.Fatalf("1 ms sleeper completed %d rounds in 100 ms beside a busy run queue, want >= 30", rounds)
	}
}

// TestAfterIdleRunsOnceOutsideLock: a hook runs exactly once, and it runs
// with the runtime lock free — it may take the lock itself.
func TestAfterIdleRunsOnceOutsideLock(t *testing.T) {
	env := New()
	var runs atomic.Int32
	var unlocked atomic.Bool
	env.Spawn("arm", func(tk runtime.Task) {
		env.AfterIdle(func() {
			runs.Add(1)
			if env.mu.TryLock() {
				unlocked.Store(true)
				env.mu.Unlock()
			}
		})
	})
	env.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
	if !unlocked.Load() {
		t.Fatal("hook ran while the runtime lock was held")
	}
}

// TestAfterIdleWaitsForWokenTask: a release that leaves a woken task still
// to take the lock is not quiet, so the hook waits for that task's turn.
func TestAfterIdleWaitsForWokenTask(t *testing.T) {
	env := New()
	var ran atomic.Bool
	var ranEarly bool
	var tk runtime.Ticket
	env.Spawn("sleeper", func(p runtime.Task) {
		tk = p.Prepare()
		p.Park()
		ranEarly = ran.Load() // the hook must still be pending here
	})
	env.Spawn("waker", func(p runtime.Task) {
		for tk == nil {
			p.Sleep(runtime.Millisecond)
		}
		env.AfterIdle(func() { ran.Store(true) })
		tk.Wake()
	})
	env.Wait()
	if ranEarly {
		t.Fatal("hook ran while a woken task was waiting for the lock")
	}
	if !ran.Load() {
		t.Fatal("hook never ran")
	}
}

// TestDoubleWakeKeepsQuietReachable: a second Wake that lands after the
// parked task took its token but before it retook the lock must not count
// the task as waking twice. If it did, the count would stay above zero
// once the task stopped parking, and hooks would wait for the yieldEvery
// bound instead of the next quiet release.
func TestDoubleWakeKeepsQuietReachable(t *testing.T) {
	env := New()
	var tk runtime.Ticket
	ran, gate := make(chan struct{}), make(chan struct{})
	env.Spawn("sleeper", func(p runtime.Task) {
		tk = p.Prepare()
		p.Park()
		env.AfterIdle(func() { close(ran) })
		p.Blocking(func() { <-gate }) // releases the lock; never parks again
	})
	env.Spawn("waker", func(p runtime.Task) {
		for tk == nil {
			p.Sleep(runtime.Millisecond)
		}
		tk.Wake()
		// Hold the lock while the sleeper takes its token and queues on
		// the lock, then wake it again.
		time.Sleep(2 * time.Millisecond)
		tk.Wake()
	})
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		// Left pending, the hook would also hold up Env.Wait.
		t.Fatal("idle hook did not run at the sleeper's quiet release")
	}
	close(gate)
	env.Wait()
}

// TestAfterIdleBoundedUnderPingPong: two tasks that wake each other forever
// never leave the environment quiet, and a hook still runs within
// yieldEvery releases of its registration.
func TestAfterIdleBoundedUnderPingPong(t *testing.T) {
	env := New()
	ping, pong := env.MakeQueue(), env.MakeQueue()
	env.Spawn("pong", func(tk runtime.Task) {
		for ping.Get(tk) != nil {
			pong.Put(1)
		}
	})
	var ran atomic.Bool
	var armedAt, seenAt uint32
	env.Spawn("ping", func(tk runtime.Task) {
		defer ping.Put(nil)
		for i := 0; i < 10*yieldEvery; i++ {
			if i == 3 {
				armedAt = env.releases
				env.AfterIdle(func() { ran.Store(true) })
			}
			ping.Put(1)
			pong.Get(tk)
			if i > 3 && ran.Load() {
				seenAt = env.releases
				return
			}
		}
	})
	env.Wait()
	if !ran.Load() {
		t.Fatalf("hook did not run in %d ping-pong rounds", 10*yieldEvery)
	}
	// The hook runs at a release that is at most yieldEvery after arming;
	// ping notices it after at most two more.
	if d := seenAt - armedAt; d > yieldEvery+2 {
		t.Fatalf("hook ran %d releases after arming, bound is %d", d, yieldEvery)
	}
}

// TestWaitCountsIdleHooks: Env.Wait does not return while a hook is
// pending or running. The hook is armed from a callback a raw goroutine
// drains, so no task's own inflight count spans it.
func TestWaitCountsIdleHooks(t *testing.T) {
	env := New()
	started, gate := make(chan struct{}), make(chan struct{})
	var second atomic.Bool
	go env.After(0, func() {
		env.AfterIdle(func() {
			close(started)
			<-gate
		})
		env.AfterIdle(func() { second.Store(true) })
	})
	<-started
	waited := make(chan struct{})
	go func() {
		env.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned with idle hooks pending")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-waited
	if !second.Load() {
		t.Fatal("Wait returned before the second hook ran")
	}
}

// TestBlockingReleasesLock: while one task is inside Blocking, another
// task runs — on one P as on two.
func TestBlockingReleasesLock(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			env := New()
			entered, gate := make(chan struct{}), make(chan struct{})
			steps := 0
			env.Spawn("blocked", func(tk runtime.Task) {
				tk.Blocking(func() {
					close(entered)
					<-gate
				})
				steps++ // back under the lock
			})
			<-entered
			env.Spawn("other", func(tk runtime.Task) {
				for i := 0; i < 10; i++ {
					steps++
					tk.Sleep(0)
				}
				close(gate)
			})
			done := make(chan struct{})
			go func() {
				env.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("second task made no progress while the first was in Blocking")
			}
			if steps != 11 {
				t.Fatalf("steps = %d, want 11", steps)
			}
		})
	}
}
