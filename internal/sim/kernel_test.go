package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	defer k.Close()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.At(10, func() { order = append(order, 11) }) // same time: FIFO
	end := k.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastClamps(t *testing.T) {
	k := New()
	defer k.Close()
	var ran Time
	k.At(100, func() {
		k.At(50, func() { ran = k.Now() }) // in the past: runs now
	})
	k.Run()
	if ran != 100 {
		t.Fatalf("past event ran at %v, want 100", ran)
	}
}

func TestRunUntilDeadline(t *testing.T) {
	k := New()
	defer k.Close()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(1000, func() { fired++ })
	end := k.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
	// The remaining event still runs on a later Run.
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after full run, want 2", fired)
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	defer k.Close()
	var wake []Time
	k.Go("a", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = append(wake, p.Now())
		p.Sleep(10 * Microsecond)
		wake = append(wake, p.Now())
	})
	k.Run()
	if len(wake) != 2 || wake[0] != 5*Microsecond || wake[1] != 15*Microsecond {
		t.Fatalf("wake times = %v", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New()
	defer k.Close()
	var trace []string
	k.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(5)
		trace = append(trace, "b1")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEventWaitAndFire(t *testing.T) {
	k := New()
	defer k.Close()
	ev := k.NewEvent()
	got := make([]any, 0, 2)
	k.Go("w1", func(p *Proc) { got = append(got, p.Wait(ev)) })
	k.Go("w2", func(p *Proc) { got = append(got, p.Wait(ev)) })
	k.After(100, func() { ev.Fire(42) })
	k.Run()
	if len(got) != 2 || got[0] != 42 || got[1] != 42 {
		t.Fatalf("got = %v", got)
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	k := New()
	defer k.Close()
	ev := k.NewEvent()
	ev.Fire("x")
	var got any
	k.Go("w", func(p *Proc) { got = p.Wait(ev) })
	k.Run()
	if got != "x" {
		t.Fatalf("got = %v", got)
	}
}

func TestEventOnFire(t *testing.T) {
	k := New()
	defer k.Close()
	ev := k.NewEvent()
	var vals []any
	ev.OnFire(func(v any) { vals = append(vals, v) })
	k.After(10, func() { ev.Fire(7) })
	k.Run()
	ev.OnFire(func(v any) { vals = append(vals, v) }) // post-fire registration
	k.Run()
	if len(vals) != 2 || vals[0] != 7 || vals[1] != 7 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	k := New()
	defer k.Close()
	ev := k.NewEvent()
	ev.Fire(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double Fire did not panic")
		}
	}()
	ev.Fire(nil)
}

func TestWaitAnyStaleTicketDoesNotCorruptSleep(t *testing.T) {
	// After WaitAny returns because event a fired, a later fire of event b
	// must not cut short the proc's subsequent Sleep.
	k := New()
	defer k.Close()
	a, b := k.NewEvent(), k.NewEvent()
	var slept Time
	k.Go("w", func(p *Proc) {
		idx := p.WaitAny(a, b)
		if idx != 0 {
			t.Errorf("WaitAny = %d, want 0", idx)
		}
		start := p.Now()
		p.Sleep(100 * Microsecond)
		slept = p.Now() - start
	})
	k.After(10, func() { a.Fire(nil) })
	k.After(20, func() { b.Fire(nil) }) // stale wake target
	k.Run()
	if slept != 100*Microsecond {
		t.Fatalf("slept %v, want 100us", slept)
	}
}

func TestWaitAnyAlreadyFired(t *testing.T) {
	k := New()
	defer k.Close()
	a, b := k.NewEvent(), k.NewEvent()
	b.Fire(nil)
	idx := -1
	k.Go("w", func(p *Proc) { idx = p.WaitAny(a, b) })
	k.Run()
	if idx != 1 {
		t.Fatalf("WaitAny = %d, want 1", idx)
	}
}

func TestTimer(t *testing.T) {
	k := New()
	defer k.Close()
	var at Time
	k.Go("w", func(p *Proc) {
		p.Wait(k.Timer(3 * Millisecond))
		at = p.Now()
	})
	k.Run()
	if at != 3*Millisecond {
		t.Fatalf("timer fired at %v", at)
	}
}

// The Queue and Resource tests below drive the shared runtime primitives
// through the kernel's constructors, pinning their virtual-time behaviour.

func TestQueueFIFO(t *testing.T) {
	k := New()
	defer k.Close()
	q := k.MakeQueue()
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	k.After(10, func() { q.Put(1); q.Put(2) })
	k.After(20, func() { q.Put(3) })
	k.After(30, func() { q.Put(4) })
	k.Run()
	if len(got) != 4 {
		t.Fatalf("got = %v", got)
	}
	for i, w := range []int{1, 2, 3, 4} {
		if got[i] != w {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueMultipleGetters(t *testing.T) {
	k := New()
	defer k.Close()
	q := k.MakeQueue()
	var got []int
	for i := 0; i < 3; i++ {
		k.Go("c", func(p *Proc) { got = append(got, q.Get(p).(int)) })
	}
	k.After(10, func() { q.Put(100); q.Put(200); q.Put(300) })
	k.Run()
	if len(got) != 3 {
		t.Fatalf("got = %v", got)
	}
	// Getters blocked first are served first.
	for i, w := range []int{100, 200, 300} {
		if got[i] != w {
			t.Fatalf("items lost, duplicated or reordered: %v", got)
		}
	}
}

func TestQueueTryGetAndLen(t *testing.T) {
	k := New()
	defer k.Close()
	q := k.MakeQueue()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != "a" {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len after TryGet = %d", q.Len())
	}
	if v, ok := q.TryGet(); !ok || v != "b" {
		t.Fatalf("second TryGet = %v, %v", v, ok)
	}
	if _, ok := q.TryGet(); ok || q.Len() != 0 {
		t.Fatalf("drained queue: TryGet ok=%v Len=%d", ok, q.Len())
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	k := New()
	defer k.Close()
	r := k.MakeResource(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.After(Time(i), func() {
			k.Go("w", func(p *Proc) {
				r.Acquire(p, 1)
				order = append(order, i)
				p.Sleep(5)
				r.Release(1)
			})
		})
	}
	k.Run()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	k := New()
	defer k.Close()
	r := k.MakeResource(3)
	if !r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) failed with 3 available")
	}
	if r.TryAcquire(2) {
		t.Fatal("TryAcquire(2) succeeded with 1 available")
	}
	r.Release(2)
	if r.Avail() != 3 {
		t.Fatalf("avail = %d", r.Avail())
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := New()
	defer k.Close()
	k.Go("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("proc panic did not propagate to Run")
		}
	}()
	k.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := New()
		defer k.Close()
		var trace []Time
		q := k.MakeQueue()
		r := k.MakeResource(2)
		for i := 0; i < 5; i++ {
			i := i
			k.Go("p", func(p *Proc) {
				p.Sleep(Time(i * 3))
				r.Acquire(p, 1)
				p.Sleep(7)
				q.Put(i)
				r.Release(1)
			})
		}
		k.Go("c", func(p *Proc) {
			for j := 0; j < 5; j++ {
				q.Get(p)
				trace = append(trace, p.Now())
			}
		})
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("traces differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic traces: %v vs %v", a, b)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:              "500ns",
		50 * Microsecond: "50.0us",
		5 * Millisecond:  "5.00ms",
		20 * Second:      "20.00s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}
