package sim

import (
	"fmt"
	stdruntime "runtime"

	"leed/internal/runtime"
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically by the kernel. At most one proc runs at any instant; a
// proc runs from the moment it is resumed until it blocks in one of the
// waiting primitives (Sleep, Wait, Park, Mutex.Lock, ...).
type Proc struct {
	k       *Kernel
	name    string
	resume  chan bool
	done    bool
	parked  bool
	parkSeq uint64
}

// Go starts fn as a new proc. The proc begins running at the current virtual
// time, after already-scheduled same-time events. name is used in panics and
// debugging output.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.nproc++
	p := &Proc{k: k, name: fmt.Sprintf("%s#%d", name, k.nproc), resume: make(chan bool)}
	k.procs[p] = struct{}{}
	go func() {
		if ok := <-p.resume; !ok {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 16<<10)
				n := stdruntime.Stack(buf, false)
				p.k.fault = fmt.Errorf("sim: proc %s panicked: %v\n%s", p.name, r, buf[:n])
			}
			// Normally this runs while the kernel is blocked in kick, but a
			// proc released by Close unwinds concurrently with Close's sweep
			// of the proc table — hence pmu.
			p.k.pmu.Lock()
			p.done = true
			delete(p.k.procs, p)
			p.k.pmu.Unlock()
			p.k.yield <- struct{}{}
		}()
		fn(p)
	}()
	k.At(k.now, func() { k.kick(p) })
	return p
}

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// kick resumes a parked proc and blocks until it yields again. Must only be
// called from kernel event context.
func (k *Kernel) kick(p *Proc) {
	if p.done {
		return
	}
	p.resume <- true
	<-k.yield
}

// Ticket is a one-shot wakeup permit for a proc about to park. Primitives
// obtain a ticket with prepare(), register it wherever the wakeup will come
// from, then park. A ticket whose proc has moved on (woken by something
// else, or exited) is silently ignored, so stale wakeups are harmless.
type Ticket struct {
	p   *Proc
	seq uint64
}

// prepare issues the ticket for the proc's next park.
func (p *Proc) prepare() Ticket {
	p.parkSeq++
	return Ticket{p: p, seq: p.parkSeq}
}

// Wake schedules the ticket's proc to resume at the current virtual time.
// Safe to call multiple times and from any kernel context.
func (t Ticket) Wake() {
	k := t.p.k
	k.At(k.now, func() {
		if t.p.done || !t.p.parked || t.p.parkSeq != t.seq {
			return
		}
		k.kick(t.p)
	})
}

// WakeAfter schedules the wakeup d into the future.
func (t Ticket) WakeAfter(d Time) {
	k := t.p.k
	k.After(d, func() {
		if t.p.done || !t.p.parked || t.p.parkSeq != t.seq {
			return
		}
		k.kick(t.p)
	})
}

// Prepare issues a wakeup ticket for the proc's next Park. Blocking
// primitives outside this package (runtime.Queue, runtime.Resource, core's
// segment locks) issue a ticket, register it with whoever will wake them,
// then Park. The ticket is returned as a runtime.Ticket so such primitives
// work on any runtime backend.
func (p *Proc) Prepare() runtime.Ticket { return p.prepare() }

// Park blocks the proc until a ticket from the most recent Prepare is
// woken. Callers must loop on their condition: wakeups may be spurious.
func (p *Proc) Park() { p.park() }

// park blocks the proc until its current ticket is woken.
func (p *Proc) park() {
	p.parked = true
	p.k.yield <- struct{}{}
	if ok := <-p.resume; !ok {
		stdruntime.Goexit()
	}
	p.parked = false
}

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Yield anyway so same-time events get a chance to run in order.
		d = 0
	}
	t := p.prepare()
	t.WakeAfter(d)
	p.park()
}

// Wait blocks until ev fires and returns its payload. If ev has already
// fired it returns immediately without yielding. ev must be a sim Event
// created on the same kernel; the runtime.Event parameter type lets code
// written against runtime.Task run unchanged here.
func (p *Proc) Wait(ev runtime.Event) any {
	e := ev.(*Event)
	if e.fired {
		return e.val
	}
	t := p.prepare()
	e.waiters = append(e.waiters, t)
	p.park()
	return e.val
}

// WaitAll blocks until every event has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// WaitAny blocks until at least one event has fired and returns the index of
// the first fired event (lowest index among those already fired on wakeup).
func (p *Proc) WaitAny(evs ...*Event) int {
	for {
		for i, ev := range evs {
			if ev.fired {
				return i
			}
		}
		t := p.prepare()
		for _, ev := range evs {
			ev.waiters = append(ev.waiters, t)
		}
		p.park()
	}
}
