package sim

import (
	"leed/internal/obs"
	"leed/internal/runtime"
)

// The DES kernel is the deterministic implementation of the runtime seam:
// Kernel is an Env, Proc is a Task, and Event is the backend's completion
// signal. Queues and resources are runtime's own, parked through Proc.
var (
	_ runtime.Env    = (*Kernel)(nil)
	_ runtime.Task   = (*Proc)(nil)
	_ runtime.Ticket = Ticket{}
	_ runtime.Event  = (*Event)(nil)
)

// Spawn implements runtime.Env by starting fn as a new proc.
func (k *Kernel) Spawn(name string, fn func(t runtime.Task)) {
	k.Go(name, func(p *Proc) { fn(p) })
}

// Offload implements runtime.Env: fn runs inline in scheduler context at the
// current virtual time, immediately followed by done. The kernel is
// single-threaded, so "outside the execution contract" degenerates to "as a
// zero-delay event" — offloaded work costs no virtual time and stays
// bit-identical across replays.
func (k *Kernel) Offload(fn func() any, done func(v any)) {
	k.After(0, func() { done(fn()) })
}

// AfterIdle implements runtime.Env. The kernel has no concurrency to
// coalesce across: the environment is quiet whenever the current event
// yields, so fn is simply a zero-delay event.
func (k *Kernel) AfterIdle(fn func()) { k.After(0, fn) }

// Blocking implements runtime.Task by running fn inline: the kernel has no
// lock to give up, and a proc that blocks in fn holds virtual time still.
func (p *Proc) Blocking(fn func()) { fn() }

// MakeEvent implements runtime.Env.
func (k *Kernel) MakeEvent() runtime.Event { return k.NewEvent() }

// MakeQueue implements runtime.Env.
func (k *Kernel) MakeQueue() *runtime.Queue { return new(runtime.Queue) }

// MakeResource implements runtime.Env.
func (k *Kernel) MakeResource(capacity int64) *runtime.Resource { return runtime.NewResource(capacity) }

// MakeHistogram implements runtime.Env.
func (k *Kernel) MakeHistogram() *obs.Histogram { return obs.NewHistogram() }
