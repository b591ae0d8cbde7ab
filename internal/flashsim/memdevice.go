package flashsim

import (
	"leed/internal/obs"
	"leed/internal/runtime"
)

// MemDevice is a functional device with no modeled latency: operations
// complete at the current time (asynchronously, so under the sim backend
// completion ordering relative to other same-time events is still
// deterministic). It is the substrate for unit and property tests of the
// data store, where only correctness matters.
type MemDevice struct {
	env       runtime.Env
	store     *pageStore
	stats     devStats
	syncReads bool

	// pending holds submitted ops, oldest first from pending[head], until
	// their zero-delay completion runs. Each push arms one After(0) of
	// completeFn, and both backends run zero-delay callbacks in
	// registration order, so each run pops the op its own Submit pushed.
	pending    []*Op
	head       int
	completeFn func() // d.completeNext, bound once
}

// NewMemDevice creates a zero-latency device of the given capacity.
func NewMemDevice(env runtime.Env, capacity int64) *MemDevice {
	d := &MemDevice{env: env, store: newPageStore(capacity), stats: newStats()}
	d.completeFn = d.completeNext
	return d
}

// Capacity returns the device size in bytes.
func (d *MemDevice) Capacity() int64 { return d.store.capacity }

// Stats returns cumulative counters.
func (d *MemDevice) Stats() Stats { return d.stats.Stats }

// Observe binds the device to a metrics registry and tracer.
func (d *MemDevice) Observe(reg *obs.Registry, tr *obs.Tracer, dev string) {
	d.stats.o = newDevObs(reg, tr, dev)
}

// Submit completes op at the current time.
func (d *MemDevice) Submit(op *Op) {
	if err := checkRange(d.store.capacity, op); err != nil {
		d.env.After(0, func() { op.Done.Fire(err) })
		return
	}
	op.submitted = d.env.Now()
	// Reuse the dead prefix once it is at least half the queue, so a queue
	// that never fully drains neither grows without bound nor copies on
	// every push.
	if len(d.pending) == cap(d.pending) && d.head > 0 && 2*d.head >= len(d.pending) {
		n := copy(d.pending, d.pending[d.head:])
		clear(d.pending[n:])
		d.pending = d.pending[:n]
		d.head = 0
	}
	d.pending = append(d.pending, op)
	d.env.After(0, d.completeFn)
}

// completeNext completes the oldest pending op.
func (d *MemDevice) completeNext() {
	op := d.pending[d.head]
	d.pending[d.head] = nil
	if d.head++; d.head == len(d.pending) {
		d.pending, d.head = d.pending[:0], 0
	}
	switch op.Kind {
	case OpRead:
		d.store.readAt(op.Data, op.Offset)
	case OpWrite:
		d.store.writeAt(op.Data, op.Offset)
	}
	d.stats.record(op.Kind, len(op.Data), d.env.Now()-op.submitted, 0)
	op.Done.Fire(nil)
}

// SetSyncReads toggles the SyncReader fast path. Off by default: the sim
// backend's golden tests depend on every completion being an event at a
// deterministic instant, so inline reads are strictly opt-in — wallclock
// serve stacks enable them, sims never do.
func (d *MemDevice) SetSyncReads(on bool) { d.syncReads = on }

// TryReadAt implements SyncReader: when enabled, the read completes inline
// in the caller's context and is recorded in Stats like any submitted read.
func (d *MemDevice) TryReadAt(dst []byte, off int64) bool {
	if !d.syncReads {
		return false
	}
	if off < 0 || off+int64(len(dst)) > d.store.capacity {
		return false // let Submit produce the range error
	}
	d.store.readAt(dst, off)
	d.stats.record(OpRead, len(dst), 0, 0)
	return true
}

// SyncRead reads synchronously, bypassing the simulation. Test helper.
func (d *MemDevice) SyncRead(dst []byte, off int64) { d.store.readAt(dst, off) }

// SyncWrite writes synchronously, bypassing the simulation. Test helper.
func (d *MemDevice) SyncWrite(src []byte, off int64) { d.store.writeAt(src, off) }
