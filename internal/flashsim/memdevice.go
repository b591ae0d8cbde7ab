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
}

// NewMemDevice creates a zero-latency device of the given capacity.
func NewMemDevice(env runtime.Env, capacity int64) *MemDevice {
	return &MemDevice{env: env, store: newPageStore(capacity), stats: newStats()}
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
	d.env.After(0, func() {
		switch op.Kind {
		case OpRead:
			d.store.readAt(op.Data, op.Offset)
		case OpWrite:
			d.store.writeAt(op.Data, op.Offset)
		}
		d.stats.record(op.Kind, len(op.Data), d.env.Now()-op.submitted, 0)
		op.Done.Fire(nil)
	})
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
