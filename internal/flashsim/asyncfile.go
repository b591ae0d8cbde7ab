package flashsim

import (
	"fmt"
	"io"
	"os"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// AsyncOptions shape an AsyncFileDevice's submission queue. Zero values
// select the defaults.
type AsyncOptions struct {
	// Workers is the number of I/O batches that may execute concurrently
	// (the depth of the device's "hardware" queue). Default 4.
	Workers int
	// MaxBatch caps ops dispatched to one worker as a batch. Default 32.
	MaxBatch int
	// CoalesceBytes caps how many payload bytes one merged write syscall may
	// carry. Default 1 MiB.
	CoalesceBytes int
	// Durable opens the image O_DSYNC so every write syscall completes at
	// device latency (see openImage). Coalescing then amortizes one durable
	// write over the whole merged run.
	Durable bool
}

func (o *AsyncOptions) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.CoalesceBytes <= 0 {
		o.CoalesceBytes = 1 << 20
	}
}

// AsyncFileDevice is FileDevice's submission-queue sibling: the same sparse
// image file, driven the way the paper's prototype drives its SSDs through
// SPDK. Submit only appends the op to a software submission queue; batches
// of queued ops are handed to runtime.Env.Offload, so on the wallclock
// backend the pread/pwrite syscalls run on pool goroutines
// OUTSIDE the big runtime lock and overlap both each other and the store's
// task execution. Batching is load-adaptive, the way NVMe queue pairs batch:
// an op submitted to an idle device dispatches immediately, while batches
// are in flight submissions accumulate, and each completion sweeps the
// backlog into new batches split across the free workers. Within a batch,
// writes to adjacent offsets — the shape every log append takes — are
// coalesced into a single syscall.
//
// Reads ride a fast lane: a read whose range overlaps no queued write may
// overtake queued writes and dispatch to the next free worker, the way an
// SSD scheduler prioritizes reads over buffered writes — otherwise
// microsecond page-cache reads queue behind millisecond durable writes.
// Sequence stamps keep the overtaking safe: any two ops with overlapping
// ranges still execute in submit order.
//
// Ordering guarantees, which recovery (§3.2.3) depends on:
//
//   - An op's Done fires only after its bytes reached (or were read from)
//     the file, so an acknowledged write is never reordered behind the ack.
//   - Ops whose ranges overlap are never in flight concurrently (dispatch
//     stalls the younger op), so same-offset rewrites land in submit order.
//   - OpFlush is a full barrier: it dispatches only once every earlier op
//     has completed, and it fsyncs the image.
//
// On the sim backend Offload degenerates to a zero-delay event, so the
// device stays deterministic: same submission order, same batches, same
// completion order on every run.
type AsyncFileDevice struct {
	env      runtime.Env
	f        *os.File
	capacity int64
	opt      AsyncOptions
	stats    devStats

	pending     []*Op         // ordered submission queue, FIFO
	reads       []*Op         // read fast lane, FIFO among reads
	inflight    []*asyncBatch // batches currently on workers
	inflightOps int
	workers     int
	seq         int64 // submit-order stamp
	flushQueued int   // OpFlush ops sitting in pending

	mmap      []byte // read-only view of the image (see mmapread.go)
	syncReads bool
}

// asyncBatch is one dispatch's worth of ops, executed sequentially by one
// offload worker.
type asyncBatch struct {
	ops    []*Op
	errs   []error // per-op results, filled off-lock by the worker
	merged int     // writes coalesced into a predecessor's syscall
}

// OpenAsyncFileDevice opens (or creates) the image file at path with the
// given advertised capacity, serving it through the async submission queue.
func OpenAsyncFileDevice(env runtime.Env, path string, capacity int64, opt AsyncOptions) (*AsyncFileDevice, error) {
	opt.setDefaults()
	f, err := openImage(path, opt.Durable)
	if err != nil {
		return nil, err
	}
	return &AsyncFileDevice{env: env, f: f, capacity: capacity, opt: opt, stats: newStats()}, nil
}

// Capacity returns the advertised device size.
func (d *AsyncFileDevice) Capacity() int64 { return d.capacity }

// Stats returns cumulative counters.
func (d *AsyncFileDevice) Stats() Stats { return d.stats.Stats }

// Observe binds the device to a metrics registry and tracer.
func (d *AsyncFileDevice) Observe(reg *obs.Registry, tr *obs.Tracer, dev string) {
	d.stats.o = newDevObs(reg, tr, dev)
}

// QueueDepth returns queued plus in-flight operations.
func (d *AsyncFileDevice) QueueDepth() int { return len(d.pending) + len(d.reads) + d.inflightOps }

// Close syncs and closes the image file. Call it only after the environment
// has drained (env.Wait on the wallclock backend): queued ops still in the
// submission queue are not flushed by Close.
func (d *AsyncFileDevice) Close() error {
	munmapImage(d.mmap)
	d.mmap = nil
	if err := d.f.Sync(); err != nil {
		return err
	}
	return d.f.Close()
}

// Submit implements Device: the op is queued and, when the device is idle,
// dispatched at once. It never blocks and never performs I/O itself. While
// batches are in flight, submissions accumulate instead: each completion
// sweeps the backlog into new batches (see dispatch), so batch size adapts
// to load without any timer — an idle device adds no latency, a busy one
// amortizes syscalls over whole queue's worth of ops.
func (d *AsyncFileDevice) Submit(op *Op) {
	if err := checkRange(d.capacity, op); err != nil {
		d.env.After(0, func() { op.Done.Fire(err) })
		return
	}
	op.submitted = d.env.Now()
	d.seq++
	op.seq = d.seq
	// A read joins the fast lane unless it must see a queued write's data
	// (range overlap) or a queued flush pins the order.
	if op.Kind == OpRead && d.flushQueued == 0 && !d.readMustOrder(op) {
		d.reads = append(d.reads, op)
	} else {
		if op.Kind == OpFlush {
			d.flushQueued++
		}
		d.pending = append(d.pending, op)
	}
	d.stats.noteQueued(d.QueueDepth())
	if d.workers == 0 || len(d.pending)+len(d.reads) >= d.opt.MaxBatch {
		d.dispatch()
	}
}

// readMustOrder reports whether the read overlaps a write still sitting in
// the ordered queue; such a read must stay behind that write.
func (d *AsyncFileDevice) readMustOrder(op *Op) bool {
	end := op.Offset + int64(len(op.Data))
	for _, w := range d.pending {
		if w.Kind != OpWrite {
			continue
		}
		if op.Offset < w.Offset+int64(len(w.Data)) && w.Offset < end {
			return true
		}
	}
	return false
}

// dispatch fills free worker slots with batches, splitting the backlog
// evenly across the free slots so the queue gets both coalescing (batches
// of adjacent writes) and overlap (all workers busy, each batch paying its
// service time concurrently with the others). Runs in scheduler context.
func (d *AsyncFileDevice) dispatch() {
	for d.workers < d.opt.Workers {
		free := d.opt.Workers - d.workers
		limit := (len(d.pending) + len(d.reads) + free - 1) / free
		if limit > d.opt.MaxBatch {
			limit = d.opt.MaxBatch
		}
		// Fast-lane reads first: they free the slot again quickly, so they
		// cannot starve the ordered queue for long.
		b := d.takeReadBatch(limit)
		if b == nil {
			b = d.takeBatch(limit)
		}
		if b == nil {
			return
		}
		d.workers++
		d.inflight = append(d.inflight, b)
		d.inflightOps += len(b.ops)
		d.stats.noteBatch()
		started := d.env.Now()
		for _, op := range b.ops {
			op.started = started
		}
		d.env.Offload(
			func() any { d.runBatch(b); return nil },
			func(any) { d.finishBatch(b) },
		)
	}
}

// conflicts reports whether op's range overlaps any in-flight op where at
// least one side is a write. Such an op must wait for the earlier one to
// complete so same-range I/O stays in submission order.
func (d *AsyncFileDevice) conflicts(op *Op) bool {
	end := op.Offset + int64(len(op.Data))
	for _, b := range d.inflight {
		for _, fl := range b.ops {
			if fl.Kind != OpWrite && op.Kind != OpWrite {
				continue
			}
			flEnd := fl.Offset + int64(len(fl.Data))
			if op.Offset < flEnd && fl.Offset < end {
				return true
			}
		}
	}
	return false
}

// takeReadBatch carves up to limit reads off the fast lane. Formation stops
// at a read whose range conflicts with an in-flight write.
func (d *AsyncFileDevice) takeReadBatch(limit int) *asyncBatch {
	var b asyncBatch
	for len(d.reads) > 0 && len(b.ops) < limit {
		op := d.reads[0]
		if d.conflicts(op) {
			break
		}
		b.ops = append(b.ops, op)
		d.reads = d.reads[1:]
	}
	if len(b.ops) == 0 {
		return nil
	}
	return &b
}

// takeBatch carves up to limit ops off the head of the ordered submission
// queue, preserving FIFO order: formation stops at the first op that cannot
// be dispatched yet (a barrier, a range conflict with an in-flight op, or a
// write an earlier-submitted fast-lane read has yet to overtake).
func (d *AsyncFileDevice) takeBatch(limit int) *asyncBatch {
	if len(d.pending) == 0 {
		return nil
	}
	if d.pending[0].Kind == OpFlush {
		if d.workers > 0 {
			return nil // barrier: drain in-flight batches first
		}
		d.flushQueued--
		b := &asyncBatch{ops: d.pending[:1:1]}
		d.pending = d.pending[1:]
		return b
	}
	var b asyncBatch
	for len(d.pending) > 0 && len(b.ops) < limit {
		op := d.pending[0]
		if op.Kind == OpFlush || d.conflicts(op) || d.overtaken(op) {
			break
		}
		b.ops = append(b.ops, op)
		d.pending = d.pending[1:]
	}
	if len(b.ops) == 0 {
		return nil
	}
	return &b
}

// overtaken reports whether an earlier-submitted read still queued in the
// fast lane overlaps op; op must wait so the read sees the pre-op bytes.
func (d *AsyncFileDevice) overtaken(op *Op) bool {
	if op.Kind != OpWrite {
		return false
	}
	end := op.Offset + int64(len(op.Data))
	for _, r := range d.reads {
		if r.seq < op.seq && op.Offset < r.Offset+int64(len(r.Data)) && r.Offset < end {
			return true
		}
	}
	return false
}

// runBatch executes a batch's syscalls. It runs OFF the runtime lock (on an
// offload worker) and touches only the batch, the op payloads, and the file.
func (d *AsyncFileDevice) runBatch(b *asyncBatch) {
	b.errs = make([]error, len(b.ops))
	for i := 0; i < len(b.ops); {
		op := b.ops[i]
		switch op.Kind {
		case OpWrite:
			// Coalesce the run of contiguous writes starting here into one
			// syscall: log appends from a group commit or from neighboring
			// clients arrive exactly back-to-back.
			j, total := i+1, len(op.Data)
			for j < len(b.ops) && b.ops[j].Kind == OpWrite &&
				b.ops[j].Offset == b.ops[j-1].Offset+int64(len(b.ops[j-1].Data)) &&
				total+len(b.ops[j].Data) <= d.opt.CoalesceBytes {
				total += len(b.ops[j].Data)
				j++
			}
			var err error
			if j > i+1 {
				buf := make([]byte, 0, total)
				for _, w := range b.ops[i:j] {
					buf = append(buf, w.Data...)
				}
				_, err = d.f.WriteAt(buf, op.Offset)
				b.merged += j - i - 1
			} else {
				_, err = d.f.WriteAt(op.Data, op.Offset)
			}
			if err != nil {
				err = fmt.Errorf("flashsim: file write: %w", err)
			}
			for k := i; k < j; k++ {
				b.errs[k] = err
			}
			i = j
		case OpRead:
			n, err := d.f.ReadAt(op.Data, op.Offset)
			if err != nil && err != io.EOF {
				b.errs[i] = fmt.Errorf("flashsim: file read: %w", err)
			} else {
				// Reads past the written extent return zeros (sparse image).
				for z := n; z < len(op.Data); z++ {
					op.Data[z] = 0
				}
			}
			i++
		case OpFlush:
			if err := d.f.Sync(); err != nil {
				b.errs[i] = fmt.Errorf("flashsim: file sync: %w", err)
			}
			i++
		}
	}
}

// finishBatch runs back in scheduler context: record stats, fire
// completions, refill the freed worker slot.
func (d *AsyncFileDevice) finishBatch(b *asyncBatch) {
	d.workers--
	d.inflightOps -= len(b.ops)
	for i, fl := range d.inflight {
		if fl == b {
			d.inflight = append(d.inflight[:i], d.inflight[i+1:]...)
			break
		}
	}
	d.stats.noteCoalesced(int64(b.merged))
	now := d.env.Now()
	for i, op := range b.ops {
		if err := b.errs[i]; err != nil {
			op.Done.Fire(err)
			continue
		}
		d.stats.record(op.Kind, len(op.Data), op.started-op.submitted, now-op.started)
		op.Done.Fire(nil)
	}
	d.dispatch()
}
