// Package flashsim models NVMe flash devices: an SSD with bounded internal
// parallelism, kind- and size-dependent service times, and a real (sparse)
// byte backing store, plus a zero-latency MemDevice for functional tests and
// a file-backed AsyncFileDevice for persistence. Devices expose the asynchronous
// submit/complete interface a kernel-bypass stack like SPDK would: Submit
// never blocks, and completion is signalled through a runtime.Event.
//
// Devices are written against runtime.Env, so the same models run under the
// deterministic sim kernel or the wall-clock backend.
package flashsim

import (
	"fmt"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// OpKind distinguishes reads from writes.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	// OpFlush is a barrier: it completes only after every operation
	// submitted before it has completed, and on file-backed devices it also
	// syncs the backing file. Offset and Data are ignored (leave them zero).
	// Purely modeled devices treat it as an ordering no-op.
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "flush"
	}
}

// Op is one asynchronous device operation. For reads, Data is the
// destination buffer filled at completion; for writes it is the payload,
// which must not be mutated until Done fires. Done fires with a nil payload
// on success or an error.
type Op struct {
	Kind   OpKind
	Offset int64
	Data   []byte
	Done   runtime.Event

	submitted runtime.Time
	started   runtime.Time // service start, stamped when the op leaves the queue
	seq       int64        // submit order, stamped by queueing devices
}

// Device is an asynchronous block device.
type Device interface {
	// Submit enqueues the operation; it never blocks. op.Done fires when
	// the operation completes.
	Submit(op *Op)
	// Capacity returns the device size in bytes.
	Capacity() int64
	// Stats returns cumulative operation counters.
	Stats() Stats
}

// SyncReader is an optional Device capability: serve a read synchronously,
// in the caller's task context, with no event machinery. The async Submit
// path costs an Op, a completion event, a closure and a park per read —
// the right price for modeled latency but pure overhead on a zero-latency
// device. TryReadAt returns false when the device cannot (or
// is not configured to) serve the read inline; the caller then falls back
// to Submit. A true return means dst is filled and the read has been
// counted in Stats exactly as a submitted read would be.
type SyncReader interface {
	TryReadAt(dst []byte, off int64) bool
}

// Stats are cumulative device counters.
type Stats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	ReadLat, WriteLat       *obs.Histogram // submit-to-complete
	QueueLat                *obs.Histogram // submit-to-service-start (queue wait)
	ServiceLat              *obs.Histogram // service-start-to-complete
	MaxQueue                int            // high-water mark of queued + in-flight ops
	Flushes                 int64          // completed OpFlush barriers
	Batches                 int64          // doorbell batches dispatched (submission-queue devices)
	Coalesced               int64          // writes merged into a preceding write's syscall
}

func newStats() devStats {
	return devStats{Stats: Stats{
		ReadLat:    obs.NewHistogram(),
		WriteLat:   obs.NewHistogram(),
		QueueLat:   obs.NewHistogram(),
		ServiceLat: obs.NewHistogram(),
	}}
}

// devStats is the internal form: the legacy Stats view plus an optional obs
// binding that mirrors every completion into a metrics registry and the
// "device" trace stage. The Stats view keeps its execution-contract (one
// task at a time) semantics; the obs side is atomic/locked so a wallclock
// HTTP scrape can read it mid-run.
type devStats struct {
	Stats
	o *devObs
}

// record counts one successfully completed operation, split into queue wait
// (submit to service start) and service time. Shared by every device
// implementation so they all report the same way.
func (s *devStats) record(kind OpKind, bytes int, queue, service runtime.Time) {
	if queue < 0 {
		queue = 0
	}
	if service < 0 {
		service = 0
	}
	switch kind {
	case OpRead:
		s.Reads++
		s.BytesRead += int64(bytes)
		s.ReadLat.Record(queue + service)
	case OpWrite:
		s.Writes++
		s.BytesWritten += int64(bytes)
		s.WriteLat.Record(queue + service)
	case OpFlush:
		s.Flushes++
	}
	if kind != OpFlush {
		s.QueueLat.Record(queue)
		s.ServiceLat.Record(service)
	}
	s.o.record(kind, bytes, queue, service)
}

// noteQueued bumps the queue-depth high-water mark.
func (s *devStats) noteQueued(depth int) {
	if depth > s.MaxQueue {
		s.MaxQueue = depth
	}
	s.o.queueDepth(depth)
}

func (s *devStats) noteBatch() {
	s.Batches++
	s.o.batch()
}

func (s *devStats) noteCoalesced(n int64) {
	s.Coalesced += n
	s.o.coalesce(n)
}

// devObs is a device's registry binding: counters and histograms named
// leed_device_* with a dev label, plus "device"-stage trace observations
// through a stage bound once. All methods no-op on a nil receiver, so
// unobserved devices pay one nil check per completion.
type devObs struct {
	stage                   *obs.StageBind
	reads, writes, flushes  *obs.Counter
	batches, coalesced      *obs.Counter
	bytesRead, bytesWritten *obs.Counter
	maxQueue                *obs.Gauge
	readLat, writeLat       *obs.Hist
	queueLat, svcLat        *obs.Hist
}

func newDevObs(reg *obs.Registry, tr *obs.Tracer, dev string) *devObs {
	l := []string{"dev", dev}
	return &devObs{
		stage:        tr.Bind("device"),
		reads:        reg.Counter("leed_device_reads_total", l...),
		writes:       reg.Counter("leed_device_writes_total", l...),
		flushes:      reg.Counter("leed_device_flushes_total", l...),
		batches:      reg.Counter("leed_device_batches_total", l...),
		coalesced:    reg.Counter("leed_device_coalesced_total", l...),
		bytesRead:    reg.Counter("leed_device_read_bytes_total", l...),
		bytesWritten: reg.Counter("leed_device_written_bytes_total", l...),
		maxQueue:     reg.Gauge("leed_device_max_queue_depth", l...),
		readLat:      reg.Hist("leed_device_read_latency_ns", l...),
		writeLat:     reg.Hist("leed_device_write_latency_ns", l...),
		queueLat:     reg.Hist("leed_device_queue_wait_ns", l...),
		svcLat:       reg.Hist("leed_device_service_ns", l...),
	}
}

func (o *devObs) record(kind OpKind, bytes int, queue, service runtime.Time) {
	if o == nil {
		return
	}
	switch kind {
	case OpRead:
		o.reads.Inc()
		o.bytesRead.Add(int64(bytes))
		o.readLat.Record(queue + service)
	case OpWrite:
		o.writes.Inc()
		o.bytesWritten.Add(int64(bytes))
		o.writeLat.Record(queue + service)
	case OpFlush:
		o.flushes.Inc()
		return
	}
	o.queueLat.Record(queue)
	o.svcLat.Record(service)
	o.stage.Observe(queue, service)
}

func (o *devObs) queueDepth(d int) {
	if o == nil {
		return
	}
	// Monotone max; only written from task context, read by scrapes.
	if int64(d) > o.maxQueue.Load() {
		o.maxQueue.Set(int64(d))
	}
}

func (o *devObs) batch() {
	if o == nil {
		return
	}
	o.batches.Inc()
}

func (o *devObs) coalesce(n int64) {
	if o == nil {
		return
	}
	o.coalesced.Add(n)
}

// Observe binds a device to a metrics registry and tracer under the given
// dev label. Devices that don't support observation (external fakes) are
// left alone. Call before traffic starts.
func Observe(d Device, reg *obs.Registry, tr *obs.Tracer, dev string) {
	if o, ok := d.(interface {
		Observe(reg *obs.Registry, tr *obs.Tracer, dev string)
	}); ok {
		o.Observe(reg, tr, dev)
	}
}

func checkRange(cap_ int64, op *Op) error {
	if op.Offset < 0 || op.Offset+int64(len(op.Data)) > cap_ {
		return fmt.Errorf("flashsim: %s of %d bytes at offset %d outside device capacity %d",
			op.Kind, len(op.Data), op.Offset, cap_)
	}
	return nil
}
