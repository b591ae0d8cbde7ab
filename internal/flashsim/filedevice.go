package flashsim

import (
	"fmt"
	"io"
	"os"
	"syscall"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// openImage opens (or creates) a sparse image file. With durable set the
// file is opened O_DSYNC, so every write syscall returns only after the data
// reaches the medium — the latency profile of a real flash device with
// forced unit access, rather than of the page cache.
func openImage(path string, durable bool) (*os.File, error) {
	flags := os.O_RDWR | os.O_CREATE
	if durable {
		flags |= syscall.O_DSYNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("flashsim: open image: %w", err)
	}
	return f, nil
}

// FileOptions shape a FileDevice. The zero value is the plain persistence
// substrate: page-cache durability.
type FileOptions struct {
	// Durable opens the image O_DSYNC (see openImage).
	Durable bool
}

// FileDevice is a functional device backed by a real file on disk, so a
// store's contents survive process restarts and the recovery path (§3.2.3)
// can be exercised across real invocations (see cmd/leedctl). It models no
// latency and is purely a persistence substrate.
type FileDevice struct {
	env      runtime.Env
	f        *os.File
	capacity int64
	stats    devStats
	queued   int // ops submitted but not yet completed

	queuedWrites int    // writes/flushes among queued (guards inline reads)
	mmap         []byte // read-only view of the image (see mmapread.go)
	syncReads    bool
}

// OpenFileDevice opens (or creates) the image file at path with the given
// advertised capacity. The file is sparse: unwritten regions read as zero.
func OpenFileDevice(env runtime.Env, path string, capacity int64) (*FileDevice, error) {
	return OpenFileDeviceOpts(env, path, capacity, FileOptions{})
}

// OpenFileDeviceDurable is OpenFileDevice with the image opened O_DSYNC:
// every write completes at device latency (see openImage).
func OpenFileDeviceDurable(env runtime.Env, path string, capacity int64) (*FileDevice, error) {
	return OpenFileDeviceOpts(env, path, capacity, FileOptions{Durable: true})
}

// OpenFileDeviceOpts is OpenFileDevice with explicit options.
func OpenFileDeviceOpts(env runtime.Env, path string, capacity int64, opt FileOptions) (*FileDevice, error) {
	f, err := openImage(path, opt.Durable)
	if err != nil {
		return nil, err
	}
	return &FileDevice{env: env, f: f, capacity: capacity, stats: newStats()}, nil
}

// Capacity returns the advertised device size.
func (d *FileDevice) Capacity() int64 { return d.capacity }

// Stats returns cumulative counters.
func (d *FileDevice) Stats() Stats { return d.stats.Stats }

// Observe binds the device to a metrics registry and tracer.
func (d *FileDevice) Observe(reg *obs.Registry, tr *obs.Tracer, dev string) {
	d.stats.o = newDevObs(reg, tr, dev)
}

// Close syncs and closes the image file.
func (d *FileDevice) Close() error {
	munmapImage(d.mmap)
	d.mmap = nil
	if err := d.f.Sync(); err != nil {
		return err
	}
	return d.f.Close()
}

// Submit completes the operation at the current time against the backing
// file. The syscall runs in scheduler context — on the wallclock backend
// that means inside the runtime lock, serializing all I/O behind one core
// (the submission-queue path in AsyncFileDevice exists to avoid exactly
// this). Latency recorded is real submit-to-complete time, which on the
// wallclock backend includes the wait behind other ops' syscalls.
func (d *FileDevice) Submit(op *Op) {
	if err := checkRange(d.capacity, op); err != nil {
		d.env.After(0, func() { op.Done.Fire(err) })
		return
	}
	op.submitted = d.env.Now()
	d.queued++
	if op.Kind != OpRead {
		d.queuedWrites++
	}
	d.stats.noteQueued(d.queued)
	d.env.After(0, func() {
		d.queued--
		if op.Kind != OpRead {
			d.queuedWrites--
		}
		op.started = d.env.Now()
		switch op.Kind {
		case OpRead:
			n, err := d.f.ReadAt(op.Data, op.Offset)
			if err != nil && err != io.EOF {
				op.Done.Fire(fmt.Errorf("flashsim: file read: %w", err))
				return
			}
			// Reads past the written extent return zeros (sparse image).
			for i := n; i < len(op.Data); i++ {
				op.Data[i] = 0
			}
		case OpWrite:
			if _, err := d.f.WriteAt(op.Data, op.Offset); err != nil {
				op.Done.Fire(fmt.Errorf("flashsim: file write: %w", err))
				return
			}
		case OpFlush:
			if err := d.f.Sync(); err != nil {
				op.Done.Fire(fmt.Errorf("flashsim: file sync: %w", err))
				return
			}
		}
		d.stats.record(op.Kind, len(op.Data), op.started-op.submitted, d.env.Now()-op.started)
		op.Done.Fire(nil)
	})
}
