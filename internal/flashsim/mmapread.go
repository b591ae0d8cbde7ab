package flashsim

import (
	"fmt"
	"os"
	"syscall"
)

// mmapImage maps the image read-only so reads become a memcpy from the page
// cache instead of a pread syscall — the userspace read path the paper buys
// with SPDK. MAP_SHARED keeps the view coherent with the device's pwrite
// syscalls: a completed write is visible to the next mapped read. Accessing
// pages past EOF faults, so the sparse file is first grown to its advertised
// capacity (allocates nothing on disk; holes read as zeros, matching the
// sparse-read semantics of the syscall path).
func mmapImage(f *os.File, capacity int64) ([]byte, error) {
	if capacity <= 0 || int64(int(capacity)) != capacity {
		return nil, fmt.Errorf("flashsim: cannot mmap capacity %d", capacity)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("flashsim: mmap image: %w", err)
	}
	if st.Size() < capacity {
		if err := f.Truncate(capacity); err != nil {
			return nil, fmt.Errorf("flashsim: grow image for mmap: %w", err)
		}
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(capacity), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("flashsim: mmap image: %w", err)
	}
	return m, nil
}

func munmapImage(m []byte) {
	if m != nil {
		syscall.Munmap(m)
	}
}

// SetSyncReads toggles the SyncReader fast path: reads with no ordering
// hazard complete inline in the caller's context by copying from a read-only
// mmap of the image — no event machinery, no syscall. Off by default; the
// serve path opts in. The first enable maps the image.
func (d *AsyncFileDevice) SetSyncReads(on bool) error {
	if on && d.mmap == nil {
		m, err := mmapImage(d.f, d.capacity)
		if err != nil {
			return err
		}
		d.mmap = m
	}
	d.syncReads = on
	return nil
}

// TryReadAt implements SyncReader. The inline read must honor the same
// ordering the submission queue enforces: it declines when the range
// overlaps a queued or in-flight write (the read must see that write's
// bytes, and must not race its pwrite mid-flight) or when a flush barrier
// is queued. GETs of acknowledged data never overlap an in-flight write —
// the ack means the write completed — so in steady state the fast path
// always hits.
func (d *AsyncFileDevice) TryReadAt(dst []byte, off int64) bool {
	if !d.syncReads {
		return false
	}
	end := off + int64(len(dst))
	if off < 0 || end > d.capacity {
		return false // let Submit produce the range error
	}
	if d.flushQueued > 0 {
		return false
	}
	probe := Op{Kind: OpRead, Offset: off, Data: dst}
	if d.readMustOrder(&probe) || d.conflicts(&probe) {
		return false
	}
	copy(dst, d.mmap[off:end])
	d.stats.record(OpRead, len(dst), 0, 0)
	return true
}

// SetSyncReads is the FileDevice flavor of the mmap read lane (see the
// AsyncFileDevice method).
func (d *FileDevice) SetSyncReads(on bool) error {
	if on && d.mmap == nil {
		m, err := mmapImage(d.f, d.capacity)
		if err != nil {
			return err
		}
		d.mmap = m
	}
	d.syncReads = on
	return nil
}

// TryReadAt implements SyncReader. FileDevice executes queued ops strictly
// in submit order, so an inline read may only overtake the queue when no
// write or flush is outstanding — it tracks no ranges, so the guard is
// conservative: any pending write declines the fast path.
func (d *FileDevice) TryReadAt(dst []byte, off int64) bool {
	if !d.syncReads || d.queuedWrites > 0 {
		return false
	}
	end := off + int64(len(dst))
	if off < 0 || end > d.capacity {
		return false
	}
	copy(dst, d.mmap[off:end])
	d.stats.record(OpRead, len(dst), 0, 0)
	return true
}
