package core

import (
	"fmt"

	"leed/internal/flashsim"
	"leed/internal/runtime"
)

// CircLog is a fixed-size circular log on a region of a device (§3.2.1).
// Offsets handed out are *logical*: they increase monotonically forever and
// are mapped onto the physical region modulo its size, which makes offset
// validity checks (is this entry still live?) a pair of comparisons against
// head and tail. The log supports three operations: read from a valid
// offset, append at the tail, and release (advance the head) after
// compaction.
type CircLog struct {
	env  runtime.Env
	dev  flashsim.Device
	off  int64 // physical start of the region
	size int64
	head int64 // logical: first live byte
	tail int64 // logical: first free byte

	// Group commit (§3.5's batched doorbells, applied to the log): Append
	// only reserves space and stages the record; a zero-delay flush event
	// merges everything staged by the time it runs into one device write.
	// When it runs is the backend's After(0). On sim: behind every event
	// already scheduled for that instant, so appends from all the tasks
	// those events resume merge. On wallclock: when the appending task next
	// releases the runtime lock — normally its park on the append's event —
	// so what merges is what that one task staged, plus whatever piled up
	// behind a full pipeline. At most maxGroupWrites group writes are in
	// flight; appends arriving with the pipeline full stage into the next
	// group, so group size adapts to device latency: the slower the device,
	// the more appends each write carries. Reservations are handed out
	// contiguously, so the staged records always form a single logical
	// range starting at stagedStart.
	staged      []stagedAppend
	stagedStart int64
	stagedBytes int64
	flushArmed  bool
	inFlight    int
	flushFn     func() // bound once; After(0, l.flushAppends) would allocate per arm

	appends      int64
	reads        int64
	groupCommits int64 // device writes that carried more than one append
}

// stagedAppend is one reserved-but-unsubmitted append.
type stagedAppend struct {
	data []byte
	done runtime.Event
}

// maxGroupWrites is the log's commit pipeline depth: how many group writes
// may be on the device at once. Successive groups cover adjacent (never
// overlapping) ranges, so they can be in flight together and the device
// parallelism absorbs them. minPipelineGroup gates when a new group may
// join a non-empty pipeline: while any write is in flight, a flush arms
// only once that many appends (or maxGroupBytes of payload) are staged.
// Without the gate, trickling appends each depart in their own tiny group
// (measured against a modeled device service time: 2-3x the device writes,
// each paying full service time); with it, light load degenerates to one
// maximally-merged group per device round-trip while bursts still fan out
// across the pipeline. maxGroupBytes caps one group's write: merging
// amortizes a write's base cost, but an unbounded group occupies a single
// device service unit for time linear in its size, starving the device's
// internal parallelism a burst would otherwise use.
const (
	maxGroupWrites   = 4
	minPipelineGroup = 8
	maxGroupBytes    = 16 << 10
)

// NewCircLog creates a log over dev[off, off+size).
func NewCircLog(env runtime.Env, dev flashsim.Device, off, size int64) *CircLog {
	if size <= 0 || off < 0 || off+size > dev.Capacity() {
		panic(fmt.Sprintf("core: bad circular log region [%d,+%d) on device of %d", off, size, dev.Capacity()))
	}
	l := &CircLog{env: env, dev: dev, off: off, size: size}
	l.flushFn = l.flushAppends
	return l
}

// Size returns the region size in bytes.
func (l *CircLog) Size() int64 { return l.size }

// Head returns the logical offset of the first live byte.
func (l *CircLog) Head() int64 { return l.head }

// Tail returns the logical offset where the next append lands.
func (l *CircLog) Tail() int64 { return l.tail }

// Used returns live-region bytes (tail - head).
func (l *CircLog) Used() int64 { return l.tail - l.head }

// Free returns appendable bytes.
func (l *CircLog) Free() int64 { return l.size - l.Used() }

// Contains reports whether [logical, logical+n) lies in the live region.
func (l *CircLog) Contains(logical, n int64) bool {
	return logical >= l.head && logical+n <= l.tail
}

// phys maps a logical offset to its physical device offset.
func (l *CircLog) phys(logical int64) int64 { return l.off + logical%l.size }

// submitWrap issues one logical-range op, splitting at the physical wrap
// point if needed, and returns an event that fires when all parts complete.
func (l *CircLog) submitWrap(kind flashsim.OpKind, logical int64, data []byte) runtime.Event {
	done := l.env.MakeEvent()
	p0 := l.phys(logical)
	first := l.off + l.size - p0
	if int64(len(data)) <= first {
		op := &flashsim.Op{Kind: kind, Offset: p0, Data: data, Done: done}
		l.dev.Submit(op)
		return done
	}
	// Straddles the wrap point: two device ops, fire when both are done.
	d1, d2 := l.env.MakeEvent(), l.env.MakeEvent()
	l.dev.Submit(&flashsim.Op{Kind: kind, Offset: p0, Data: data[:first], Done: d1})
	l.dev.Submit(&flashsim.Op{Kind: kind, Offset: l.off, Data: data[first:], Done: d2})
	pending := 2
	var firstErr any
	cb := func(v any) {
		if v != nil && firstErr == nil {
			firstErr = v
		}
		pending--
		if pending == 0 {
			done.Fire(firstErr)
		}
	}
	d1.OnFire(cb)
	d2.OnFire(cb)
	return done
}

// Append reserves space at the tail and stages the write for group commit:
// the record is submitted by a zero-delay flush event together with every
// other append staged in the same instant, as one device write. It returns
// the logical offset of the record and a completion event (payload nil or
// error). The reservation is immediate, so concurrent appenders never
// interleave their bytes; data must not be mutated until the event fires.
// ErrLogFull is returned when the live region cannot absorb the record.
func (l *CircLog) Append(data []byte) (logical int64, done runtime.Event, err error) {
	n := int64(len(data))
	if n > l.size {
		return 0, nil, ErrValueTooLarge
	}
	if n > l.Free() {
		return 0, nil, ErrLogFull
	}
	logical = l.tail
	l.tail += n
	l.appends++
	done = l.env.MakeEvent()
	if len(l.staged) == 0 {
		l.stagedStart = logical
	}
	l.staged = append(l.staged, stagedAppend{data: data, done: done})
	l.stagedBytes += n
	if !l.flushArmed && l.inFlight < maxGroupWrites &&
		(l.inFlight == 0 || len(l.staged) >= minPipelineGroup || l.stagedBytes >= maxGroupBytes) {
		l.flushArmed = true
		l.env.After(0, l.flushFn)
	}
	return logical, done, nil
}

// flushAppends submits everything staged as one device write and fans the
// result out to each append's event. A failed combined write fails every
// append in the group; each caller then reclaims (or accounts for) its own
// reservation via Unappend, exactly as with per-append writes. The flush
// deliberately does not touch the tail itself: rolling the whole group back
// here would let a later append reuse a group member's offset before that
// member's caller ran its error path, making the two reservations
// indistinguishable to Unappend.
func (l *CircLog) flushAppends() {
	l.flushArmed = false
	if l.inFlight >= maxGroupWrites || len(l.staged) == 0 {
		return
	}
	// Take the longest staged prefix within maxGroupBytes (always at least
	// one append; an oversized record goes out alone).
	n, total := 0, int64(0)
	for n < len(l.staged) && (n == 0 || total+int64(len(l.staged[n].data)) <= maxGroupBytes) {
		total += int64(len(l.staged[n].data))
		n++
	}
	staged := l.staged[:n:n]
	start := l.stagedStart
	l.staged = l.staged[n:]
	l.stagedBytes -= total
	l.stagedStart += total
	l.inFlight++
	var ev runtime.Event
	if len(staged) == 1 {
		ev = l.submitWrap(flashsim.OpWrite, start, staged[0].data)
	} else {
		buf := make([]byte, 0, total)
		for _, a := range staged {
			buf = append(buf, a.data...)
		}
		ev = l.submitWrap(flashsim.OpWrite, start, buf)
		l.groupCommits++
	}
	// A cap-split remainder is a full-size group by construction: let it
	// chase this write down the pipeline immediately.
	if len(l.staged) > 0 && l.inFlight < maxGroupWrites && !l.flushArmed {
		l.flushArmed = true
		l.env.After(0, l.flushFn)
	}
	ev.OnFire(func(v any) {
		l.inFlight--
		for _, a := range staged {
			a.done.Fire(v)
		}
		// Appends staged while the pipeline was full form the next group.
		if len(l.staged) > 0 && !l.flushArmed {
			l.flushArmed = true
			l.env.After(0, l.flushFn)
		}
	})
}

// Unappend gives back a failed append's reservation. It succeeds only while
// the record is still the last one appended; once another append has
// advanced the tail the bytes cannot be reclaimed, and the record stays in
// the log as a hole that recovery skips and compaction reclaims. Members of
// a failed group commit reclaim in LIFO order: whichever callers reach
// Unappend while their record is still at the tail roll it back, the rest
// become holes.
func (l *CircLog) Unappend(logical, n int64) bool {
	if l.tail == logical+n {
		l.tail = logical
		return true
	}
	return false
}

// ReadAsync issues a read of len(buf) bytes at the logical offset and
// returns the completion event. The offset must be within the live region.
func (l *CircLog) ReadAsync(logical int64, buf []byte) (runtime.Event, error) {
	if !l.Contains(logical, int64(len(buf))) {
		return nil, fmt.Errorf("%w: read [%d,+%d) outside live [%d,%d)", ErrCorrupt, logical, len(buf), l.head, l.tail)
	}
	l.reads++
	return l.submitWrap(flashsim.OpRead, logical, buf), nil
}

// ReadNow attempts the read synchronously via the device's optional
// SyncReader capability (a wrap-straddling read becomes two inline device
// reads, mirroring submitWrap's two ops). done=false means the device
// declined — not enabled, or no capability — and the caller should fall
// back to ReadAsync; on that path no state has changed and nothing was
// counted. This is the allocation-free leg of the hot paths: the async
// route costs an event, an Op, a completion closure and a park per read.
func (l *CircLog) ReadNow(logical int64, buf []byte) (done bool, err error) {
	sr, ok := l.dev.(flashsim.SyncReader)
	if !ok {
		return false, nil
	}
	n := int64(len(buf))
	if !l.Contains(logical, n) {
		return false, nil // ReadAsync reports the range error
	}
	p0 := l.phys(logical)
	first := l.off + l.size - p0
	if n <= first {
		if !sr.TryReadAt(buf, p0) {
			return false, nil
		}
	} else {
		if !sr.TryReadAt(buf[:first], p0) {
			return false, nil
		}
		if !sr.TryReadAt(buf[first:], l.off) {
			return false, nil
		}
	}
	l.reads++
	return true, nil
}

// Read performs a blocking read from a proc.
func (l *CircLog) Read(p runtime.Task, logical int64, buf []byte) error {
	ev, err := l.ReadAsync(logical, buf)
	if err != nil {
		return err
	}
	if v := p.Wait(ev); v != nil {
		return v.(error)
	}
	return nil
}

// ReleaseTo advances the head to newHead, reclaiming the space before it.
// Compaction calls this after relocating all live records below newHead.
func (l *CircLog) ReleaseTo(newHead int64) {
	if newHead < l.head || newHead > l.tail {
		panic(fmt.Sprintf("core: ReleaseTo(%d) outside [%d,%d]", newHead, l.head, l.tail))
	}
	l.head = newHead
}

// Restore forcibly sets head and tail; used only by recovery.
func (l *CircLog) Restore(head, tail int64) {
	if head > tail || tail-head > l.size {
		panic("core: Restore with invalid pointers")
	}
	l.head, l.tail = head, tail
}

// Stats returns (appends, reads) issued so far.
func (l *CircLog) Stats() (appends, reads int64) { return l.appends, l.reads }

// GroupCommits returns how many device writes carried more than one append.
func (l *CircLog) GroupCommits() int64 { return l.groupCommits }
