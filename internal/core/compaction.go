package core

import (
	"sort"

	"leed/internal/runtime"
)

// Compaction (§3.3.1). Both logs are reclaimed in bounded rounds: read a
// chunk at the head (ideally already prefetched during the previous round),
// decide liveness of every record in it, relocate the live ones to the
// tail, and advance the head. A round is divided into S sub-compactions
// that run as parallel procs so their SSD accesses overlap — the paper's
// intra-compaction parallelism (Figure 13a). Prefetching the next round's
// chunk while this round runs removes the head read from the critical path.

// valEntryRef is one parsed value-log entry within a compaction chunk.
type valEntryRef struct {
	off   int64 // logical offset in the value log
	size  int64
	key   []byte
	data  []byte // full entry bytes (aliases the chunk)
	seg   uint32
	next  int // index of the next entry of the same segment, or -1
	done  bool
	moved bool // relocated this round; undone if the array append fails
}

// keyArrayRef is one segment array within a key-log compaction chunk.
type keyArrayRef struct {
	off  int64
	seg  uint32
	data []byte // the array's bytes (aliases the chunk)
	done bool
}

// compactRefs is the store-owned scratch of compaction rounds, reused from
// round to round so a round allocates nothing per array or entry. Rounds
// never overlap (Store.compacting), so one set serves both logs.
type compactRefs struct {
	vals   []valEntryRef
	groups []int          // index of each segment's first entry in vals
	last   map[uint32]int // segment -> index of its latest entry so far
	arrays []keyArrayRef
}

// reset empties the scratch, keeping its capacity but dropping its
// references into the last round's chunk.
func (r *compactRefs) reset() {
	clear(r.vals)
	clear(r.arrays)
	clear(r.last)
	r.vals, r.groups, r.arrays = r.vals[:0], r.groups[:0], r.arrays[:0]
}

// fetchChunk returns a chunk of up to want bytes from the log head, using
// the prefetch buffer when it matches, and arranges the next prefetch.
func (s *Store) fetchChunk(p runtime.Task, st *OpStats, log *CircLog, pf *prefetchBuf, want int64) ([]byte, error) {
	if want > log.Used() {
		want = log.Used()
	}
	if want <= 0 {
		return nil, nil
	}
	if pf.valid && pf.off == log.Head() && int64(len(pf.buf)) <= log.Used() {
		pf.valid = false
		if err := s.ssdWait(p, st, pf.ev); err == nil {
			s.stats.PrefetchHits++
			if int64(len(pf.buf)) >= want {
				return pf.buf[:want], nil
			}
			return pf.buf, nil
		}
	}
	pf.valid = false
	buf := make([]byte, want)
	ev, err := log.ReadAsync(log.Head(), buf)
	if err != nil {
		return nil, err
	}
	st.Reads++
	if err := s.ssdWait(p, st, ev); err != nil {
		return nil, err
	}
	return buf, nil
}

// prefetchNext issues the read for the next compaction round's chunk.
func (s *Store) prefetchNext(log *CircLog, pf *prefetchBuf) {
	if !s.cfg.Prefetch {
		return
	}
	want := s.cfg.CompactChunk
	if want > log.Used() {
		want = log.Used()
	}
	if want <= 0 {
		pf.valid = false
		return
	}
	buf := make([]byte, want)
	ev, err := log.ReadAsync(log.Head(), buf)
	if err != nil {
		pf.valid = false
		return
	}
	*pf = prefetchBuf{valid: true, off: log.Head(), buf: buf, ev: ev}
}

// finishRound ends a round that finished every record before newHead: it
// releases the log up to there, retires the reclaimed bytes from *garbage,
// prefetches the next chunk and, when the head moved, persists it. It
// returns the bytes reclaimed.
func (s *Store) finishRound(p runtime.Task, log *CircLog, pf *prefetchBuf, garbage *int64, head, newHead int64) int64 {
	reclaimed := newHead - head
	if reclaimed > 0 {
		log.ReleaseTo(newHead)
		*garbage = max(*garbage-reclaimed, 0)
		s.stats.ReclaimedBytes += reclaimed
	}
	s.prefetchNext(log, pf)
	if reclaimed > 0 {
		s.writeSuperblock(p)
	}
	return reclaimed
}

// CompactValueLog runs one value-log compaction round and returns the bytes
// reclaimed. Pending swapped values are merged back first (§3.6: the swap
// region is merged back during future compactions).
func (s *Store) CompactValueLog(p runtime.Task) (int64, error) {
	if s.compacting {
		return 0, nil
	}
	s.compacting = true
	defer func() { s.compacting = false }()
	s.stats.ValCompactions++

	if s.cfg.MergeOK == nil || s.cfg.MergeOK() {
		if _, err := s.Mergeback(p, 64); err != nil {
			return 0, err
		}
	}
	if s.valGarbage <= 0 {
		// Nothing dead: a round would only churn live data from head to
		// tail (and burn key-log space rewriting segments).
		return 0, nil
	}

	var st OpStats
	chunk, err := s.fetchChunk(p, &st, s.valLog, &s.vpf, s.cfg.CompactChunk)
	if err != nil || chunk == nil {
		return 0, err
	}
	head := s.valLog.Head()

	// Parse complete entries out of the chunk, then group them by segment,
	// preserving first-appearance order for determinism.
	r := &s.refs
	defer r.reset()
	pos := int64(0)
	for pos < int64(len(chunk)) {
		key, _, size, perr := ParseValueEntry(chunk[pos:])
		if perr != nil {
			break // straddling or not-yet-durable record: stop the round here
		}
		r.vals = append(r.vals, valEntryRef{
			off:  head + pos,
			size: int64(size),
			key:  key,
			data: chunk[pos : pos+int64(size)],
			seg:  SegmentOf(HashKey(key), s.cfg.NumSegments),
			next: -1,
		})
		pos += int64(size)
	}
	if len(r.vals) == 0 {
		return 0, nil
	}
	for i := range r.vals {
		if last, ok := r.last[r.vals[i].seg]; ok {
			r.vals[last].next = i
		} else {
			r.groups = append(r.groups, i)
		}
		r.last[r.vals[i].seg] = i
	}

	s.runSubcompactions(p, len(r.groups), func(w runtime.Task, gi int) {
		s.compactValGroup(w, r.groups[gi])
	})

	// Advance the head past the contiguous prefix of finished entries.
	newHead := head
	for _, e := range r.vals {
		if !e.done {
			break
		}
		newHead = e.off + e.size
	}
	return s.finishRound(p, s.valLog, &s.vpf, &s.valGarbage, head, newHead), nil
}

// compactValGroup processes the chunk entries of one segment, linked from
// s.refs.vals[first]. The array is checked once; relocations then patch it
// in place, staling its CRCs until appendSegment reseals it.
func (s *Store) compactValGroup(p runtime.Task, first int) {
	vals := s.refs.vals
	seg := vals[first].seg
	var st OpStats
	s.segs.Lock(p, seg)
	defer s.segs.Unlock(seg)

	img, found, err := s.readImage(p, &st, seg)
	defer s.putBuf(img)
	bs := s.cfg.BlockSize
	if err != nil || checkImage(img, bs) != nil {
		return
	}
	if !found {
		for i := first; i >= 0; i = vals[i].next {
			vals[i].done = true // segment gone: every entry is dead
		}
		return
	}
	relocated := false
	for i := first; i >= 0; i = vals[i].next {
		e := &vals[i]
		s.cpu(p, &st, s.cfg.Costs.CompactItem)
		b, at, it, scanned := findItem(img, bs, e.key)
		s.cpu(p, &st, scanned*s.cfg.Costs.ItemScan)
		if it.Deleted() || it.SSDID != s.cfg.DevID || it.ValOff != e.off {
			e.done = true // dead: overwritten, deleted or swapped out
			continue
		}
		newOff, ev, aerr := s.valLog.Append(e.data)
		if aerr != nil {
			break // out of space: stop; unfinished entries hold the head
		}
		st.Writes++
		if s.ssdWait(p, &st, ev) != nil {
			break
		}
		it.ValOff = newOff
		setItemAt(b, at, it)
		s.valGarbage += e.size // the old copy is now dead
		s.stats.RelocatedItems++
		e.done, e.moved = true, true
		relocated = true
	}
	if !relocated {
		return
	}
	if err := s.appendSegment(p, &st, seg, img, nil); err != nil {
		// Segment write failed: the relocated copies are orphaned
		// (harmless garbage) and the old offsets stay authoritative, so
		// the head must not pass the relocated entries.
		for i := first; i >= 0; i = vals[i].next {
			if e := &vals[i]; e.moved {
				e.done = false
				s.valGarbage -= e.size
			}
		}
	}
}

// CompactKeyLog runs one key-log compaction round: dead segment arrays are
// skipped, live ones are pruned of deletion markers and re-appended.
// Segments locked by in-flight PUT/DEL are skipped for this round (§3.3.1).
func (s *Store) CompactKeyLog(p runtime.Task) (int64, error) {
	if s.compacting {
		return 0, nil
	}
	s.compacting = true
	defer func() { s.compacting = false }()
	s.stats.KeyCompactions++
	if s.keyGarbage <= 0 {
		return 0, nil
	}

	var st OpStats
	bs := int64(s.cfg.BlockSize)
	want := s.cfg.CompactChunk / bs * bs
	chunk, err := s.fetchChunk(p, &st, s.keyLog, &s.kpf, want)
	if err != nil || chunk == nil {
		return 0, err
	}
	head := s.keyLog.Head()

	r := &s.refs
	defer r.reset()
	pos := int64(0)
	for pos+bs <= int64(len(chunk)) {
		if checkBlock(chunk[pos:pos+bs]) != nil {
			break
		}
		h := headerOf(chunk[pos : pos+bs])
		clen := int64(h.chainLen)
		if clen == 0 || pos+clen*bs > int64(len(chunk)) {
			break
		}
		r.arrays = append(r.arrays, keyArrayRef{off: head + pos, seg: h.segID, data: chunk[pos : pos+clen*bs]})
		pos += clen * bs
	}
	if len(r.arrays) == 0 {
		return 0, nil
	}

	s.runSubcompactions(p, len(r.arrays), func(w runtime.Task, ai int) {
		s.compactKeyArray(w, &r.arrays[ai])
	})

	newHead := head
	for _, a := range r.arrays {
		if !a.done {
			break
		}
		newHead = a.off + int64(len(a.data))
	}
	return s.finishRound(p, s.keyLog, &s.kpf, &s.keyGarbage, head, newHead), nil
}

// compactKeyArray decides one array's fate: dead, skipped (locked), or
// pruned and relocated.
func (s *Store) compactKeyArray(p runtime.Task, a *keyArrayRef) {
	var st OpStats
	off, _, ok := s.segs.Lookup(a.seg)
	_, remote := s.segs.Location(a.seg)
	if !ok || off != a.off || remote {
		a.done = true // stale array (or superseded by a swapped copy)
		return
	}
	if !s.segs.TryLock(a.seg) {
		return // busy with PUT/DEL or another compaction: skip this round
	}
	defer s.segs.Unlock(a.seg)

	// Prune deletion markers and repack the survivors densely, in order,
	// into a zeroed image: an item that does not fit the last block opens
	// the next. The repack never needs more blocks than the array had.
	bs := s.cfg.BlockSize
	if checkImage(a.data, bs) != nil {
		return
	}
	img := s.getBuf(len(a.data))
	defer s.putBuf(img)
	clear(img)
	total, chain := 0, 0
	for i := 0; i < len(a.data); i += bs {
		src := a.data[i : i+bs]
		eachItem(src, func(at int) bool {
			total++
			if it := itemAt(src, at); !it.Deleted() {
				key := keyAt(src, at)
				if chain == 0 || !addItem(img[(chain-1)*bs:chain*bs], key, it) {
					chain++
					addItem(img[(chain-1)*bs:chain*bs], key, it)
				}
			}
			return true
		})
	}
	s.cpu(p, &st, int64(total)*s.cfg.Costs.CompactItem)
	if chain == 0 {
		s.segs.Clear(a.seg)
		a.done = true
		return
	}
	img = img[:chain*bs]
	if err := s.appendSegment(p, &st, a.seg, img, nil); err != nil {
		return
	}
	a.done = true
}

// runSubcompactions fans n work units out over up to SubCompactions
// parallel procs (round-robin assignment) and waits for all of them.
func (s *Store) runSubcompactions(p runtime.Task, n int, work func(w runtime.Task, i int)) {
	workers := s.cfg.SubCompactions
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(p, i)
		}
		return
	}
	done := make([]runtime.Event, workers)
	for w := 0; w < workers; w++ {
		w := w
		ev := s.env.MakeEvent()
		done[w] = ev
		s.env.Spawn("subcompact", func(wp runtime.Task) {
			for i := w; i < n; i += workers {
				work(wp, i)
			}
			ev.Fire(nil)
		})
	}
	for _, ev := range done {
		p.Wait(ev)
	}
}

// PendingSwapSegments returns the segments with swapped-out values, sorted.
func (s *Store) PendingSwapSegments() []uint32 {
	segs := make([]uint32, 0, len(s.pendingSwaps))
	for seg := range s.pendingSwaps {
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs
}
