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
	off  int64 // logical offset in the value log
	size int64
	key  []byte
	data []byte // full entry bytes (aliases the chunk)
	seg  uint32
	done bool
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

	// Parse complete entries out of the chunk.
	var entries []*valEntryRef
	pos := int64(0)
	for pos < int64(len(chunk)) {
		key, _, size, perr := ParseValueEntry(chunk[pos:])
		if perr != nil {
			break // straddling or not-yet-durable record: stop the round here
		}
		e := &valEntryRef{
			off:  head + pos,
			size: int64(size),
			key:  key,
			data: chunk[pos : pos+int64(size)],
			seg:  SegmentOf(HashKey(key), s.cfg.NumSegments),
		}
		entries = append(entries, e)
		pos += int64(size)
	}
	if len(entries) == 0 {
		return 0, nil
	}

	// Group by segment, preserving first-appearance order for determinism.
	groupIdx := make(map[uint32]int)
	var groups [][]*valEntryRef
	for _, e := range entries {
		gi, ok := groupIdx[e.seg]
		if !ok {
			gi = len(groups)
			groupIdx[e.seg] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], e)
	}

	s.runSubcompactions(p, len(groups), func(w runtime.Task, gi int) {
		s.compactValGroup(w, groups[gi])
	})

	// Advance the head past the contiguous prefix of finished entries.
	newHead := head
	for _, e := range entries {
		if !e.done {
			break
		}
		newHead = e.off + e.size
	}
	reclaimed := newHead - head
	if reclaimed > 0 {
		s.valLog.ReleaseTo(newHead)
		s.valGarbage -= reclaimed
		if s.valGarbage < 0 {
			s.valGarbage = 0
		}
		s.stats.ReclaimedBytes += reclaimed
	}
	s.prefetchNext(s.valLog, &s.vpf)
	if reclaimed > 0 {
		s.writeSuperblock(p)
	}
	return reclaimed, nil
}

// compactValGroup processes all chunk entries belonging to one segment.
func (s *Store) compactValGroup(p runtime.Task, group []*valEntryRef) {
	seg := group[0].seg
	var st OpStats
	s.segs.Lock(p, seg)
	defer s.segs.Unlock(seg)

	buckets, found, err := s.loadSegment(p, &st, seg)
	if err != nil {
		return
	}
	if !found {
		for _, e := range group {
			e.done = true // segment gone: every entry is dead
		}
		return
	}
	var relocated []*valEntryRef
	for _, e := range group {
		s.cpu(p, &st, s.cfg.Costs.CompactItem)
		bi, ii := s.findItem(p, &st, buckets, e.key)
		live := bi >= 0 && !buckets[bi].Items[ii].Deleted() &&
			buckets[bi].Items[ii].SSDID == s.cfg.DevID &&
			buckets[bi].Items[ii].ValOff == e.off
		if !live {
			e.done = true
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
		buckets[bi].Items[ii].ValOff = newOff
		s.valGarbage += e.size // the old copy is now dead
		s.stats.RelocatedItems++
		e.done = true
		relocated = append(relocated, e)
	}
	if len(relocated) > 0 {
		if err := s.writeSegment(p, &st, seg, buckets); err != nil {
			// Segment write failed: the relocated copies are orphaned
			// (harmless garbage) and the old offsets stay authoritative, so
			// the head must not pass the relocated entries.
			for _, e := range relocated {
				e.done = false
				s.valGarbage -= e.size
			}
		}
	}
}

// keyArrayRef is one parsed segment array within a key-log chunk.
type keyArrayRef struct {
	off   int64
	seg   uint32
	chain int
	data  []byte
	done  bool
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

	var arrays []*keyArrayRef
	pos := int64(0)
	for pos+bs <= int64(len(chunk)) {
		b0, perr := UnmarshalBucket(chunk[pos : pos+bs])
		if perr != nil {
			break
		}
		clen := int64(b0.ChainLen)
		if clen == 0 || pos+clen*bs > int64(len(chunk)) {
			break
		}
		arrays = append(arrays, &keyArrayRef{
			off:   head + pos,
			seg:   b0.SegID,
			chain: int(clen),
			data:  chunk[pos : pos+clen*bs],
		})
		pos += clen * bs
	}
	if len(arrays) == 0 {
		return 0, nil
	}

	s.runSubcompactions(p, len(arrays), func(w runtime.Task, ai int) {
		s.compactKeyArray(w, arrays[ai])
	})

	newHead := head
	for _, a := range arrays {
		if !a.done {
			break
		}
		newHead = a.off + int64(a.chain)*bs
	}
	reclaimed := newHead - head
	if reclaimed > 0 {
		s.keyLog.ReleaseTo(newHead)
		s.keyGarbage -= reclaimed
		if s.keyGarbage < 0 {
			s.keyGarbage = 0
		}
		s.stats.ReclaimedBytes += reclaimed
	}
	s.prefetchNext(s.keyLog, &s.kpf)
	if reclaimed > 0 {
		s.writeSuperblock(p)
	}
	return reclaimed, nil
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

	buckets, err := s.parseSegment(a.data, a.chain)
	if err != nil {
		return
	}
	// Prune deletion markers and repack the survivors densely.
	var live []Item
	total := 0
	for _, b := range buckets {
		for _, it := range b.Items {
			total++
			if !it.Deleted() {
				live = append(live, it)
			}
		}
	}
	s.cpu(p, &st, int64(total)*s.cfg.Costs.CompactItem)
	if len(live) == 0 {
		s.segs.Clear(a.seg)
		a.done = true
		return
	}
	repacked := []*Bucket{{}}
	for _, it := range live {
		last := repacked[len(repacked)-1]
		if last.SpaceLeft(s.cfg.BlockSize) < it.Size() {
			last = &Bucket{}
			repacked = append(repacked, last)
		}
		last.Items = append(last.Items, it)
	}
	if err := s.writeSegment(p, &st, a.seg, repacked); err != nil {
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
