package core

import (
	"fmt"

	"leed/internal/flashsim"
	"leed/internal/runtime"
)

// Config describes one store's geometry and wiring. A store owns one
// partition (virtual node) of one SSD, laid out as:
//
//	[superblock | key log | value log | swap log]
//
// The swap log is the region *other* co-located stores may borrow to absorb
// overloaded writes (§3.6).
type Config struct {
	Env    runtime.Env
	Device flashsim.Device
	DevID  uint8 // identifier of this store's SSD within the JBOF
	Exec   Exec
	Costs  CostModel

	BlockSize   int // bucket block size; default 512
	NumSegments int
	MaxChain    int // M: max chained buckets per segment; default 4

	RegionOff    int64
	KeyLogBytes  int64
	ValLogBytes  int64
	SwapLogBytes int64

	SubCompactions int     // S: parallel sub-compactions; default 4
	Prefetch       bool    // prefetch the next compaction's input (§3.3.1)
	CompactChunk   int64   // bytes compacted per round; default 256KiB
	CompactAt      float64 // used/size ratio that triggers compaction; default 0.75

	// MergeOK gates swap merge-back during value-log compaction: §3.6
	// merges swapped data back "when the home SSD has available
	// bandwidth", so the engine wires this to an idleness check. Nil
	// means always merge (single-store usage).
	MergeOK func() bool
}

func (c *Config) setDefaults() {
	if c.BlockSize == 0 {
		c.BlockSize = 512
	}
	if c.MaxChain == 0 {
		c.MaxChain = 4
	}
	if c.SubCompactions == 0 {
		c.SubCompactions = 4
	}
	if c.CompactChunk == 0 {
		c.CompactChunk = 256 << 10
	}
	if c.CompactAt == 0 {
		c.CompactAt = 0.75
	}
	if c.Exec == nil {
		c.Exec = NopExec{}
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
}

// Stats are cumulative store counters.
type Stats struct {
	Gets, Puts, Dels int64
	NotFounds        int64
	Objects          int64 // live, non-tombstone objects
	LiveValBytes     int64
	KeyCompactions   int64
	ValCompactions   int64
	RelocatedItems   int64
	ReclaimedBytes   int64
	SwappedPuts      int64
	MergedSwaps      int64
	PrefetchHits     int64
	SegmentFull      int64
}

// Store is one LEED data store (§3.2): circular key and value logs on an
// SSD partition plus the in-DRAM segment table.
type Store struct {
	cfg     Config
	env     runtime.Env
	keyLog  *CircLog
	valLog  *CircLog
	swapLog *CircLog
	segs    *SegTbl
	seq     uint64

	peers map[uint8]*Store // co-located stores by DevID, for swap reads

	valGarbage int64 // dead bytes in the value log
	keyGarbage int64 // dead bytes in the key log

	pendingSwaps map[uint32]struct{} // segments holding swapped-out values
	swapMeta     map[int64]int64     // swap-log entry offset -> size (as helper)
	swapMerged   map[int64]bool      // swap-log entries merged back by homes

	kpf prefetchBuf // key-log compaction prefetch
	vpf prefetchBuf // value-log compaction prefetch

	compacting bool        // guards against overlapping whole-log compactions
	refs       compactRefs // the running round's chunk references

	// bufFree recycles GetInto's segment and value-entry buffers. It is
	// task-context state: the execution contract serializes every store
	// caller, and a buffer is popped before use, so a task parking mid-GET
	// simply holds its buffers outside the list until putBuf returns them.
	bufFree [][]byte

	stats Stats
}

type prefetchBuf struct {
	valid bool
	off   int64
	buf   []byte
	ev    runtime.Event
}

// NewStore creates a store over its device region. The region is assumed
// pristine; use Recover to rebuild state from flash instead.
func NewStore(cfg Config) *Store {
	cfg.setDefaults()
	if cfg.NumSegments <= 0 {
		panic("core: Config.NumSegments must be positive")
	}
	bs := int64(cfg.BlockSize)
	off := cfg.RegionOff + bs // block 0 is the superblock
	s := &Store{
		cfg:          cfg,
		env:          cfg.Env,
		segs:         NewSegTbl(cfg.NumSegments),
		peers:        make(map[uint8]*Store),
		pendingSwaps: make(map[uint32]struct{}),
		refs:         compactRefs{last: make(map[uint32]int)},
		swapMeta:     make(map[int64]int64),
		swapMerged:   make(map[int64]bool),
	}
	s.keyLog = NewCircLog(cfg.Env, cfg.Device, off, cfg.KeyLogBytes)
	off += cfg.KeyLogBytes
	s.valLog = NewCircLog(cfg.Env, cfg.Device, off, cfg.ValLogBytes)
	off += cfg.ValLogBytes
	if cfg.SwapLogBytes > 0 {
		s.swapLog = NewCircLog(cfg.Env, cfg.Device, off, cfg.SwapLogBytes)
	}
	s.peers[cfg.DevID] = s
	return s
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// Stats returns cumulative counters.
func (s *Store) Stats() Stats { return s.stats }

// DRAMBytes returns the modeled DRAM footprint of the store's index.
func (s *Store) DRAMBytes() int64 { return s.segs.DRAMBytes() }

// Objects returns the live object count.
func (s *Store) Objects() int64 { return s.stats.Objects }

// KeyLog and ValLog expose the logs for inspection and tests.
func (s *Store) KeyLog() *CircLog { return s.keyLog }

// ValLog returns the value log.
func (s *Store) ValLog() *CircLog { return s.valLog }

// SwapLog returns the swap region, or nil if not configured.
func (s *Store) SwapLog() *CircLog { return s.swapLog }

// AddPeer registers a co-located store so swapped values can be read and
// merged back. Both directions must be registered by the engine.
func (s *Store) AddPeer(p *Store) { s.peers[p.cfg.DevID] = p }

// cpu charges cycles to the executor and attributes elapsed time to st.CPU.
// Under NopExec (pure-device mode) nothing is charged and the interval would
// time nothing, so the call and its two clock reads are skipped.
func (s *Store) cpu(p runtime.Task, st *OpStats, cycles int64) {
	if _, nop := s.cfg.Exec.(NopExec); nop {
		return
	}
	t0 := p.Now()
	s.cfg.Exec.Compute(p, cycles)
	st.CPU += p.Now() - t0
}

// ssdWait waits for device events and attributes elapsed time to st.SSD.
func (s *Store) ssdWait(p runtime.Task, st *OpStats, evs ...runtime.Event) error {
	t0 := p.Now()
	var err error
	for _, ev := range evs {
		if v := p.Wait(ev); v != nil && err == nil {
			err = v.(error)
		}
	}
	st.SSD += p.Now() - t0
	return err
}

// segBytes returns the byte size of a chainLen-bucket segment array.
func (s *Store) segBytes(chainLen int) int64 {
	return int64(chainLen) * int64(s.cfg.BlockSize)
}

// sealSegment seals a segment image for its append: every block header gets
// the chain metadata, the value log's current head and tail as recovery
// hints and one fresh sequence number, each block is zeroed past its items,
// and the CRCs are recomputed.
func (s *Store) sealSegment(segID uint32, img []byte) {
	bs := s.cfg.BlockSize
	s.seq++
	chain := len(img) / bs
	head, tail := s.valLog.Head(), s.valLog.Tail()
	for i := 0; i < chain; i++ {
		blk := img[i*bs : (i+1)*bs]
		end, _ := eachItem(blk, nil)
		clear(blk[end:])
		sealBucketBlock(blk, segID, uint8(chain), uint8(i), head, tail, s.seq)
	}
}

// readImage reads seg's current array, from the home key log or a peer's
// swap region, into a rented buffer with room for one more block, for
// editing in place. An empty segment reads as a zero-block image; found
// reports whether an array existed. The caller returns img with putBuf once
// any append of it has completed.
func (s *Store) readImage(p runtime.Task, st *OpStats, seg uint32) (img []byte, found bool, err error) {
	off, chainLen, ok := s.segs.Lookup(seg)
	if !ok {
		return s.getBuf(s.cfg.BlockSize)[:0], false, nil
	}
	img = s.getBuf(int(s.segBytes(chainLen + 1)))[:s.segBytes(chainLen)]
	log := s.keyLog
	if devID, remote := s.segs.Location(seg); remote {
		if log, err = s.swapLogOf(devID); err != nil {
			return img, true, err
		}
	}
	return img, true, s.readLog(p, st, log, off, img)
}

// readValueInto reads the value entry for it into entry, from the home
// value log or the owning peer's swap region.
func (s *Store) readValueInto(p runtime.Task, st *OpStats, it *RawItem, entry []byte) error {
	log := s.valLog
	if it.SSDID != s.cfg.DevID {
		var err error
		if log, err = s.swapLogOf(it.SSDID); err != nil {
			return err
		}
	}
	return s.readLog(p, st, log, it.ValOff, entry)
}

// swapLogOf returns the swap region of the co-located store on devID.
func (s *Store) swapLogOf(devID uint8) (*CircLog, error) {
	peer, found := s.peers[devID]
	if !found || peer.swapLog == nil {
		return nil, fmt.Errorf("%w: no swap region on peer %d", ErrCorrupt, devID)
	}
	return peer.swapLog, nil
}

// readLog reads buf at logical offset off of log, preferring the device's
// synchronous read path and falling back to the event-based one.
func (s *Store) readLog(p runtime.Task, st *OpStats, log *CircLog, off int64, buf []byte) error {
	if done, err := log.ReadNow(off, buf); done {
		st.Reads++
		return err
	}
	ev, err := log.ReadAsync(off, buf)
	if err != nil {
		return err
	}
	st.Reads++
	return s.ssdWait(p, st, ev)
}

// locate checks a segment image and finds key in it, charging the items
// compared as ItemScan cycles; see findItem.
func (s *Store) locate(p runtime.Task, st *OpStats, img, key []byte) (b []byte, at int, it RawItem, err error) {
	bs := s.cfg.BlockSize
	if err := checkImage(img, bs); err != nil {
		return nil, -1, it, err
	}
	b, at, it, scanned := findItem(img, bs, key)
	s.cpu(p, st, scanned*s.cfg.Costs.ItemScan)
	return b, at, it, nil
}

// Get looks up key and returns a copy of its value.
func (s *Store) Get(p runtime.Task, key []byte) ([]byte, OpStats, error) {
	return s.GetInto(p, key, nil)
}

// getBuf rents an n-byte buffer from the store's free list (single-owner:
// the returned buffer is out of the list until putBuf).
func (s *Store) getBuf(n int) []byte {
	for i := len(s.bufFree) - 1; i >= 0; i-- {
		if cap(s.bufFree[i]) >= n {
			b := s.bufFree[i]
			last := len(s.bufFree) - 1
			s.bufFree[i] = s.bufFree[last]
			s.bufFree[last] = nil
			s.bufFree = s.bufFree[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBuf returns a rented buffer. Oversized buffers and overflow beyond a
// small list are dropped to the GC — the list only needs to cover the
// handful of buffers live at the hot path's steady-state concurrency.
func (s *Store) putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > 64<<10 || len(s.bufFree) >= 16 {
		return
	}
	s.bufFree = append(s.bufFree, b[:0])
}

// GetInto looks up key and appends its value to dst, returning the
// extended slice (§3.3: SegTbl in DRAM, one key-log access, one value-log
// access). The segment array and the value entry are read into buffers
// rented from the store's free list; every block of the array is checked,
// as PUT and DEL check them, before the key is looked up. The returned
// slice never aliases store-owned memory.
func (s *Store) GetInto(p runtime.Task, key, dst []byte) ([]byte, OpStats, error) {
	var st OpStats
	s.stats.Gets++
	seg := SegmentOf(HashKey(key), s.cfg.NumSegments)
	s.cpu(p, &st, s.cfg.Costs.HashLookup)
	s.segs.RLock(p, seg)
	defer s.segs.RUnlock(seg)

	img, found, err := s.readImage(p, &st, seg)
	defer s.putBuf(img)
	if err != nil {
		return dst, st, err
	}
	if !found {
		s.stats.NotFounds++
		return dst, st, ErrNotFound
	}
	_, _, it, err := s.locate(p, &st, img, key)
	if err != nil {
		return dst, st, err
	}
	if it.Deleted() {
		s.stats.NotFounds++
		return dst, st, ErrNotFound
	}

	entry := s.getBuf(ValueEntrySize(len(key), int(it.ValLen)))
	defer s.putBuf(entry)
	if err := s.readValueInto(p, &st, &it, entry); err != nil {
		return dst, st, err
	}
	s.cpu(p, &st, s.cfg.Costs.ValueParse)
	ekey, eval, _, err := ParseValueEntry(entry)
	if err != nil {
		return dst, st, err
	}
	if string(ekey) != string(key) {
		return dst, st, fmt.Errorf("%w: value entry key mismatch", ErrCorrupt)
	}
	return append(dst, eval...), st, nil
}

// Put inserts or overwrites key with val (§3.3: segment read overlapped
// with value append, then bucket update and segment append — 3 NVMe
// accesses with the first two in parallel).
func (s *Store) Put(p runtime.Task, key, val []byte) (OpStats, error) {
	return s.put(p, key, val, nil)
}

// PutSwapped performs a Put whose value lands in helper's swap region
// instead of the home value log (§3.6 data swapping). helper must be a
// registered peer on the same JBOF.
func (s *Store) PutSwapped(p runtime.Task, key, val []byte, helper *Store) (OpStats, error) {
	return s.put(p, key, val, helper)
}

func (s *Store) put(p runtime.Task, key, val []byte, helper *Store) (OpStats, error) {
	var st OpStats
	if len(key) > MaxKeyLen {
		return st, ErrKeyTooLarge
	}
	if len(val) == 0 {
		return st, fmt.Errorf("%w: empty values are not supported (zero marks deletion)", ErrValueTooLarge)
	}
	s.stats.Puts++
	for attempt := 0; ; attempt++ {
		err := s.tryPut(p, &st, key, val, helper)
		if err != ErrLogFull && err != nil || err == nil {
			return st, err
		}
		if attempt >= 2 {
			return st, ErrLogFull
		}
		// Reclaim space synchronously, then retry the command.
		if _, cerr := s.CompactValueLog(p); cerr != nil && cerr != ErrLogFull {
			return st, cerr
		}
		if _, cerr := s.CompactKeyLog(p); cerr != nil && cerr != ErrLogFull {
			return st, cerr
		}
	}
}

func (s *Store) tryPut(p runtime.Task, st *OpStats, key, val []byte, helper *Store) error {
	h := HashKey(key)
	seg := SegmentOf(h, s.cfg.NumSegments)
	s.cpu(p, st, s.cfg.Costs.HashLookup)
	s.segs.Lock(p, seg)
	defer s.segs.Unlock(seg)

	// Value append, issued first so it overlaps the segment read. The entry
	// belongs to the log until the append completes; every path below that
	// follows a successful append waits for it before the deferred putBuf.
	entry := s.getBuf(ValueEntrySize(len(key), len(val)))
	defer s.putBuf(entry)
	if err := MarshalValueEntry(entry, key, val); err != nil {
		return err
	}
	s.cpu(p, st, s.cfg.Costs.AppendBook)
	var (
		valOff int64
		valEv  runtime.Event
		err    error
		ssdID  = s.cfg.DevID
	)
	if helper != nil && helper != s {
		valOff, valEv, err = helper.AppendSwap(entry)
		ssdID = helper.cfg.DevID
	} else {
		valOff, valEv, err = s.valLog.Append(entry)
	}
	if err != nil {
		return err
	}
	st.Writes++

	// Segment read overlapped with the value write, from wherever the array
	// currently lives. On a SyncReader device the read completes inline and
	// the value write's flush runs when this task parks on valEv.
	img, _, err := s.readImage(p, st, seg)
	defer s.putBuf(img)
	if werr := s.ssdWait(p, st, valEv); err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	b, at, old, err := s.locate(p, st, img, key)
	if err != nil {
		return err
	}
	s.cpu(p, st, s.cfg.Costs.BucketEdit)

	// Update or insert the item, patching the image in place.
	bs := s.cfg.BlockSize
	newItem := RawItem{ValLen: uint32(len(val)), ValOff: valOff, SSDID: ssdID}
	if b != nil {
		if old.Deleted() {
			s.stats.Objects++
		} else {
			s.accountDeadValue(old, len(key))
		}
		s.stats.LiveValBytes += int64(len(val))
		setItemAt(b, at, newItem)
	} else {
		placed := false
		for i := 0; i*bs < len(img) && !placed; i++ {
			placed = addItem(img[i*bs:(i+1)*bs], key, newItem)
		}
		if !placed {
			chain := len(img) / bs
			if chain >= s.cfg.MaxChain {
				s.stats.SegmentFull++
				s.valGarbage += int64(len(entry)) // orphaned value append
				return ErrSegmentFull
			}
			img = img[:(chain+1)*bs]
			clear(img[chain*bs:])
			if !addItem(img[chain*bs:], key, newItem) {
				return fmt.Errorf("%w: a %d-byte key does not fit a %d-byte block", ErrCorrupt, len(key), bs)
			}
		}
		s.stats.Objects++
		s.stats.LiveValBytes += int64(len(val))
	}
	if ssdID != s.cfg.DevID {
		s.pendingSwaps[seg] = struct{}{}
		s.stats.SwappedPuts++
	}
	return s.appendSegment(p, st, seg, img, helper)
}

// releaseOldSegment accounts the segment's current array, if any, as dead:
// key-log garbage when it lived at home, a reclaimable swap entry when it
// lived on a peer. The caller holds the segment's lock.
func (s *Store) releaseOldSegment(seg uint32) {
	off, oldChain, ok := s.segs.Lookup(seg)
	if !ok {
		return
	}
	if devID, remote := s.segs.Location(seg); remote {
		s.releaseSwapRef(devID, off)
	} else {
		s.keyGarbage += s.segBytes(oldChain)
	}
}

// appendSegment seals a segment image, appends it and updates the SegTbl.
// Every writer of an array ends here, so each array is sealed right before
// its append. The previous array, if any, becomes garbage wherever it
// lived. A non-nil helper redirects the array into the helper's swap
// region instead of the home key log (§3.6's full write swapping). img is
// the log's until the append completes, which appendSegment waits for on
// every path that issued it.
func (s *Store) appendSegment(p runtime.Task, st *OpStats, seg uint32, img []byte, helper *Store) error {
	s.sealSegment(seg, img)
	chainLen := len(img) / s.cfg.BlockSize
	s.cpu(p, st, s.cfg.Costs.AppendBook)
	if helper != nil && helper != s {
		newOff, ev, aerr := helper.AppendSwap(img)
		if aerr != nil {
			return aerr
		}
		st.Writes++
		if err := s.ssdWait(p, st, ev); err != nil {
			return err
		}
		s.releaseOldSegment(seg)
		s.segs.SetRemote(seg, newOff, chainLen, helper.cfg.DevID)
		s.pendingSwaps[seg] = struct{}{}
		return nil
	}
	newOff, ev, err := s.keyLog.Append(img)
	if err != nil {
		return err
	}
	st.Writes++
	if err := s.ssdWait(p, st, ev); err != nil {
		// The blocks at newOff are torn. Reclaim the reservation so the next
		// append reuses the offset; if another append already raced past, the
		// hole stays in the log — recovery skips it and compaction reclaims it.
		if !s.keyLog.Unappend(newOff, int64(len(img))) {
			s.keyGarbage += int64(len(img))
		}
		return err
	}
	s.releaseOldSegment(seg)
	s.segs.Set(seg, newOff, chainLen)
	return nil
}

func (s *Store) accountDeadValue(old RawItem, keyLen int) {
	s.stats.LiveValBytes -= int64(old.ValLen)
	if old.SSDID == s.cfg.DevID {
		s.valGarbage += int64(ValueEntrySize(keyLen, int(old.ValLen)))
	} else {
		// The dead copy lives in a peer's swap region; let the peer
		// reclaim it.
		s.releaseSwapRef(old.SSDID, old.ValOff)
	}
}

// Del marks key deleted (§3.3: only the key log is touched; the value
// length field becomes zero as the deletion marker). Like a PUT, it edits
// the serialized array in place.
func (s *Store) Del(p runtime.Task, key []byte) (OpStats, error) {
	var st OpStats
	s.stats.Dels++
	h := HashKey(key)
	seg := SegmentOf(h, s.cfg.NumSegments)
	s.cpu(p, &st, s.cfg.Costs.HashLookup)
	s.segs.Lock(p, seg)
	defer s.segs.Unlock(seg)

	img, found, err := s.readImage(p, &st, seg)
	defer s.putBuf(img)
	if err != nil {
		return st, err
	}
	if !found {
		s.stats.NotFounds++
		return st, ErrNotFound
	}
	b, at, old, err := s.locate(p, &st, img, key)
	if err != nil {
		return st, err
	}
	if old.Deleted() {
		s.stats.NotFounds++
		return st, ErrNotFound
	}
	s.accountDeadValue(old, len(key))
	setItemAt(b, at, RawItem{SSDID: s.cfg.DevID})
	s.stats.Objects--
	s.cpu(p, &st, s.cfg.Costs.BucketEdit)
	err = s.appendSegment(p, &st, seg, img, nil)
	return st, err
}

// Range iterates every live object in the store, calling fn with copies of
// each key and value. Iteration stops early if fn returns false. Each
// segment is locked while its objects are read, but fn runs unlocked, so it
// may issue store operations. Range is the substrate for the COPY primitive
// used by node join/leave (§3.8.1).
func (s *Store) Range(p runtime.Task, fn func(key, val []byte) bool) error {
	var st OpStats
	for seg := uint32(0); int(seg) < s.cfg.NumSegments; seg++ {
		s.segs.Lock(p, seg)
		pairs, err := s.liveObjects(p, &st, seg)
		s.segs.Unlock(seg)
		if err != nil {
			return err
		}
		for i := 0; i < len(pairs); i += 2 {
			if !fn(pairs[i], pairs[i+1]) {
				return nil
			}
		}
	}
	return nil
}

// liveObjects reads the live objects of seg, under its lock, as
// alternating key and value copies.
func (s *Store) liveObjects(p runtime.Task, st *OpStats, seg uint32) ([][]byte, error) {
	img, _, err := s.readImage(p, st, seg)
	defer s.putBuf(img)
	bs := s.cfg.BlockSize
	if err == nil {
		err = checkImage(img, bs)
	}
	var pairs [][]byte
	for i := 0; i < len(img) && err == nil; i += bs {
		blk := img[i : i+bs]
		eachItem(blk, func(at int) bool {
			it := itemAt(blk, at)
			if it.Deleted() {
				return true
			}
			entry := make([]byte, ValueEntrySize(int(blk[at]), int(it.ValLen)))
			if err = s.readValueInto(p, st, &it, entry); err != nil {
				return false
			}
			var key, val []byte
			if key, val, _, err = ParseValueEntry(entry); err != nil {
				return false
			}
			pairs = append(pairs, key[:len(key):len(key)], val)
			return true
		})
	}
	return pairs, err
}

// NeedsValueCompaction reports whether the value log crossed the trigger.
func (s *Store) NeedsValueCompaction() bool {
	return float64(s.valLog.Used()) >= s.cfg.CompactAt*float64(s.valLog.Size()) && s.valGarbage > 0
}

// NeedsKeyCompaction reports whether the key log crossed the trigger.
func (s *Store) NeedsKeyCompaction() bool {
	return float64(s.keyLog.Used()) >= s.cfg.CompactAt*float64(s.keyLog.Size()) && s.keyGarbage > 0
}

// ValGarbage returns the tracked dead bytes in the value log.
func (s *Store) ValGarbage() int64 { return s.valGarbage }

// KeyGarbage returns the tracked dead bytes in the key log.
func (s *Store) KeyGarbage() int64 { return s.keyGarbage }
