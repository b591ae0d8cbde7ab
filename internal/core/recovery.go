package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"leed/internal/flashsim"
	"leed/internal/runtime"
)

// Crash recovery (§3.2.3). The store persists a superblock (log head/tail
// pointers) whenever compaction moves a head. On restart, Recover reads the
// superblock, then scans the key log forward from the persisted head,
// rebuilding the SegTbl from the segment arrays it finds. Scanning
// continues past the persisted tail as long as blocks still parse as valid
// buckets with strictly increasing sequence numbers — recovering appends
// that postdate the last superblock write. A PUT is durable once its
// segment array is on flash, because the bucket's ValTailHint field also
// recovers the value-log tail.

const superMagic = 0x1EEDB00C

// recoveryHoleProbe is how many consecutive garbage blocks the key-log scan
// will step over beyond the superblock-durable tail before concluding it has
// reached the end of the log. It bounds the size of recoverable holes left
// by failed group commits that a racing append kept the tail advanced past.
const recoveryHoleProbe = 128

type superblock struct {
	keyHead, keyTail   int64
	valHead, valTail   int64
	swapHead, swapTail int64
	seq                uint64
}

func (sb *superblock) marshal(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
	binary.LittleEndian.PutUint32(dst[0:], superMagic)
	binary.LittleEndian.PutUint64(dst[8:], uint64(sb.keyHead))
	binary.LittleEndian.PutUint64(dst[16:], uint64(sb.keyTail))
	binary.LittleEndian.PutUint64(dst[24:], uint64(sb.valHead))
	binary.LittleEndian.PutUint64(dst[32:], uint64(sb.valTail))
	binary.LittleEndian.PutUint64(dst[40:], uint64(sb.swapHead))
	binary.LittleEndian.PutUint64(dst[48:], uint64(sb.swapTail))
	binary.LittleEndian.PutUint64(dst[56:], sb.seq)
	binary.LittleEndian.PutUint32(dst[64:], crc32.Checksum(dst[:64], castagnoli))
}

func parseSuperblock(src []byte) (*superblock, bool) {
	if len(src) < 68 || binary.LittleEndian.Uint32(src[0:]) != superMagic {
		return nil, false
	}
	if crc32.Checksum(src[:64], castagnoli) != binary.LittleEndian.Uint32(src[64:]) {
		return nil, false
	}
	return &superblock{
		keyHead:  int64(binary.LittleEndian.Uint64(src[8:])),
		keyTail:  int64(binary.LittleEndian.Uint64(src[16:])),
		valHead:  int64(binary.LittleEndian.Uint64(src[24:])),
		valTail:  int64(binary.LittleEndian.Uint64(src[32:])),
		swapHead: int64(binary.LittleEndian.Uint64(src[40:])),
		swapTail: int64(binary.LittleEndian.Uint64(src[48:])),
		seq:      binary.LittleEndian.Uint64(src[56:]),
	}, true
}

// writeSuperblock persists the current log pointers. Called by compaction
// after a head moves, and by Flush.
func (s *Store) writeSuperblock(p runtime.Task) error {
	sb := superblock{
		keyHead: s.keyLog.Head(), keyTail: s.keyLog.Tail(),
		valHead: s.valLog.Head(), valTail: s.valLog.Tail(),
		seq: s.seq,
	}
	if s.swapLog != nil {
		sb.swapHead, sb.swapTail = s.swapLog.Head(), s.swapLog.Tail()
	}
	buf := make([]byte, s.cfg.BlockSize)
	sb.marshal(buf)
	done := s.env.MakeEvent()
	s.cfg.Device.Submit(&flashsim.Op{Kind: flashsim.OpWrite, Offset: s.cfg.RegionOff, Data: buf, Done: done})
	if v := p.Wait(done); v != nil {
		return v.(error)
	}
	return nil
}

// Flush persists the superblock; callers use it to bound recovery scans. It
// first issues an OpFlush barrier: on a submission-queue device
// (flashsim.AsyncFileDevice) that drains every queued write and syncs the
// backing file, so the superblock never describes state the device hasn't
// committed. On purely modeled devices the barrier is an ordering no-op.
func (s *Store) Flush(p runtime.Task) error {
	done := s.env.MakeEvent()
	s.cfg.Device.Submit(&flashsim.Op{Kind: flashsim.OpFlush, Done: done})
	if v := p.Wait(done); v != nil {
		return v.(error)
	}
	return s.writeSuperblock(p)
}

// recoveredArray is the newest array Recover has found for a segment, with
// the live objects its items account for.
type recoveredArray struct {
	off        int64
	chain      int
	seq        uint64
	objects    int64
	valBytes   int64 // live value bytes
	entryBytes int64 // live value-entry bytes in the home value log
	swapped    bool  // some live value sits in a peer's swap region
}

// addLive adds the live items of one checked block of the array to arr.
func (s *Store) addLive(arr *recoveredArray, blk []byte) {
	eachItem(blk, func(at int) bool {
		it := itemAt(blk, at)
		if it.Deleted() {
			return true
		}
		arr.objects++
		arr.valBytes += int64(it.ValLen)
		if it.SSDID == s.cfg.DevID {
			arr.entryBytes += int64(ValueEntrySize(int(blk[at]), int(it.ValLen)))
		} else {
			arr.swapped = true
		}
		return true
	})
}

// Recover rebuilds a store's DRAM state from flash. Call it on a freshly
// constructed Store (same Config) whose region holds a previous instance's
// data. It returns the number of segments recovered.
func (s *Store) Recover(p runtime.Task) (int, error) {
	bs := int64(s.cfg.BlockSize)
	sbBuf := make([]byte, s.cfg.BlockSize)
	done := s.env.MakeEvent()
	s.cfg.Device.Submit(&flashsim.Op{Kind: flashsim.OpRead, Offset: s.cfg.RegionOff, Data: sbBuf, Done: done})
	if v := p.Wait(done); v != nil {
		return 0, v.(error)
	}
	sb, ok := parseSuperblock(sbBuf)
	if !ok {
		return 0, nil // fresh region: nothing to recover
	}

	// Open the key-log window wide so the scan may pass the persisted tail.
	upper := sb.keyHead + s.keyLog.Size()
	s.keyLog.Restore(sb.keyHead, upper)

	latest := make(map[uint32]recoveredArray)
	maxSeq := sb.seq
	maxValTail := sb.valTail
	pos := sb.keyHead
	end := pos // recovered tail: past accepted arrays and durable holes, never past probe skips
	liveKeyBytes := int64(0)

	// skipHole steps over one garbage block. Inside the superblock-durable
	// region a hole is a failed append the tail already passed; the budget is
	// unlimited because the durable tail bounds the walk. Beyond the durable
	// tail a hole can still precede live data — a group commit that failed
	// while a racing append landed behind it — so the scan probes ahead a
	// bounded number of blocks instead of declaring end-of-log; on genuine
	// end-of-log it gives up after recoveryHoleProbe blocks of garbage.
	probeBudget := recoveryHoleProbe
	skipHole := func() bool {
		if pos+bs <= sb.keyTail {
			pos += bs
			end = pos
			return true
		}
		if probeBudget > 0 {
			probeBudget--
			pos += bs
			return true
		}
		return false
	}
	blk := make([]byte, bs)
scan:
	for pos+bs <= upper {
		if err := s.keyLog.Read(p, pos, blk); err != nil {
			return 0, err
		}
		var h0 blockHdr
		err := checkBlock(blk)
		if err == nil {
			h0 = headerOf(blk)
		}
		if err != nil || h0.chainPos != 0 || h0.chainLen == 0 ||
			(pos >= sb.keyTail && h0.seq <= maxSeq) {
			// Unparseable garbage, or stale pre-wrap data beyond the durable
			// tail: a hole or the end of the log — probe to find out.
			if skipHole() {
				continue
			}
			break
		}
		arr := recoveredArray{off: pos, chain: int(h0.chainLen), seq: h0.seq}
		s.addLive(&arr, blk)
		for i := 1; i < arr.chain; i++ {
			if err := s.keyLog.Read(p, pos+int64(i)*bs, blk); err != nil {
				return 0, err
			}
			if checkBlock(blk) != nil || headerOf(blk).seq != h0.seq || int(headerOf(blk).chainPos) != i {
				// Torn chain: the head block landed but the rest didn't.
				if skipHole() {
					continue scan
				}
				break scan
			}
			s.addLive(&arr, blk)
		}
		if old, had := latest[h0.segID]; had {
			if h0.seq < old.seq {
				// A hole whose previous-lap content still parses: it predates
				// the array already recovered for this segment. Step past it.
				pos += int64(arr.chain) * bs
				continue
			}
			liveKeyBytes -= int64(old.chain) * bs
		}
		latest[h0.segID] = arr
		liveKeyBytes += int64(arr.chain) * bs
		if h0.seq > maxSeq {
			maxSeq = h0.seq
		}
		if h0.valTail > maxValTail {
			maxValTail = h0.valTail
		}
		pos += int64(arr.chain) * bs
		end = pos
		probeBudget = recoveryHoleProbe
	}
	if end < sb.keyTail {
		end = sb.keyTail // reservations persisted in the superblock stay reserved
	}
	s.keyLog.Restore(sb.keyHead, end)
	s.valLog.Restore(sb.valHead, maxValTail)
	s.seq = maxSeq

	// Rebuild the SegTbl and derived accounting.
	var objects, liveValBytes, liveValEntryBytes int64
	for seg, arr := range latest {
		s.segs.Set(seg, arr.off, arr.chain)
		objects += arr.objects
		liveValBytes += arr.valBytes
		liveValEntryBytes += arr.entryBytes
		if arr.swapped {
			s.pendingSwaps[seg] = struct{}{}
		}
	}
	s.stats.Objects = objects
	s.stats.LiveValBytes = liveValBytes
	s.valGarbage = s.valLog.Used() - liveValEntryBytes
	if s.valGarbage < 0 {
		s.valGarbage = 0
	}
	s.keyGarbage = s.keyLog.Used() - liveKeyBytes
	if s.keyGarbage < 0 {
		s.keyGarbage = 0
	}

	// Swap region: restore the persisted window and re-index its entries,
	// which may be value entries or whole segment arrays (§3.6).
	if s.swapLog != nil {
		s.swapLog.Restore(sb.swapHead, sb.swapTail)
		off := sb.swapHead
		for off < sb.swapTail {
			hdr := make([]byte, bs)
			n := sb.swapTail - off
			if n > bs {
				n = bs
			}
			if err := s.swapLog.Read(p, off, hdr[:n]); err != nil {
				return 0, err
			}
			var size int64
			switch {
			case binary.LittleEndian.Uint16(hdr[0:]) == bucketMagic:
				if checkBlock(hdr[:n]) != nil {
					return 0, fmt.Errorf("%w: swap log segment at %d", ErrCorrupt, off)
				}
				size = int64(headerOf(hdr).chainLen) * bs
			case n >= valueHdrSize && binary.LittleEndian.Uint16(hdr[0:]) == valueMagic:
				size = int64(ValueEntrySize(int(hdr[2]), int(binary.LittleEndian.Uint32(hdr[4:]))))
			default:
				return 0, fmt.Errorf("%w: swap log entry at %d", ErrCorrupt, off)
			}
			s.swapMeta[off] = size
			off += size
		}
	}
	return len(latest), nil
}
