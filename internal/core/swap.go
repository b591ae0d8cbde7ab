package core

import (
	"fmt"

	"leed/internal/runtime"
)

// Intra-JBOF data swapping (§3.6). When this store's home SSD is
// over-subscribed, the engine redirects PUT values into a co-located
// store's swap region via PutSwapped. The key-log item records the helper's
// SSD identifier, so subsequent GETs read the value from the helper.
// Swapped values are merged back to the home value log during future
// compactions, after which the helper reclaims its swap space.

// AppendSwap appends a foreign value entry to this store's swap region on
// behalf of an overloaded co-located store. It returns the entry's logical
// offset in the swap log and the write-completion event.
func (s *Store) AppendSwap(entry []byte) (int64, runtime.Event, error) {
	if s.swapLog == nil {
		return 0, nil, fmt.Errorf("core: store %d has no swap region", s.cfg.DevID)
	}
	off, ev, err := s.swapLog.Append(entry)
	if err != nil {
		return 0, nil, err
	}
	s.swapMeta[off] = int64(len(entry))
	return off, ev, nil
}

// SwapMerged marks the swap-log entry at off as merged back (or dead) and
// advances the swap head over the contiguous merged prefix.
func (s *Store) SwapMerged(off int64) {
	if s.swapLog == nil {
		return
	}
	s.swapMerged[off] = true
	for {
		h := s.swapLog.Head()
		size, ok := s.swapMeta[h]
		if !ok || !s.swapMerged[h] {
			return
		}
		delete(s.swapMeta, h)
		delete(s.swapMerged, h)
		s.swapLog.ReleaseTo(h + size)
	}
}

// releaseSwapRef marks a no-longer-referenced swapped value (overwritten or
// deleted) so the helper can reclaim its space.
func (s *Store) releaseSwapRef(ssdID uint8, off int64) {
	if peer, ok := s.peers[ssdID]; ok && peer != s {
		peer.SwapMerged(off)
	}
}

// Mergeback relocates swapped-out values back into the home value log, up
// to maxSegs segments per call. It returns the number of values merged.
func (s *Store) Mergeback(p runtime.Task, maxSegs int) (int, error) {
	if len(s.pendingSwaps) == 0 {
		return 0, nil
	}
	merged := 0
	for _, seg := range s.PendingSwapSegments() {
		if maxSegs <= 0 {
			break
		}
		maxSegs--
		n, err := s.mergebackSegment(p, seg)
		merged += n
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}

func (s *Store) mergebackSegment(p runtime.Task, seg uint32) (int, error) {
	var st OpStats
	s.segs.Lock(p, seg)
	defer s.segs.Unlock(seg)

	img, found, err := s.readImage(p, &st, seg)
	defer s.putBuf(img)
	bs := s.cfg.BlockSize
	if err == nil {
		err = checkImage(img, bs)
	}
	if err != nil {
		return 0, err
	}
	if !found {
		delete(s.pendingSwaps, seg)
		return 0, nil
	}
	// Move every swapped value home, patching its item in place.
	merged := 0
	for i := 0; i < len(img) && err == nil; i += bs {
		blk := img[i : i+bs]
		eachItem(blk, func(at int) bool {
			var moved bool
			moved, err = s.mergeItem(p, &st, blk, at)
			if moved {
				merged++
			}
			return err == nil
		})
	}
	if err != nil {
		return merged, err
	}
	// Rewrite the array at home when values moved or the array itself is
	// still living in a peer's swap region.
	_, remote := s.segs.Location(seg)
	if merged > 0 || remote {
		if err := s.appendSegment(p, &st, seg, img, nil); err != nil {
			return merged, err
		}
		if remote {
			merged++
			s.stats.MergedSwaps++
		}
	}
	delete(s.pendingSwaps, seg)
	return merged, nil
}

// mergeItem moves the value of the item at byte offset at of blk from a
// peer's swap region into the home value log and patches the item. It
// reports whether the value moved; home values and deletion markers stay.
func (s *Store) mergeItem(p runtime.Task, st *OpStats, blk []byte, at int) (bool, error) {
	it := itemAt(blk, at)
	if it.Deleted() || it.SSDID == s.cfg.DevID {
		return false, nil
	}
	entry := s.getBuf(ValueEntrySize(int(blk[at]), int(it.ValLen)))
	defer s.putBuf(entry)
	if err := s.readValueInto(p, st, &it, entry); err != nil {
		return false, err
	}
	newOff, ev, err := s.valLog.Append(entry)
	if err != nil {
		return false, err // out of space: retry after compaction
	}
	if err := s.ssdWait(p, st, ev); err != nil {
		return false, err
	}
	setItemAt(blk, at, RawItem{ValLen: it.ValLen, ValOff: newOff, SSDID: s.cfg.DevID})
	s.releaseSwapRef(it.SSDID, it.ValOff)
	s.stats.MergedSwaps++
	s.cpu(p, st, s.cfg.Costs.CompactItem)
	return true, nil
}

// SwapBacklog returns the number of segments awaiting swap merge-back.
func (s *Store) SwapBacklog() int { return len(s.pendingSwaps) }
