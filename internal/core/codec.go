package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-flash layout (§3.2.2–3.2.3).
//
// A bucket occupies exactly one SSD block: a header (magic u16 | chainLen
// u8 | chainPos u8 | segID u32 | crc u32 | items u16 | pad u16 | valHead
// u64 | valTail u64 | seq u64), then its items back to back. A segment is
// an array of chainLen buckets written contiguously to the key log, so
// fetching a segment is a single NVMe access. Key items carry the value
// length, the value-log offset, and the SSD identifier used by the
// intra-JBOF data swapping mechanism (§3.6).
//
// The serialized image is the store's only in-memory form of an array:
// readers check each block once (checkBlock), then find, patch or repack
// items in place, and writers reseal the image right before its append.

const (
	bucketMagic = 0x1EED
	valueMagic  = 0x1EE5

	bucketHdrSize = 40
	itemHdrSize   = 14 // keyLen u8 | ssdID u8 | valLen u32 | valOff u64
	valueHdrSize  = 12 // magic u16 | keyLen u8 | flags u8 | valLen u32 | crc u32

	// MaxKeyLen is the largest supported key, bounded by the 1-byte
	// on-flash key length field.
	MaxKeyLen = 255
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroCRCField stands in for a bucket header's zeroed CRC field when
// verifying in place; package-level so taking a slice of it never escapes
// a stack temporary into the per-GET path.
var zeroCRCField [4]byte

// RawItem holds the value fields of one key item, decoded in place from a
// block; the key stays in the block. ValLen == 0 marks a deletion (§3.3:
// DEL sets the value length to zero as the deletion marker).
type RawItem struct {
	ValLen uint32
	ValOff int64
	SSDID  uint8 // which co-located SSD holds the value (data swapping, §3.6)
}

// Deleted reports whether the item is a deletion marker.
func (it *RawItem) Deleted() bool { return it.ValLen == 0 }

// blockHdr is the chain metadata of a checked block that recovery and
// key-log compaction read to delimit and order arrays.
type blockHdr struct {
	segID    uint32
	chainLen uint8
	chainPos uint8
	valTail  int64
	seq      uint64
}

// headerOf decodes the chain metadata of a checked block.
func headerOf(blk []byte) blockHdr {
	return blockHdr{
		chainLen: blk[2],
		chainPos: blk[3],
		segID:    binary.LittleEndian.Uint32(blk[4:]),
		valTail:  int64(binary.LittleEndian.Uint64(blk[24:])),
		seq:      binary.LittleEndian.Uint64(blk[32:]),
	}
}

// checkBlock validates one serialized bucket block: magic, CRC and an item
// layout that fits the block. The stored CRC was computed with its own
// field zeroed, so the check runs the CRC over the three spans around it
// instead of zeroing a copy.
func checkBlock(src []byte) error {
	if len(src) < bucketHdrSize {
		return fmt.Errorf("%w: short bucket block", ErrCorrupt)
	}
	if binary.LittleEndian.Uint16(src[0:]) != bucketMagic {
		return fmt.Errorf("%w: bad bucket magic", ErrCorrupt)
	}
	crc := crc32.Update(0, castagnoli, src[:8])
	crc = crc32.Update(crc, castagnoli, zeroCRCField[:])
	crc = crc32.Update(crc, castagnoli, src[12:])
	if crc != binary.LittleEndian.Uint32(src[8:]) {
		return fmt.Errorf("%w: bucket crc mismatch", ErrCorrupt)
	}
	_, err := eachItem(src, nil)
	return err
}

// checkImage checks every bs-byte block of a segment array image.
func checkImage(img []byte, bs int) error {
	for i := 0; i < len(img); i += bs {
		if err := checkBlock(img[i : i+bs]); err != nil {
			return err
		}
	}
	return nil
}

// eachItem is the one walker of a block's item layout. It calls fn, when
// non-nil, with the byte offset of each item in order until fn returns
// false, and returns the offset just past the last item it passed over. An
// item whose header or key overruns the block is ErrCorrupt; checkBlock
// walks each block before anything else does, so no later walk fails.
func eachItem(blk []byte, fn func(at int) bool) (int, error) {
	o := bucketHdrSize
	for n := binary.LittleEndian.Uint16(blk[12:]); n > 0; n-- {
		if o+itemHdrSize > len(blk) {
			return o, fmt.Errorf("%w: truncated item header", ErrCorrupt)
		}
		next := o + itemHdrSize + int(blk[o])
		if next > len(blk) {
			return o, fmt.Errorf("%w: truncated item key", ErrCorrupt)
		}
		if fn != nil && !fn(o) {
			return o, nil
		}
		o = next
	}
	return o, nil
}

// findItem finds key in a checked segment image. b is the block holding
// the item, at its byte offset there and it its value fields; b is nil and
// it zero (a deletion marker) when the key is absent. scanned counts the
// items compared up to and including the match (every item on a miss),
// which callers charge as ItemScan cycles. It verifies no CRC, so it also
// serves an image whose items were patched since the check.
func findItem(img []byte, bs int, key []byte) (b []byte, at int, it RawItem, scanned int64) {
	for i := 0; i < len(img); i += bs {
		blk := img[i : i+bs]
		at = -1
		eachItem(blk, func(o int) bool {
			scanned++
			if string(keyAt(blk, o)) == string(key) {
				at = o
				return false
			}
			return true
		})
		if at >= 0 {
			return blk, at, itemAt(blk, at), scanned
		}
	}
	return nil, -1, RawItem{}, scanned
}

// sealBucketBlock writes a block's header around its item count — magic,
// chain metadata, recovery hints, sequence — and then its CRC, computed with
// the CRC field zeroed.
func sealBucketBlock(dst []byte, segID uint32, chainLen, chainPos uint8, valHead, valTail int64, seq uint64) {
	binary.LittleEndian.PutUint16(dst[0:], bucketMagic)
	dst[2] = chainLen
	dst[3] = chainPos
	binary.LittleEndian.PutUint32(dst[4:], segID)
	binary.LittleEndian.PutUint32(dst[8:], 0)
	dst[14], dst[15] = 0, 0
	binary.LittleEndian.PutUint64(dst[16:], uint64(valHead))
	binary.LittleEndian.PutUint64(dst[24:], uint64(valTail))
	binary.LittleEndian.PutUint64(dst[32:], seq)
	binary.LittleEndian.PutUint32(dst[8:], crc32.Checksum(dst, castagnoli))
}

// putItem writes one item — header and key — at byte offset at of a block.
func putItem(dst []byte, at int, key []byte, it RawItem) {
	dst[at] = uint8(len(key))
	setItemAt(dst, at, it)
	copy(dst[at+itemHdrSize:], key)
}

// keyAt returns the key of the item at byte offset at of a block, aliasing
// the block.
func keyAt(src []byte, at int) []byte {
	return src[at+itemHdrSize : at+itemHdrSize+int(src[at])]
}

// itemAt decodes the value fields of the item at byte offset at of a block.
func itemAt(src []byte, at int) RawItem {
	return RawItem{
		SSDID:  src[at+1],
		ValLen: binary.LittleEndian.Uint32(src[at+2:]),
		ValOff: int64(binary.LittleEndian.Uint64(src[at+6:])),
	}
}

// setItemAt overwrites the value fields of the item at byte offset at,
// leaving its key in place.
func setItemAt(dst []byte, at int, it RawItem) {
	dst[at+1] = it.SSDID
	binary.LittleEndian.PutUint32(dst[at+2:], it.ValLen)
	binary.LittleEndian.PutUint64(dst[at+6:], uint64(it.ValOff))
}

// addItem appends an item after the last one of a checked (or zeroed)
// block and bumps the block's item count. It reports false, leaving the
// block as it was, when the item does not fit.
func addItem(dst, key []byte, it RawItem) bool {
	end, _ := eachItem(dst, nil)
	if len(dst)-end < itemHdrSize+len(key) {
		return false
	}
	putItem(dst, end, key, it)
	binary.LittleEndian.PutUint16(dst[12:], binary.LittleEndian.Uint16(dst[12:])+1)
	return true
}

// ValueEntrySize returns the marshaled size of a value-log entry.
func ValueEntrySize(keyLen, valLen int) int { return valueHdrSize + keyLen + valLen }

// MarshalValueEntry encodes a value-log record: header (with a CRC over
// the payload), key, value. The key is stored alongside the value so
// value-log compaction can test liveness by looking the key up in the key
// log (§3.3.1); the CRC catches torn or stale reads, which matters most
// for entries living transiently in peer swap regions.
func MarshalValueEntry(dst, key, val []byte) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLarge
	}
	if len(dst) != ValueEntrySize(len(key), len(val)) {
		return fmt.Errorf("%w: value entry buffer size %d", ErrCorrupt, len(dst))
	}
	binary.LittleEndian.PutUint16(dst[0:], valueMagic)
	dst[2] = uint8(len(key))
	dst[3] = 0
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(val)))
	copy(dst[valueHdrSize:], key)
	copy(dst[valueHdrSize+len(key):], val)
	binary.LittleEndian.PutUint32(dst[8:], crc32.Checksum(dst[valueHdrSize:], castagnoli))
	return nil
}

// ParseValueEntry decodes the entry at the start of src, verifying its
// CRC, and returns the key, value, and total entry size. The returned
// slices alias src.
func ParseValueEntry(src []byte) (key, val []byte, size int, err error) {
	if len(src) < valueHdrSize {
		return nil, nil, 0, fmt.Errorf("%w: short value entry", ErrCorrupt)
	}
	if binary.LittleEndian.Uint16(src[0:]) != valueMagic {
		return nil, nil, 0, fmt.Errorf("%w: bad value magic", ErrCorrupt)
	}
	kl := int(src[2])
	vl := int(binary.LittleEndian.Uint32(src[4:]))
	size = ValueEntrySize(kl, vl)
	if len(src) < size {
		return nil, nil, 0, fmt.Errorf("%w: truncated value entry (%d < %d)", ErrCorrupt, len(src), size)
	}
	if crc32.Checksum(src[valueHdrSize:size], castagnoli) != binary.LittleEndian.Uint32(src[8:]) {
		return nil, nil, 0, fmt.Errorf("%w: value entry crc mismatch", ErrCorrupt)
	}
	return src[valueHdrSize : valueHdrSize+kl], src[valueHdrSize+kl : size], size, nil
}
