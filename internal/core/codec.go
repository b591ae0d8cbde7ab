package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-flash layout (§3.2.2–3.2.3).
//
// A bucket occupies exactly one SSD block. A segment is an array of
// chainLen buckets written contiguously to the key log, so fetching a
// segment is a single NVMe access. Key items carry the value length, the
// value-log offset, and the SSD identifier used by the intra-JBOF data
// swapping mechanism (§3.6).

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

// Item is one key entry inside a bucket. ValLen == 0 marks a deletion
// (§3.3: DEL sets the value length to zero as the deletion marker).
type Item struct {
	Key    []byte
	ValLen uint32
	ValOff int64
	SSDID  uint8 // which co-located SSD holds the value (data swapping, §3.6)
}

// Size returns the item's marshaled size.
func (it *Item) Size() int { return itemHdrSize + len(it.Key) }

// Deleted reports whether the item is a deletion marker.
func (it *Item) Deleted() bool { return it.ValLen == 0 }

// Bucket is one block of a segment's chained-bucket array.
type Bucket struct {
	SegID       uint32
	ChainLen    uint8
	ChainPos    uint8
	ValHeadHint int64 // value-log head at write time (recovery, §3.2.3)
	ValTailHint int64 // value-log tail at write time
	Seq         uint64
	Items       []Item
}

// itemsBytes returns the marshaled size of all items.
func (b *Bucket) itemsBytes() int {
	n := 0
	for i := range b.Items {
		n += b.Items[i].Size()
	}
	return n
}

// SpaceLeft returns the free item bytes remaining in a block of blockSize.
func (b *Bucket) SpaceLeft(blockSize int) int {
	return blockSize - bucketHdrSize - b.itemsBytes()
}

// Find returns the index of the item with the given key, or -1.
func (b *Bucket) Find(key []byte) int {
	for i := range b.Items {
		if string(b.Items[i].Key) == string(key) {
			return i
		}
	}
	return -1
}

// Marshal writes the bucket into dst, which must be exactly one block.
func (b *Bucket) Marshal(dst []byte) error {
	if len(b.Items) > 0xffff {
		return fmt.Errorf("%w: %d items", ErrCorrupt, len(b.Items))
	}
	need := bucketHdrSize + b.itemsBytes()
	if need > len(dst) {
		return fmt.Errorf("%w: bucket needs %d bytes, block is %d", ErrCorrupt, need, len(dst))
	}
	clear(dst)
	o := bucketHdrSize
	for i := range b.Items {
		it := &b.Items[i]
		if len(it.Key) > MaxKeyLen {
			return ErrKeyTooLarge
		}
		putItem(dst, o, it.Key, RawItem{ValLen: it.ValLen, ValOff: it.ValOff, SSDID: it.SSDID})
		o += it.Size()
	}
	binary.LittleEndian.PutUint16(dst[12:], uint16(len(b.Items)))
	sealBucketBlock(dst, b.SegID, b.ChainLen, b.ChainPos, b.ValHeadHint, b.ValTailHint, b.Seq)
	return nil
}

// UnmarshalBucket parses one block. The stored CRC is validated. The
// returned bucket never aliases src (callers parse out of recycled segment
// buffers and compaction chunks): every key is sliced out of one copy of the
// block's item area, and Items has room for the one insert a PUT may make —
// three allocations per block however many items it holds.
func UnmarshalBucket(src []byte) (*Bucket, error) {
	if err := VerifyBucketBlock(src); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(src[12:]))
	end := bucketHdrSize
	for i := 0; i < n; i++ {
		if end+itemHdrSize > len(src) {
			return nil, fmt.Errorf("%w: truncated item header", ErrCorrupt)
		}
		end += itemHdrSize + int(src[end])
		if end > len(src) {
			return nil, fmt.Errorf("%w: truncated item key", ErrCorrupt)
		}
	}
	b := &Bucket{
		ChainLen:    src[2],
		ChainPos:    src[3],
		SegID:       binary.LittleEndian.Uint32(src[4:]),
		ValHeadHint: int64(binary.LittleEndian.Uint64(src[16:])),
		ValTailHint: int64(binary.LittleEndian.Uint64(src[24:])),
		Seq:         binary.LittleEndian.Uint64(src[32:]),
		Items:       make([]Item, n, n+1),
	}
	area := append([]byte(nil), src[bucketHdrSize:end]...)
	o := 0
	for i := range b.Items {
		k0 := o + itemHdrSize
		k1 := k0 + int(area[o])
		b.Items[i] = Item{
			SSDID:  area[o+1],
			ValLen: binary.LittleEndian.Uint32(area[o+2:]),
			ValOff: int64(binary.LittleEndian.Uint64(area[o+6:])),
			Key:    area[k0:k1:k1],
		}
		o = k1
	}
	return b, nil
}

// VerifyBucketBlock validates one serialized bucket block — magic and CRC —
// without copying it: the stored CRC was computed with its own field zeroed,
// so the check runs the CRC over the three spans around it instead of
// zeroing a temporary copy.
func VerifyBucketBlock(src []byte) error {
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
	return nil
}

// RawItem is an item decoded in place from a serialized bucket block: the
// fields a GET needs, without copying the key out. The allocation-free read
// path scans blocks with ScanBucketBlock instead of materializing Buckets.
type RawItem struct {
	ValLen uint32
	ValOff int64
	SSDID  uint8
}

// Deleted reports whether the item is a deletion marker.
func (it *RawItem) Deleted() bool { return it.ValLen == 0 }

// ScanBucketBlock searches one serialized bucket block (call
// VerifyBucketBlock first) for key, walking the item layout in place.
// scanned reports how many items were inspected — the same count findItem
// charges — so callers bill identical CPU cycles to either path.
func ScanBucketBlock(src, key []byte) (it RawItem, scanned int, found bool, err error) {
	n := int(binary.LittleEndian.Uint16(src[12:]))
	o := bucketHdrSize
	for i := 0; i < n; i++ {
		if o+itemHdrSize > len(src) {
			return RawItem{}, scanned, false, fmt.Errorf("%w: truncated item header", ErrCorrupt)
		}
		kl := int(src[o])
		if o+itemHdrSize+kl > len(src) {
			return RawItem{}, scanned, false, fmt.Errorf("%w: truncated item key", ErrCorrupt)
		}
		scanned++
		if kl == len(key) && string(src[o+itemHdrSize:o+itemHdrSize+kl]) == string(key) {
			return itemAt(src, o), scanned, true, nil
		}
		o += itemHdrSize + kl
	}
	return RawItem{}, scanned, false, nil
}

// sealBucketBlock writes a block's header around its item count — magic,
// chain metadata, recovery hints, sequence — and then its CRC, computed with
// the CRC field zeroed. Marshal and the in-place segment editor both seal
// through it, so the two write the same header bytes.
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

// addItem appends an item after the last one of a checked block and bumps
// the block's item count. It reports false, leaving the block as it was,
// when the item does not fit.
func addItem(dst, key []byte, it RawItem) bool {
	end := itemsEnd(dst)
	if len(dst)-end < itemHdrSize+len(key) {
		return false
	}
	putItem(dst, end, key, it)
	binary.LittleEndian.PutUint16(dst[12:], binary.LittleEndian.Uint16(dst[12:])+1)
	return true
}

// itemsEnd returns the byte offset just past the last item of a block whose
// item layout has been checked (locateItem checks every block it passes).
func itemsEnd(src []byte) int {
	o := bucketHdrSize
	for n := binary.LittleEndian.Uint16(src[12:]); n > 0; n-- {
		o += itemHdrSize + int(src[o])
	}
	return o
}

// locateItem checks every block of a serialized segment array — CRC and
// item layout, as parsing each block with UnmarshalBucket would — and finds
// key's item in place. blk and at are the block index and byte offset of the
// item, blk < 0 when the key is absent. scanned counts the items inspected
// up to and including the match (every item on a miss): the count findItem
// charges. Unlike a GET's ScanBucketBlock walk, which may stop at the match,
// an editor reseals every block, so it must vet every block first.
func locateItem(img []byte, bs int, key []byte) (blk, at int, scanned int64, err error) {
	blk, at = -1, -1
	for i := 0; (i+1)*bs <= len(img); i++ {
		src := img[i*bs : (i+1)*bs]
		if err := VerifyBucketBlock(src); err != nil {
			return -1, -1, 0, err
		}
		o := bucketHdrSize
		for n := binary.LittleEndian.Uint16(src[12:]); n > 0; n-- {
			if o+itemHdrSize > len(src) {
				return -1, -1, 0, fmt.Errorf("%w: truncated item header", ErrCorrupt)
			}
			kl := int(src[o])
			if o+itemHdrSize+kl > len(src) {
				return -1, -1, 0, fmt.Errorf("%w: truncated item key", ErrCorrupt)
			}
			if blk < 0 {
				scanned++
				if kl == len(key) && string(src[o+itemHdrSize:o+itemHdrSize+kl]) == string(key) {
					blk, at = i, o
				}
			}
			o += itemHdrSize + kl
		}
	}
	return blk, at, scanned, nil
}

// ProbeBucket cheaply checks whether a block looks like a valid bucket
// without the CRC copy; used by recovery scans.
func ProbeBucket(src []byte) bool {
	if len(src) < bucketHdrSize {
		return false
	}
	return binary.LittleEndian.Uint16(src[0:]) == bucketMagic
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
