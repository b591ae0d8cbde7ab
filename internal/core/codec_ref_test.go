package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The parsed bucket codec: the reference the store's in-place image codec is
// tested against. A Bucket is one block decoded into Go values; Marshal and
// UnmarshalBucket convert between the two forms without sharing the store's
// walker or finder, so tests that compare the store's images with
// parse → edit → Marshal check the image codec against an independent one.

// Item is one key entry inside a bucket. ValLen == 0 marks a deletion.
type Item struct {
	Key    []byte
	ValLen uint32
	ValOff int64
	SSDID  uint8
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
	ValHeadHint int64
	ValTailHint int64
	Seq         uint64
	Items       []Item
}

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

// UnmarshalBucket parses one block, validating its magic, its CRC (over a
// copy with the CRC field zeroed) and its item layout. The returned bucket
// never aliases src.
func UnmarshalBucket(src []byte) (*Bucket, error) {
	if len(src) < bucketHdrSize {
		return nil, fmt.Errorf("%w: short bucket block", ErrCorrupt)
	}
	if binary.LittleEndian.Uint16(src[0:]) != bucketMagic {
		return nil, fmt.Errorf("%w: bad bucket magic", ErrCorrupt)
	}
	tmp := append([]byte(nil), src...)
	binary.LittleEndian.PutUint32(tmp[8:], 0)
	if crc32.Checksum(tmp, castagnoli) != binary.LittleEndian.Uint32(src[8:]) {
		return nil, fmt.Errorf("%w: bucket crc mismatch", ErrCorrupt)
	}
	b := &Bucket{
		ChainLen:    src[2],
		ChainPos:    src[3],
		SegID:       binary.LittleEndian.Uint32(src[4:]),
		ValHeadHint: int64(binary.LittleEndian.Uint64(src[16:])),
		ValTailHint: int64(binary.LittleEndian.Uint64(src[24:])),
		Seq:         binary.LittleEndian.Uint64(src[32:]),
	}
	o := bucketHdrSize
	for n := int(binary.LittleEndian.Uint16(src[12:])); n > 0; n-- {
		if o+itemHdrSize > len(src) {
			return nil, fmt.Errorf("%w: truncated item header", ErrCorrupt)
		}
		k0, k1 := o+itemHdrSize, o+itemHdrSize+int(src[o])
		if k1 > len(src) {
			return nil, fmt.Errorf("%w: truncated item key", ErrCorrupt)
		}
		b.Items = append(b.Items, Item{
			SSDID:  src[o+1],
			ValLen: binary.LittleEndian.Uint32(src[o+2:]),
			ValOff: int64(binary.LittleEndian.Uint64(src[o+6:])),
			Key:    append([]byte(nil), src[k0:k1]...),
		})
		o = k1
	}
	return b, nil
}
