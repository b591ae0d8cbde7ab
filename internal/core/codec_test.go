package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	b := &Bucket{
		SegID:       77,
		ChainLen:    3,
		ChainPos:    1,
		ValHeadHint: 1000,
		ValTailHint: 5000,
		Seq:         42,
		Items: []Item{
			{Key: []byte("alpha"), ValLen: 100, ValOff: 10, SSDID: 0},
			{Key: []byte("beta"), ValLen: 0, ValOff: 0, SSDID: 0}, // tombstone
			{Key: []byte("gamma"), ValLen: 7, ValOff: 999999, SSDID: 3},
		},
	}
	blk := make([]byte, 512)
	if err := b.Marshal(blk); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBucket(blk)
	if err != nil {
		t.Fatal(err)
	}
	if got.SegID != 77 || got.ChainLen != 3 || got.ChainPos != 1 ||
		got.ValHeadHint != 1000 || got.ValTailHint != 5000 || got.Seq != 42 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Items) != 3 {
		t.Fatalf("items = %d", len(got.Items))
	}
	if string(got.Items[0].Key) != "alpha" || got.Items[0].ValLen != 100 {
		t.Fatalf("item 0 = %+v", got.Items[0])
	}
	if !got.Items[1].Deleted() {
		t.Fatal("tombstone lost")
	}
	if got.Items[2].SSDID != 3 || got.Items[2].ValOff != 999999 {
		t.Fatalf("item 2 = %+v", got.Items[2])
	}
}

func TestBucketCRCDetectsCorruption(t *testing.T) {
	b := &Bucket{SegID: 1, ChainLen: 1, Items: []Item{{Key: []byte("k"), ValLen: 5, ValOff: 9}}}
	blk := make([]byte, 512)
	if err := b.Marshal(blk); err != nil {
		t.Fatal(err)
	}
	blk[100] ^= 0xff
	if _, err := UnmarshalBucket(blk); err == nil {
		t.Fatal("corrupted bucket parsed successfully")
	}
}

func TestBucketBadMagic(t *testing.T) {
	blk := make([]byte, 512)
	if _, err := UnmarshalBucket(blk); err == nil {
		t.Fatal("zero block parsed as bucket")
	}
	if checkBlock(blk) == nil {
		t.Fatal("checkBlock accepted zero block")
	}
}

func TestBucketOverflowRejected(t *testing.T) {
	b := &Bucket{}
	for i := 0; i < 40; i++ {
		b.Items = append(b.Items, Item{Key: bytes.Repeat([]byte{byte(i)}, 16), ValLen: 1})
	}
	blk := make([]byte, 512)
	if err := b.Marshal(blk); err == nil {
		t.Fatal("oversized bucket marshaled into one block")
	}
}

func TestBucketSpaceLeft(t *testing.T) {
	b := &Bucket{}
	free0 := b.SpaceLeft(512)
	if free0 != 512-bucketHdrSize {
		t.Fatalf("empty bucket space = %d", free0)
	}
	b.Items = append(b.Items, Item{Key: make([]byte, 16)})
	if got := b.SpaceLeft(512); got != free0-(itemHdrSize+16) {
		t.Fatalf("space after insert = %d", got)
	}
}

func TestBucketRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &Bucket{
			SegID:    rng.Uint32(),
			ChainLen: uint8(rng.Intn(4) + 1),
			ChainPos: uint8(rng.Intn(4)),
			Seq:      rng.Uint64(),
		}
		space := 512 - bucketHdrSize
		for {
			kl := rng.Intn(24) + 1
			if space < itemHdrSize+kl {
				break
			}
			key := make([]byte, kl)
			rng.Read(key)
			b.Items = append(b.Items, Item{
				Key:    key,
				ValLen: uint32(rng.Intn(1 << 16)),
				ValOff: rng.Int63(),
				SSDID:  uint8(rng.Intn(4)),
			})
			space -= itemHdrSize + kl
		}
		blk := make([]byte, 512)
		if err := b.Marshal(blk); err != nil {
			return false
		}
		got, err := UnmarshalBucket(blk)
		if err != nil {
			return false
		}
		if len(got.Items) != len(b.Items) {
			return false
		}
		for i := range b.Items {
			w, g := &b.Items[i], &got.Items[i]
			if !bytes.Equal(w.Key, g.Key) || w.ValLen != g.ValLen ||
				w.ValOff != g.ValOff || w.SSDID != g.SSDID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueEntryRoundTrip(t *testing.T) {
	key, val := []byte("user:12345"), bytes.Repeat([]byte{0xAB}, 256)
	buf := make([]byte, ValueEntrySize(len(key), len(val)))
	if err := MarshalValueEntry(buf, key, val); err != nil {
		t.Fatal(err)
	}
	k2, v2, size, err := ParseValueEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k2, key) || !bytes.Equal(v2, val) || size != len(buf) {
		t.Fatal("value entry round trip mismatch")
	}
}

func TestValueEntryTruncated(t *testing.T) {
	key, val := []byte("k"), []byte("vvvv")
	buf := make([]byte, ValueEntrySize(len(key), len(val)))
	MarshalValueEntry(buf, key, val)
	if _, _, _, err := ParseValueEntry(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated entry parsed")
	}
	if _, _, _, err := ParseValueEntry(buf[:3]); err == nil {
		t.Fatal("tiny entry parsed")
	}
}

func TestValueEntryBadMagic(t *testing.T) {
	buf := make([]byte, 32)
	if _, _, _, err := ParseValueEntry(buf); err == nil {
		t.Fatal("zero buffer parsed as value entry")
	}
}

func TestKeyTooLargeRejected(t *testing.T) {
	big := make([]byte, MaxKeyLen+1)
	b := &Bucket{Items: []Item{{Key: big, ValLen: 1}}}
	blk := make([]byte, 4096)
	if err := b.Marshal(blk); err == nil {
		t.Fatal("oversized key marshaled")
	}
	buf := make([]byte, ValueEntrySize(len(big), 1))
	if err := MarshalValueEntry(buf, big, []byte{1}); err == nil {
		t.Fatal("oversized key in value entry")
	}
}
