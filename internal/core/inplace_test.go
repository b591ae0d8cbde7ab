package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"leed/internal/flashsim"
	"leed/internal/sim"
)

// inplaceStore is a store with few segments and small blocks, so a short
// random mix grows chains to MaxChain and runs segments full. Its logs are
// large enough that no compaction runs: every array in the key log is one a
// PUT or DEL wrote.
func inplaceStore(k sim.Runner, dev flashsim.Device) *Store {
	return NewStore(Config{
		Env: k, Device: dev, NumSegments: 4, BlockSize: 128, MaxChain: 3,
		KeyLogBytes: 2 << 20, ValLogBytes: 2 << 20,
	})
}

// segmentImage returns a copy of seg's current array as dev holds it, or
// nil when the segment is empty.
func segmentImage(s *Store, dev *flashsim.MemDevice, seg uint32) []byte {
	return arrayImage(s, map[uint8]*flashsim.MemDevice{s.cfg.DevID: dev}, seg)
}

// refParse parses every block of a segment image with UnmarshalBucket.
func refParse(t *testing.T, bs int, img []byte) []*Bucket {
	t.Helper()
	var buckets []*Bucket
	for i := 0; i < len(img); i += bs {
		b, err := UnmarshalBucket(img[i : i+bs])
		if err != nil {
			t.Fatalf("reference parse: %v", err)
		}
		buckets = append(buckets, b)
	}
	return buckets
}

// refEdit is the parse → edit reference for one PUT or DEL: it parses prev
// with UnmarshalBucket and applies the edit the way the store did before it
// edited images in place. It returns the edited buckets, or the error the
// operation must return (and then no array is written).
func refEdit(t *testing.T, s *Store, prev []byte, op byte, key []byte, it Item) ([]*Bucket, error) {
	bs := s.cfg.BlockSize
	buckets := refParse(t, bs, prev)
	bi, ii := -1, -1
	for i, b := range buckets {
		if j := b.Find(key); j >= 0 {
			bi, ii = i, j
			break
		}
	}
	if op == 'D' {
		if bi < 0 || buckets[bi].Items[ii].Deleted() {
			return nil, ErrNotFound
		}
		buckets[bi].Items[ii] = Item{Key: key, SSDID: s.cfg.DevID}
		return buckets, nil
	}
	if bi >= 0 {
		buckets[bi].Items[ii] = it
		return buckets, nil
	}
	if len(buckets) == 0 {
		buckets = []*Bucket{{}}
	}
	for _, b := range buckets {
		if b.SpaceLeft(bs) >= it.Size() {
			b.Items = append(b.Items, it)
			return buckets, nil
		}
	}
	if len(buckets) >= s.cfg.MaxChain {
		return nil, ErrSegmentFull
	}
	return append(buckets, &Bucket{Items: []Item{it}}), nil
}

// TestInPlaceEditMatchesMarshal drives a seeded mix of updates, inserts
// (growing chains to MaxChain and past it into ErrSegmentFull), DELs, DELs
// of missing keys and re-PUTs of deleted keys, and after every operation
// demands that the array the store appended is byte for byte what parsing
// the previous array, applying the same edit and marshaling would write. A
// refused operation must leave the array where it was. At the end a fresh
// store recovered from the device must hold the same key→value map.
func TestInPlaceEditMatchesMarshal(t *testing.T) {
	k := sim.New()
	defer k.Close()
	dev := flashsim.NewMemDevice(k, 8<<20)
	s := inplaceStore(k, dev)
	model := map[string]string{}
	var updates, inserts, grows, full, dels, missDels, reputs int
	runStore(k, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(42))
		deleted := map[string]bool{}
		for i := 0; i < 3000; i++ {
			n := rng.Intn(60)
			key := []byte(fmt.Sprintf("k%d%s", n, strings.Repeat("x", n%9)))
			seg := SegmentOf(HashKey(key), s.cfg.NumSegments)
			prev := segmentImage(s, dev, seg)
			prevOff, _, _ := s.segs.Lookup(seg)
			seq := s.seq

			op := byte('P')
			if rng.Intn(4) == 0 {
				op = 'D'
			}
			val := bytes.Repeat([]byte{byte('a' + i%26)}, 1+rng.Intn(40))
			it := Item{Key: key, ValLen: uint32(len(val)), ValOff: s.valLog.Tail(), SSDID: s.cfg.DevID}
			want, wantErr := refEdit(t, s, prev, op, key, it)

			var err error
			if op == 'D' {
				_, err = s.Del(p, key)
			} else {
				_, err = s.Put(p, key, val)
			}
			if !errors.Is(err, wantErr) {
				t.Fatalf("op %d %c %q: err %v, want %v", i, op, key, err, wantErr)
			}
			got := segmentImage(s, dev, seg)
			if wantErr != nil {
				if off, _, _ := s.segs.Lookup(seg); off != prevOff || !bytes.Equal(got, prev) || s.seq != seq {
					t.Fatalf("op %d %c %q: refused with %v but the array moved", i, op, key, err)
				}
				if wantErr == ErrSegmentFull {
					full++
				} else {
					missDels++
				}
				continue
			}
			img := make([]byte, len(want)*s.cfg.BlockSize)
			for j, b := range want {
				b.SegID = seg
				b.ChainLen = uint8(len(want))
				b.ChainPos = uint8(j)
				b.ValHeadHint = s.valLog.Head()
				b.ValTailHint = s.valLog.Tail()
				b.Seq = seq + 1
				if err := b.Marshal(img[j*s.cfg.BlockSize : (j+1)*s.cfg.BlockSize]); err != nil {
					t.Fatalf("reference marshal: %v", err)
				}
			}
			if !bytes.Equal(got, img) {
				t.Fatalf("op %d %c %q: appended array differs from parse → edit → Marshal\n got %x\nwant %x", i, op, key, got, img)
			}
			switch {
			case op == 'D':
				dels++
				deleted[string(key)] = true
				delete(model, string(key))
				continue
			case deleted[string(key)]:
				reputs++
				delete(deleted, string(key))
			case model[string(key)] != "":
				updates++
			default:
				inserts++
			}
			if len(got) > len(prev) && len(prev) > 0 {
				grows++
			}
			model[string(key)] = string(val)
			if i == 1500 {
				if err := s.Flush(p); err != nil {
					t.Fatalf("flush: %v", err)
				}
			}
		}
	})
	for name, n := range map[string]int{
		"updates": updates, "inserts": inserts, "chain growths": grows, "ErrSegmentFull": full,
		"DELs": dels, "DELs of missing keys": missDels, "re-PUTs of deleted keys": reputs,
	} {
		if n == 0 {
			t.Errorf("the mix exercised no %s", name)
		}
	}

	r := inplaceStore(k, dev)
	got := map[string]string{}
	runStore(k, func(p *sim.Proc) {
		if _, err := r.Recover(p); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if err := r.Range(p, func(key, val []byte) bool {
			got[string(key)] = string(val)
			return true
		}); err != nil {
			t.Fatalf("range: %v", err)
		}
	})
	if len(got) != len(model) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(model))
	}
	for key, want := range model {
		if got[key] != want {
			t.Fatalf("recovered %q = %q, want %q", key, got[key], want)
		}
	}
}

// arrayImage returns a copy of seg's current array from wherever it lives —
// the home key log or a peer's swap region — or nil when the segment is
// empty. devs maps each store's DevID to its device.
func arrayImage(s *Store, devs map[uint8]*flashsim.MemDevice, seg uint32) []byte {
	off, chain, ok := s.segs.Lookup(seg)
	if !ok {
		return nil
	}
	dev, log := devs[s.cfg.DevID], s.keyLog
	if devID, remote := s.segs.Location(seg); remote {
		dev, log = devs[devID], s.peers[devID].swapLog
	}
	img := make([]byte, s.segBytes(chain))
	first := min(int64(len(img)), log.size-off%log.size) // the array may wrap
	dev.SyncRead(img[:first], log.phys(off))
	dev.SyncRead(img[first:], log.phys(off+first))
	return img
}

// refMarshal marshals buckets as one array of seg, taking the recovery
// hints and sequence number from got's first block: when an array is
// sealed is the store's business, what it holds is the reference's.
func refMarshal(t *testing.T, bs int, seg uint32, buckets []*Bucket, got []byte) []byte {
	t.Helper()
	img := make([]byte, len(buckets)*bs)
	h := headerOf(got)
	for j, b := range buckets {
		b.SegID, b.ChainLen, b.ChainPos = seg, uint8(len(buckets)), uint8(j)
		b.ValHeadHint = int64(binary.LittleEndian.Uint64(got[16:]))
		b.ValTailHint, b.Seq = h.valTail, h.seq
		if err := b.Marshal(img[j*bs : (j+1)*bs]); err != nil {
			t.Fatalf("reference marshal: %v", err)
		}
	}
	return img
}

// TestCompactionArraysMatchMarshal runs a seeded mix of PUTs, swapped PUTs
// and DELs on a small log, interleaved with key-log compaction, value-log
// compaction and merge-back rounds, and demands that every array a round
// appends is byte for byte what parsing the array it replaced with
// UnmarshalBucket, applying the round's edit and marshaling writes:
//   - key-log compaction: the non-deleted items repacked densely in order
//     (a segment left with none is cleared instead);
//   - value-log compaction: every home item whose value sat in the chunk
//     the head passed gets a new offset past the old tail, nothing else
//     changes;
//   - merge-back: every swapped item comes home at a new offset past the
//     old tail, and the array lives at home again.
//
// Arrays a round did not append must not move.
func TestCompactionArraysMatchMarshal(t *testing.T) {
	k := sim.New()
	defer k.Close()
	devs := map[uint8]*flashsim.MemDevice{}
	mk := func(devID uint8) *Store {
		devs[devID] = flashsim.NewMemDevice(k, 1<<20)
		return NewStore(Config{
			Env: k, Device: devs[devID], DevID: devID, NumSegments: 4, BlockSize: 128, MaxChain: 4,
			KeyLogBytes: 96 << 10, ValLogBytes: 96 << 10, SwapLogBytes: 64 << 10,
			CompactChunk: 2 << 10, MergeOK: func() bool { return false },
		})
	}
	s, helper := mk(0), mk(1)
	s.AddPeer(helper)
	helper.AddPeer(s)
	bs := s.cfg.BlockSize
	var repacks, shrinks, clears, relocations, merges, remoteMerges int

	// round runs one round of kind K, V or M and checks every array it
	// appended; it returns the bytes the round reclaimed.
	round := func(p *sim.Proc, kind byte) int64 {
		var prev [4][]byte
		var prevOff [4]int64
		var prevRemote [4]bool
		for seg := range prev {
			prev[seg] = arrayImage(s, devs, uint32(seg))
			prevOff[seg], _, _ = s.segs.Lookup(uint32(seg))
			_, prevRemote[seg] = s.segs.Location(uint32(seg))
		}
		valHead, valTail := s.valLog.Head(), s.valLog.Tail()
		var reclaimed int64
		var err error
		switch kind {
		case 'K':
			reclaimed, err = s.CompactKeyLog(p)
		case 'V':
			reclaimed, err = s.CompactValueLog(p)
		case 'M':
			_, err = s.Mergeback(p, 64)
		}
		if err != nil {
			t.Fatalf("round %c: %v", kind, err)
		}
		newValHead := s.valLog.Head()
		for seg := uint32(0); seg < 4; seg++ {
			if off, _, ok := s.segs.Lookup(seg); prev[seg] == nil || ok && off == prevOff[seg] {
				continue // the round appended nothing for seg
			}
			buckets := refParse(t, bs, prev[seg])
			got := arrayImage(s, devs, seg)
			// moved reports whether the round must give item it a new value
			// offset; the edit keeps every item where it was.
			var moved func(it Item) bool
			switch kind {
			case 'K':
				repacked := []*Bucket{{}}
				for _, b := range buckets {
					for _, it := range b.Items {
						if it.Deleted() {
							continue
						}
						if repacked[len(repacked)-1].SpaceLeft(bs) < it.Size() {
							repacked = append(repacked, &Bucket{})
						}
						last := repacked[len(repacked)-1]
						last.Items = append(last.Items, it)
					}
				}
				if len(repacked[0].Items) == 0 {
					if got != nil {
						t.Fatalf("key compaction kept seg %d with no live items", seg)
					}
					clears++
					continue
				}
				if len(repacked) < len(buckets) {
					shrinks++
				}
				repacks++
				buckets = repacked
			case 'V':
				moved = func(it Item) bool {
					return !it.Deleted() && it.SSDID == s.cfg.DevID && it.ValOff >= valHead && it.ValOff < newValHead
				}
			case 'M':
				moved = func(it Item) bool { return !it.Deleted() && it.SSDID != s.cfg.DevID }
				if _, remote := s.segs.Location(seg); remote {
					t.Fatalf("merge-back left seg %d remote", seg)
				}
				if prevRemote[seg] {
					remoteMerges++
				}
			}
			if moved != nil {
				gotBuckets := refParse(t, bs, got)
				for j, b := range buckets {
					for m := range b.Items {
						it := &b.Items[m]
						if !moved(*it) || j >= len(gotBuckets) || m >= len(gotBuckets[j].Items) {
							continue
						}
						if newOff := gotBuckets[j].Items[m].ValOff; newOff >= valTail {
							it.ValOff, it.SSDID = newOff, s.cfg.DevID
							if kind == 'V' {
								relocations++
							} else {
								merges++
							}
						}
					}
				}
			}
			if want := refMarshal(t, bs, seg, buckets, got); !bytes.Equal(got, want) {
				t.Fatalf("round %c seg %d: appended array differs from parse → edit → Marshal\n got %x\nwant %x", kind, seg, got, want)
			}
		}
		return reclaimed
	}

	model := map[string]string{}
	runStore(k, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 3000; i++ {
			n := rng.Intn(40)
			key := []byte(fmt.Sprintf("k%d%s", n, strings.Repeat("y", n%7)))
			val := bytes.Repeat([]byte{byte('a' + i%26)}, 1+rng.Intn(60))
			var err error
			switch r := rng.Intn(20); {
			case r < 4:
				if _, err = s.Del(p, key); err == nil {
					delete(model, string(key))
				}
			case r < 6 && s.SwapBacklog() < 3:
				if _, err = s.PutSwapped(p, key, val, helper); err == nil {
					model[string(key)] = string(val)
				}
			default:
				if _, err = s.Put(p, key, val); err == nil {
					model[string(key)] = string(val)
				}
			}
			if err != nil && err != ErrNotFound && err != ErrSegmentFull {
				t.Fatalf("op %d %q: %v", i, key, err)
			}
			if i%10 != 9 {
				continue
			}
			kind := "KVM"[rng.Intn(3)]
			if i%1000 == 999 {
				// Delete everything so key compaction clears segments.
				for n := 0; n < 40; n++ {
					key := fmt.Sprintf("k%d%s", n, strings.Repeat("y", n%7))
					s.Del(p, []byte(key))
					delete(model, key)
				}
				kind = 'K'
			}
			// Key-log rounds repeat until the head reaches live arrays.
			switch kind {
			case 'K':
				for r := 0; r < 40 && round(p, kind) > 0; r++ {
				}
			default:
				round(p, kind)
			}
		}
		for key, want := range model {
			if got, _, err := s.Get(p, []byte(key)); err != nil || string(got) != want {
				t.Fatalf("get %q = %q, %v; want %q", key, got, err, want)
			}
		}
	})
	for name, n := range map[string]int{
		"key-compaction repacks": repacks, "repacks that shrink a chain": shrinks, "cleared segments": clears,
		"value relocations": relocations, "merged values": merges, "merges of remote arrays": remoteMerges,
	} {
		if n == 0 {
			t.Errorf("the mix exercised no %s", name)
		}
	}
	t.Logf("repacks %d (shrinks %d), clears %d, relocations %d, merges %d (remote arrays %d)",
		repacks, shrinks, clears, relocations, merges, remoteMerges)
}
