package core

import (
	"bytes"
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

// segmentImage returns a copy of seg's current array as the device holds it,
// or nil when the segment is empty.
func segmentImage(s *Store, dev *flashsim.MemDevice, seg uint32) []byte {
	off, chain, ok := s.segs.Lookup(seg)
	if !ok {
		return nil
	}
	img := make([]byte, s.segBytes(chain))
	dev.SyncRead(img, s.keyLog.phys(off))
	return img
}

// refEdit is the parse → edit reference for one PUT or DEL: it parses prev
// with UnmarshalBucket and applies the edit the way the store did before it
// edited images in place. It returns the edited buckets, or the error the
// operation must return (and then no array is written).
func refEdit(t *testing.T, s *Store, prev []byte, op byte, key []byte, it Item) ([]*Bucket, error) {
	bs := s.cfg.BlockSize
	var buckets []*Bucket
	for i := 0; i*bs < len(prev); i++ {
		b, err := UnmarshalBucket(prev[i*bs : (i+1)*bs])
		if err != nil {
			t.Fatalf("reference parse: %v", err)
		}
		buckets = append(buckets, b)
	}
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
