package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"leed/internal/flashsim"
	"leed/internal/runtime"
	"leed/internal/sim"
)

// TestHashKeyMatchesFnv pins the inlined FNV-1a loop to hash/fnv's output:
// hashes are durably encoded in segment assignment, so the two must never
// diverge.
func TestHashKeyMatchesFnv(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := [][]byte{nil, {}, []byte("a"), []byte("key1"), bytes.Repeat([]byte{0xff}, 255)}
	for i := 0; i < 200; i++ {
		k := make([]byte, rng.Intn(64))
		rng.Read(k)
		keys = append(keys, k)
	}
	for _, k := range keys {
		h := fnv.New64a()
		h.Write(k)
		if want, got := h.Sum64(), HashKey(k); got != want {
			t.Fatalf("HashKey(%q) = %#x, hash/fnv says %#x", k, got, want)
		}
	}
}

// cycleExec charges a compute phase as one virtual nanosecond per cycle,
// so OpStats.CPU reads back the cycles a command charged.
type cycleExec struct{}

func (cycleExec) Compute(p runtime.Task, cycles int64) { p.Sleep(runtime.Time(cycles)) }

// TestGetIntoMatchesGet pins the one GET's cost accounting over a populated
// store — deletes, overwrites, misses, empty segments — against the parsed
// reference: Get and GetInto return the same value, error and OpStats, two
// device reads for a hit, one for a miss in a non-empty segment, none for an
// empty one, and CPU of exactly HashLookup + ItemScan per item the parsed
// reference's Find passes up to and including the match (every item on a
// miss) + ValueParse on a hit.
func TestGetIntoMatchesGet(t *testing.T) {
	k := sim.New()
	defer k.Close()
	dev := flashsim.NewMemDevice(k, 4<<20)
	s := NewStore(Config{
		Env: k, Device: dev, Exec: cycleExec{}, NumSegments: 64,
		KeyLogBytes: 1 << 20, ValLogBytes: 2 << 20,
	})
	c := s.cfg.Costs
	rng := rand.New(rand.NewSource(7))
	var hits, misses, empty int
	runStore(k, func(p *sim.Proc) {
		vals := map[string][]byte{}
		for i := 0; i < 300; i++ {
			key := []byte(fmt.Sprintf("key-%d", rng.Intn(120)))
			val := make([]byte, 1+rng.Intn(200))
			rng.Read(val)
			if rng.Intn(6) == 0 {
				s.Del(p, key)
				delete(vals, string(key))
				continue
			}
			if _, err := s.Put(p, key, val); err != nil {
				t.Fatalf("put: %v", err)
			}
			vals[string(key)] = val
		}
		for i := 0; i < 140; i++ {
			key := []byte(fmt.Sprintf("key-%d", i))
			want := OpStats{CPU: runtime.Time(c.HashLookup)}
			var scanned int64
			found := false
			if img := segmentImage(s, dev, SegmentOf(HashKey(key), s.cfg.NumSegments)); img != nil {
				want.Reads = 1
				for _, b := range refParse(t, s.cfg.BlockSize, img) {
					if j := b.Find(key); j >= 0 {
						scanned += int64(j + 1)
						found = !b.Items[j].Deleted()
						break
					}
					scanned += int64(len(b.Items))
				}
				want.CPU += runtime.Time(scanned * c.ItemScan)
			}
			if found {
				want.Reads = 2
				want.CPU += runtime.Time(c.ValueParse)
			}

			v1, st1, err1 := s.Get(p, key)
			v2, st2, err2 := s.GetInto(p, key, nil)
			if err1 != err2 || !bytes.Equal(v1, v2) {
				t.Fatalf("key %q: Get %q, %v; GetInto %q, %v", key, v1, err1, v2, err2)
			}
			for _, st := range []OpStats{st1, st2} {
				if st.Reads != want.Reads || st.CPU != want.CPU || st.Writes != 0 {
					t.Fatalf("key %q: stats %+v, want %d reads and %v CPU", key, st, want.Reads, want.CPU)
				}
			}
			switch {
			case found:
				hits++
				if err1 != nil || !bytes.Equal(v1, vals[string(key)]) {
					t.Fatalf("key %q: got %q, %v; want %q", key, v1, err1, vals[string(key)])
				}
			case err1 != ErrNotFound:
				t.Fatalf("key %q: err %v, want ErrNotFound", key, err1)
			case want.Reads == 0:
				empty++
			default:
				misses++
			}
		}
		// Appending into a caller buffer extends rather than clobbers.
		key := []byte("key-0")
		if _, ok := vals["key-0"]; !ok {
			if _, err := s.Put(p, key, []byte("zz")); err != nil {
				t.Fatalf("put: %v", err)
			}
			vals["key-0"] = []byte("zz")
		}
		dst := append([]byte(nil), "prefix:"...)
		out, _, err := s.GetInto(p, key, dst)
		if err != nil {
			t.Fatalf("GetInto with dst: %v", err)
		}
		if want := "prefix:" + string(vals["key-0"]); string(out) != want {
			t.Fatalf("GetInto append = %q, want %q", out, want)
		}
	})
	if hits == 0 || misses == 0 || empty == 0 {
		t.Fatalf("cases: %d hits, %d misses, %d empty segments; want each", hits, misses, empty)
	}
}

// TestGetIntoSyncReads exercises the SyncReader fast path: with inline
// reads enabled on the MemDevice, GetInto must return the same data and
// count the same device reads, without touching the event machinery.
func TestGetIntoSyncReads(t *testing.T) {
	k := sim.New()
	defer k.Close()
	dev := flashsim.NewMemDevice(k, 4<<20)
	s := NewStore(Config{
		Env: k, Device: dev, DevID: 0, NumSegments: 16,
		KeyLogBytes: 1 << 20, ValLogBytes: 2 << 20, SwapLogBytes: 256 << 10,
	})
	runStore(k, func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("k%d", i))
			if _, err := s.Put(p, key, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		dev.SetSyncReads(true)
		readsBefore := dev.Stats().Reads
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("k%d", i))
			got, st, err := s.GetInto(p, key, nil)
			if err != nil {
				t.Fatalf("get %q: %v", key, err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 32)) {
				t.Fatalf("get %q: wrong value", key)
			}
			if st.Reads != 2 {
				t.Fatalf("get %q: %d reads, want 2 (segment + value)", key, st.Reads)
			}
		}
		if got := dev.Stats().Reads - readsBefore; got != 80 {
			t.Fatalf("device reads = %d, want 80", got)
		}
		dev.SetSyncReads(false)
		if _, _, err := s.GetInto(p, []byte("k0"), nil); err != nil {
			t.Fatalf("async fallback: %v", err)
		}
	})
}

// TestVerifyBucketBlockMatchesUnmarshal checks that checkBlock accepts and
// rejects exactly the blocks UnmarshalBucket does — flipped bytes anywhere,
// and resealed blocks whose item count overruns the layout — and that
// findItem finds what the parsed bucket's Find finds, with the same scan
// count.
func TestVerifyBucketBlockMatchesUnmarshal(t *testing.T) {
	b := &Bucket{SegID: 3, ChainLen: 1, Seq: 9}
	for i := 0; i < 5; i++ {
		b.Items = append(b.Items, Item{
			Key: []byte(fmt.Sprintf("key-%d", i)), ValLen: 10, ValOff: int64(i * 64), SSDID: 1,
		})
	}
	blk := make([]byte, 512)
	if err := b.Marshal(blk); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := checkBlock(blk); err != nil {
		t.Fatalf("check valid block: %v", err)
	}
	got, at, it, scanned := findItem(blk, len(blk), []byte("key-3"))
	if got == nil || scanned != 4 || it.ValOff != 3*64 || string(keyAt(got, at)) != "key-3" {
		t.Fatalf("find: at=%d it=%+v scanned=%d", at, it, scanned)
	}
	if got, _, it, scanned := findItem(blk, len(blk), []byte("nope")); got != nil || !it.Deleted() || scanned != 5 {
		t.Fatalf("find miss: scanned=%d", scanned)
	}
	if end, err := eachItem(blk, nil); err != nil || end != bucketHdrSize+b.itemsBytes() {
		t.Fatalf("eachItem end = %d (%v), want %d", end, err, bucketHdrSize+b.itemsBytes())
	}
	for _, flip := range []int{0, 9, 50, 200} {
		bad := append([]byte(nil), blk...)
		bad[flip] ^= 0x40
		vErr := checkBlock(bad)
		_, uErr := UnmarshalBucket(bad)
		if (vErr == nil) != (uErr == nil) {
			t.Fatalf("flip byte %d: checkBlock %v, UnmarshalBucket %v", flip, vErr, uErr)
		}
	}
	for _, count := range []uint16{32, 40, 0xffff} {
		bad := append([]byte(nil), blk...)
		binary.LittleEndian.PutUint16(bad[12:], count)
		sealBucketBlock(bad, 3, 1, 0, 0, 0, 9)
		vErr := checkBlock(bad)
		_, uErr := UnmarshalBucket(bad)
		if vErr == nil || uErr == nil {
			t.Fatalf("item count %d: checkBlock %v, UnmarshalBucket %v", count, vErr, uErr)
		}
	}
}
