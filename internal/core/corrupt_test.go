package core

import (
	"errors"
	"fmt"
	"testing"

	"leed/internal/flashsim"
	"leed/internal/sim"
)

// corruptRig is a home store with a swap peer, holding one three-block
// array (segment target) whose keys sit in every block, with one value
// still swapped out, older dead arrays and values of the same segment at
// the logs' heads, and newer arrays of the other segment behind it.
type corruptRig struct {
	k         *sim.Kernel
	dev       *flashsim.MemDevice
	s, helper *Store
	byBlock   [][]byte // a key from each block of the target array
	off       int64    // the target array's key-log offset
	valHead   int64    // where the target's first value entry sits
}

const corruptTarget = 0

func newCorruptRig(t *testing.T) *corruptRig {
	r := &corruptRig{k: sim.New()}
	r.dev = flashsim.NewMemDevice(r.k, 2<<20)
	cfg := func(devID uint8, dev flashsim.Device) Config {
		return Config{
			Env: r.k, Device: dev, DevID: devID, NumSegments: 2, BlockSize: 128, MaxChain: 4,
			KeyLogBytes: 256 << 10, ValLogBytes: 256 << 10, SwapLogBytes: 64 << 10,
			CompactChunk: 64 << 10, MergeOK: func() bool { return false },
		}
	}
	r.s = NewStore(cfg(0, r.dev))
	r.helper = NewStore(cfg(1, flashsim.NewMemDevice(r.k, 2<<20)))
	r.s.AddPeer(r.helper)
	r.helper.AddPeer(r.s)
	var target, other [][]byte
	for i := 0; len(target) < 10 || len(other) < 4; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		if SegmentOf(HashKey(key), 2) == corruptTarget {
			target = append(target, key)
		} else {
			other = append(other, key)
		}
	}
	runStore(r.k, func(p *sim.Proc) {
		put := func(key []byte, v string) {
			if _, err := r.s.Put(p, key, []byte(v)); err != nil {
				t.Fatalf("put %q: %v", key, err)
			}
		}
		for _, key := range target {
			put(key, "v0-"+string(key))
		}
		// Dead values and arrays; one swapped value, then the array home.
		put(target[0], "v1-"+string(target[0]))
		if _, err := r.s.PutSwapped(p, target[1], []byte("swapped"), r.helper); err != nil {
			t.Fatalf("put swapped: %v", err)
		}
		put(target[2], "v1-"+string(target[2]))
		if err := r.s.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		for _, key := range other {
			put(key, "v0-"+string(key))
		}
		if err := r.s.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	off, chain, ok := r.s.segs.Lookup(corruptTarget)
	if _, remote := r.s.segs.Location(corruptTarget); !ok || remote || chain != 3 {
		t.Fatalf("target array: ok %v remote %v chain %d, want a 3-block home array", ok, remote, chain)
	}
	r.off = off
	img := segmentImage(r.s, r.dev, corruptTarget)
	for _, b := range refParse(t, r.s.cfg.BlockSize, img) {
		r.byBlock = append(r.byBlock, b.Items[len(b.Items)-1].Key)
	}
	return r
}

// flip corrupts one item byte in block blk of the target array on flash.
func (r *corruptRig) flip(blk int) {
	at := r.s.keyLog.phys(r.off) + int64(blk*r.s.cfg.BlockSize+bucketHdrSize+3)
	b := make([]byte, 1)
	r.dev.SyncRead(b, at)
	b[0] ^= 0x5a
	r.dev.SyncWrite(b, at)
}

// TestCorruptBlockStopsEveryReader flips a byte in block k of a three-block
// array — or nowhere, as the control — and checks every reader of the
// array: GET of a key in any block, PUT and DEL fail with ErrCorrupt; value
// and key compaction do not move their heads past the array's values or the
// array; merge-back fails; and Recover treats the array as a hole, falling
// back to the segment's previous array and still recovering the arrays
// written after it.
func TestCorruptBlockStopsEveryReader(t *testing.T) {
	readers := []struct {
		name string
		run  func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool)
	}{
		{"get", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			for b, key := range r.byBlock {
				_, _, err := r.s.Get(p, key)
				if corrupt != errors.Is(err, ErrCorrupt) || !corrupt && err != nil {
					t.Errorf("get of block %d's key: %v", b, err)
				}
			}
		}},
		{"put", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			_, err := r.s.Put(p, r.byBlock[1], []byte("new"))
			if corrupt != errors.Is(err, ErrCorrupt) || !corrupt && err != nil {
				t.Errorf("put: %v", err)
			}
		}},
		{"del", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			_, err := r.s.Del(p, r.byBlock[2])
			if corrupt != errors.Is(err, ErrCorrupt) || !corrupt && err != nil {
				t.Errorf("del: %v", err)
			}
		}},
		{"value compaction", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			if _, err := r.s.CompactValueLog(p); err != nil {
				t.Errorf("value compaction: %v", err)
			}
			if head := r.s.valLog.Head(); corrupt && head > r.valHead || !corrupt && head <= r.valHead {
				t.Errorf("value head at %d, the target's first value at %d", head, r.valHead)
			}
		}},
		{"key compaction", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			if _, err := r.s.CompactKeyLog(p); err != nil {
				t.Errorf("key compaction: %v", err)
			}
			if head := r.s.keyLog.Head(); corrupt && head > r.off || !corrupt && head <= r.off {
				t.Errorf("key head at %d, the target array at %d", head, r.off)
			}
		}},
		{"merge-back", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			n, err := r.s.Mergeback(p, 64)
			if corrupt != (err != nil) || !corrupt && n != 1 {
				t.Errorf("merge-back: %d merged, %v", n, err)
			}
		}},
		{"recover", func(t *testing.T, r *corruptRig, p *sim.Proc, corrupt bool) {
			fresh := NewStore(r.s.cfg)
			fresh.AddPeer(r.helper)
			if _, err := fresh.Recover(p); err != nil {
				t.Fatalf("recover: %v", err)
			}
			other := uint32(1 - corruptTarget)
			if off, _, _ := fresh.segs.Lookup(other); off != mustOff(r.s, other) {
				t.Errorf("segment after the target recovered at %d, want %d", off, mustOff(r.s, other))
			}
			off, _, ok := fresh.segs.Lookup(corruptTarget)
			if corrupt && (!ok || off >= r.off) || !corrupt && off != r.off {
				t.Errorf("target recovered at %d (ok %v), the target array at %d", off, ok, r.off)
			}
		}},
	}
	for _, rd := range readers {
		for blk := -1; blk < 3; blk++ {
			name := fmt.Sprintf("%s/block%d", rd.name, blk)
			if blk < 0 {
				name = rd.name + "/control"
			}
			t.Run(name, func(t *testing.T) {
				r := newCorruptRig(t)
				defer r.k.Close()
				if blk >= 0 {
					r.flip(blk)
				}
				runStore(r.k, func(p *sim.Proc) { rd.run(t, r, p, blk >= 0) })
			})
		}
	}
}

func mustOff(s *Store, seg uint32) int64 {
	off, _, _ := s.segs.Lookup(seg)
	return off
}
