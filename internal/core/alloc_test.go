//go:build !race

package core

import (
	"testing"

	"leed/internal/flashsim"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
)

// putUpdateAllocs is what a steady-state PUT that overwrites a key may
// allocate: one completion event per log append and one per device write,
// for the value and for the segment array. The value entry, the segment
// image, the group-commit records and the device's completions are all
// recycled.
const putUpdateAllocs = 4

// TestPutUpdateAllocs pins the in-place write path on the serving
// configuration — wallclock runtime, MemDevice with inline reads — with
// nothing above the store. (Race-detector instrumentation allocates, hence
// the tag.)
func TestPutUpdateAllocs(t *testing.T) {
	env := wallclock.New()
	dev := flashsim.NewMemDevice(env, 8<<20)
	dev.SetSyncReads(true)
	s := NewStore(Config{
		Env: env, Device: dev, NumSegments: 16,
		KeyLogBytes: 2 << 20, ValLogBytes: 4 << 20,
	})
	keys := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie"), []byte("delta")}
	val := make([]byte, 64)
	var allocs float64
	env.Spawn("put", func(p runtime.Task) {
		i := 0
		put := func() {
			if _, err := s.Put(p, keys[i%len(keys)], val); err != nil {
				t.Errorf("put: %v", err)
			}
			i++
		}
		for i < 100 {
			put()
		}
		allocs = testing.AllocsPerRun(300, put)
	})
	env.Wait()
	if allocs > putUpdateAllocs {
		t.Fatalf("steady-state PUT update = %.2f allocs/op, want at most %d", allocs, putUpdateAllocs)
	}
}

// TestCompactionRoundAllocsFlat pins that a compaction round allocates
// nothing per array or value entry in its chunk: the chunk is walked in
// place and its references live in store-owned slices reused from round to
// round. A round over a chunk of 4× as many dead arrays (key log) or dead
// entries (value log) allocates no more than one over the smaller chunk.
func TestCompactionRoundAllocsFlat(t *testing.T) {
	round := func(chunk int64, compact func(s *Store, p runtime.Task) (int64, error)) float64 {
		env := wallclock.New()
		dev := flashsim.NewMemDevice(env, 8<<20)
		dev.SetSyncReads(true)
		s := NewStore(Config{
			Env: env, Device: dev, NumSegments: 16, SubCompactions: 1,
			KeyLogBytes: 2 << 20, ValLogBytes: 4 << 20, CompactChunk: chunk,
		})
		keys := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie"), []byte("delta")}
		val := make([]byte, 64)
		var allocs float64
		env.Spawn("compact", func(p runtime.Task) {
			for i := 0; i < 3000; i++ {
				if _, err := s.Put(p, keys[i%len(keys)], val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			allocs = testing.AllocsPerRun(1, func() {
				if n, err := compact(s, p); err != nil || n < chunk/2 {
					t.Errorf("round reclaimed %d of a %d-byte chunk: %v", n, chunk, err)
				}
			})
		})
		env.Wait()
		return allocs
	}
	for _, log := range []struct {
		name    string
		compact func(s *Store, p runtime.Task) (int64, error)
	}{
		{"key log", (*Store).CompactKeyLog},
		{"value log", (*Store).CompactValueLog},
	} {
		small, big := round(8<<10, log.compact), round(32<<10, log.compact)
		if big > small {
			t.Errorf("%s round: %.0f allocs over an 8 KiB chunk, %.0f over 32 KiB; want no growth", log.name, small, big)
		}
		t.Logf("%s round: %.0f allocs over an 8 KiB chunk, %.0f over 32 KiB", log.name, small, big)
	}
}
