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
