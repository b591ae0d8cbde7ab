//go:build !race

package flashsim

import (
	"testing"

	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
)

// TestMemDeviceSubmitAllocFree pins the MemDevice completion path: once its
// queue has grown, a submitted op costs nothing beyond the caller's own
// completion event — no closure, no timer. (Race-detector instrumentation
// allocates, hence the tag.)
func TestMemDeviceSubmitAllocFree(t *testing.T) {
	env := wallclock.New()
	d := NewMemDevice(env, 1<<20)
	op := &Op{Kind: OpWrite, Offset: 4096, Data: make([]byte, 512)}
	var allocs float64
	env.Spawn("submit", func(p runtime.Task) {
		round := func() {
			op.Done = env.MakeEvent()
			d.Submit(op)
			p.Wait(op.Done)
		}
		for i := 0; i < 8; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(200, round)
	})
	env.Wait()
	if allocs > 1 {
		t.Fatalf("Submit + Wait = %.2f allocs/op, want at most 1 (the caller's event)", allocs)
	}
}
