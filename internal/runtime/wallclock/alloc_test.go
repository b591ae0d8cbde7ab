//go:build !race

package wallclock

import (
	"testing"

	"leed/internal/runtime"
)

// TestZeroDelayCompletionAllocFree pins the cost model the store's write
// path is built on: queuing a bound callback with After(0) and waiting on
// the event it fires allocates nothing — no timer, no goroutine, no closure,
// no waiter list. (Race-detector instrumentation allocates, hence the tag.)
func TestZeroDelayCompletionAllocFree(t *testing.T) {
	env := New()
	const runs = 200
	evs := make([]runtime.Event, runs+8)
	for i := range evs {
		evs[i] = env.MakeEvent()
	}
	i := 0
	fire := func() { evs[i].Fire(nil) }
	var allocs float64
	env.Spawn("waiter", func(tk runtime.Task) {
		round := func() {
			env.After(0, fire)
			tk.Wait(evs[i])
			i++
		}
		for w := 0; w < 4; w++ { // size both run-queue buffers
			round()
		}
		allocs = testing.AllocsPerRun(runs, round)
	})
	env.Wait()
	if allocs != 0 {
		t.Fatalf("After(0) + Wait = %.2f allocs/op, want 0", allocs)
	}
}
