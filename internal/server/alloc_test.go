package server_test

import (
	"testing"

	"leed/internal/bench"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// TestServeGetAllocBudget pins the end-to-end per-request allocation budget
// at the unit-test level (the benchmark + `leedctl hotpath` CI gate measure
// the same path with more samples): a steady-state served GET over the
// inproc transport must stay within bench.GetAllocBudget allocations,
// counted across every goroutine involved — client, transport, server
// workers, engine, store, device.
func TestServeGetAllocBudget(t *testing.T) {
	dst := make([]byte, 0, 256)
	got := servedAllocs(t, func(p runtime.Task, cl *server.Client, key []byte) (err error) {
		dst, err = cl.GetInto(p, key, dst[:0])
		return err
	})
	if got > bench.GetAllocBudget {
		t.Errorf("served GET = %.1f allocs/op, budget %d", got, bench.GetAllocBudget)
	}
}

// TestServePutAllocBudget is the write path's gate: value-entry and segment
// images, parsed buckets, completion events and the group-commit fan-out
// still allocate, and bench.PutAllocBudget is the ceiling they may not grow
// past.
func TestServePutAllocBudget(t *testing.T) {
	val := testVal(8)
	got := servedAllocs(t, func(p runtime.Task, cl *server.Client, key []byte) error {
		return cl.Put(p, key, val)
	})
	if got > bench.PutAllocBudget {
		t.Errorf("served PUT = %.1f allocs/op, budget %d", got, bench.PutAllocBudget)
	}
}

// servedAllocs builds the full serve stack over the inproc transport and
// in-memory devices with inline reads, preloads eight keys, warms every pool
// and free list with 500 calls of op over those keys, and returns op's
// steady-state allocations per call.
func servedAllocs(t *testing.T, op func(p runtime.Task, cl *server.Client, key []byte) error) float64 {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the serve path")
	}
	env := wallclock.New()
	const devCap = 8 << 20
	mk := func() flashsim.Device {
		d := flashsim.NewMemDevice(env, devCap)
		d.SetSyncReads(true)
		return d
	}
	eng := engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{mk(), mk()},
		PartitionsPerSSD: 2,
		Geometry:         core.PlanPartition(2<<20, 16, 256, core.PlanOpts{}),
		PartitionBytes:   2 << 20,
	})
	srv := server.New(server.Config{Env: env, Engine: eng})
	inp := transport.NewInproc(env, transport.InprocOptions{})
	srv.Serve(inp)

	var got float64
	env.Spawn("alloc-driver", func(p runtime.Task) {
		conn, err := inp.Dial(p)
		if err != nil {
			t.Errorf("dial: %v", err)
			srv.Close()
			return
		}
		cl := server.NewClient(env, conn, 16)
		defer func() {
			cl.Close()
			srv.Close()
		}()
		var keys [8][]byte
		for i := range keys {
			keys[i] = testKey(i)
			if err := cl.Put(p, keys[i], testVal(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		i := 0
		call := func() {
			if err := op(p, cl, keys[i%len(keys)]); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
			i++
		}
		for i < 500 {
			call()
		}
		got = testing.AllocsPerRun(300, call)
	})
	env.Wait()
	return got
}
