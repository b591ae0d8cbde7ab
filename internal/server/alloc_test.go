package server_test

import (
	"fmt"
	"testing"

	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// getAllocBudget is the pinned end-to-end allocs/op ceiling for a served
// GET over the inproc transport. Lowering it is a ratchet, raising it needs
// a written justification (DESIGN.md §13).
const getAllocBudget = 2

// putAllocBudget is the same ceiling for a served PUT: the measured 4
// allocs/op plus 2. The store edits the segment image in place and recycles
// the value entry, the image and the log's group-commit records, so what
// remains is one completion event per log append and one per device write
// (value and segment each). Compaction's share does not show here: the
// measured window is too short to trigger a round.
const putAllocBudget = 6

// TestServeGetAllocBudget pins the end-to-end per-request allocation budget:
// a steady-state served GET over the inproc transport must stay within
// getAllocBudget allocations, counted across every goroutine involved —
// client, transport, server workers, engine, store, device.
func TestServeGetAllocBudget(t *testing.T) {
	if got := servedAllocs(t, servedGet()); got > getAllocBudget {
		t.Errorf("served GET = %.1f allocs/op, budget %d", got, getAllocBudget)
	}
}

// TestServePutAllocBudget is the write path's gate: the completion events
// of the two log appends and their device writes still allocate, and
// putAllocBudget is the ceiling they may not grow past.
func TestServePutAllocBudget(t *testing.T) {
	if got := servedAllocs(t, servedPut()); got > putAllocBudget {
		t.Errorf("served PUT = %.1f allocs/op, budget %d", got, putAllocBudget)
	}
}

// TestServeMultiGetAllocBudget is the batch path's gate: an 8-key MultiGet
// into a reused result slice may allocate no more than one served GET
// (measured 0). The client copies each value into the buffer the reused
// item already holds, and the server side — routing, execution, response
// framing — allocates nothing, which also pins that a MultiGet runs on the
// connection task: a per-batch worker hand-off or Spawn would blow the
// budget.
func TestServeMultiGetAllocBudget(t *testing.T) {
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = testKey(i)
	}
	if got := servedAllocs(t, servedMultiGet(keys)); got > getAllocBudget {
		t.Errorf("served %d-key MultiGet = %.1f allocs/op, budget %d", len(keys), got, getAllocBudget)
	}
}

// servedAllocs returns op's steady-state allocations per call on the serve
// rig.
func servedAllocs(t *testing.T, op servedOp) float64 {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the serve path")
	}
	var got float64
	serveRig(t, op, func(call func()) { got = testing.AllocsPerRun(300, call) })
	return got
}

// servedOp is one single-op client call against key.
type servedOp func(p runtime.Task, cl *server.Client, key []byte) error

// servedGet reads into a destination buffer reused across calls.
func servedGet() servedOp {
	dst := make([]byte, 0, 256)
	return func(p runtime.Task, cl *server.Client, key []byte) (err error) {
		dst, err = cl.GetInto(p, key, dst[:0])
		return err
	}
}

// servedPut overwrites key with a fixed 64-byte value.
func servedPut() servedOp {
	val := testVal(8)
	return func(p runtime.Task, cl *server.Client, key []byte) error {
		return cl.Put(p, key, val)
	}
}

// servedMultiGet reads every key in one MultiGet into a reused result
// slice, ignoring the rig's key, and checks each item is a hit.
func servedMultiGet(keys [][]byte) servedOp {
	var out []rpcproto.BatchRespItem
	return func(p runtime.Task, cl *server.Client, _ []byte) (err error) {
		out, err = cl.MultiGet(p, keys, out[:0])
		for i := range out {
			if out[i].Status != rpcproto.StatusOK {
				return fmt.Errorf("MultiGet item %d: %v", i, out[i].Status)
			}
		}
		return err
	}
}

// serveRig builds the full serve stack — wallclock env, two in-memory
// devices with synchronous reads (so a cached GET never parks in the async
// completion path), engine, server, inproc transport, client, no tracer —
// preloads eight keys, warms every pool and free list with 500 calls of op
// over those keys, and hands measure a call that runs op on the next key.
// The allocs gates and the Serve benchmarks share it.
func serveRig(tb testing.TB, op servedOp, measure func(call func())) {
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

	env.Spawn("serve-rig", func(p runtime.Task) {
		conn, err := inp.Dial(p)
		if err != nil {
			tb.Errorf("dial: %v", err)
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
				tb.Errorf("put %d: %v", i, err)
				return
			}
		}
		i := 0
		call := func() {
			if err := op(p, cl, keys[i%len(keys)]); err != nil {
				tb.Errorf("call %d: %v", i, err)
			}
			i++
		}
		for i < 500 {
			call()
		}
		measure(call)
	})
	env.Wait()
}
