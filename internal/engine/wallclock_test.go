package engine

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"testing"

	"leed/internal/core"
	"leed/internal/flashsim"
	"leed/internal/platform"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
)

// newEnvEngine builds the test engine on an arbitrary runtime backend; it is
// newTestEngine generalized over the seam.
func newEnvEngine(env runtime.Env) *Engine {
	node := platform.NewNode(env, platform.Stingray(), 2, 64<<20, 1)
	g := core.Geometry{
		NumSegments:  256,
		KeyLogBytes:  4 << 20,
		ValLogBytes:  8 << 20,
		SwapLogBytes: 2 << 20,
	}
	return New(Config{
		Env:              env,
		Node:             node,
		PartitionsPerSSD: 2,
		Geometry:         g,
		PartitionBytes:   16 << 20,
	})
}

// engineClientOps is one client's deterministic sequence against one
// partition: puts, overwrites, and deletes over a small key range.
func engineClientOps(e *Engine, p runtime.Task, t *testing.T, client, pid, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		key := []byte(fmt.Sprintf("c%d-key-%02d", client, i%20))
		switch i % 5 {
		case 0, 1, 2:
			val := []byte(fmt.Sprintf("c%d-val-%d", client, i))
			if _, _, err := e.Execute(p, pid, rpcproto.OpPut, key, val); err != nil {
				t.Errorf("client %d put: %v", client, err)
			}
		case 3:
			if _, _, err := e.Execute(p, pid, rpcproto.OpGet, key, nil); err != nil && err != core.ErrNotFound {
				t.Errorf("client %d get: %v", client, err)
			}
		case 4:
			if _, _, err := e.Execute(p, pid, rpcproto.OpDel, key, nil); err != nil && err != core.ErrNotFound {
				t.Errorf("client %d del: %v", client, err)
			}
		}
	}
}

// engineContents dumps every partition's KV contents, sorted.
func engineContents(e *Engine, p runtime.Task, t *testing.T) []string {
	t.Helper()
	var kv []string
	for pid := 0; pid < e.NumPartitions(); pid++ {
		if err := e.Partition(pid).Store.Range(p, func(key, val []byte) bool {
			kv = append(kv, fmt.Sprintf("p%d/%s=%s", pid, key, val))
			return true
		}); err != nil {
			t.Errorf("range partition %d: %v", pid, err)
		}
	}
	sort.Strings(kv)
	return kv
}

// TestEngineEquivalenceSimVsWallclock drives the full engine path (admission
// tokens, core gates, SSD model, background compaction) with the same
// per-client sequences on both backends; clients use disjoint keys, so the
// final contents must match exactly even though wallclock interleaving is
// scheduler-dependent.
func TestEngineEquivalenceSimVsWallclock(t *testing.T) {
	const clients = 8
	const opsPer = 60

	// Sim run: 8 procs through the engine on the kernel.
	k := sim.New()
	se := newEnvEngine(k)
	se.Start()
	for c := 0; c < clients; c++ {
		c := c
		k.Go("client", func(p *sim.Proc) {
			engineClientOps(se, p, t, c, c%se.NumPartitions(), opsPer)
		})
	}
	k.Run(10 * sim.Second)
	se.Stop()
	var simKV []string
	k.Go("dump", func(p *sim.Proc) { simKV = engineContents(se, p, t) })
	k.Run()
	k.Close()

	// Wall-clock run: 8 goroutine tasks through the identical engine. This
	// is the ≥8-concurrent-client -race acceptance path.
	env := wallclock.New()
	we := newEnvEngine(env)
	we.Start()
	for c := 0; c < clients; c++ {
		c := c
		env.Spawn("client", func(p runtime.Task) {
			engineClientOps(we, p, t, c, c%we.NumPartitions(), opsPer)
		})
	}
	we.Stop() // compactors exit at their next wakeup; clients keep running
	env.Wait()
	var wcKV []string
	env.Spawn("dump", func(p runtime.Task) { wcKV = engineContents(we, p, t) })
	env.Wait()

	if len(simKV) == 0 {
		t.Fatal("sim engine run left no data")
	}
	if fmt.Sprint(simKV) != fmt.Sprint(wcKV) {
		t.Errorf("engine contents diverge between backends:\nsim (%d): %v\nwc  (%d): %v",
			len(simKV), simKV, len(wcKV), wcKV)
	}
}

// TestWallclockWritesKeepCompactorsFed guards the store against wedging by
// way of the scheduler. On a zero-latency device with inline reads a caller
// never blocks its goroutine (every wait is satisfied by the run-queue drain
// it performs on its way into Park), so the compactors' 1 ms poll runs only
// if the runtime yields to timers; starve it and the key log fills, PUTs
// fail with ErrLogFull and the partition is dead. The engine is shaped like
// the benchmark's store-a: MemDevices with inline reads, 2 x 2 partitions,
// planned geometry with the key log enlarged 8x. One caller on one P is the
// benchmark's latency phase, sixteen on two its saturation phase.
func TestWallclockWritesKeepCompactorsFed(t *testing.T) {
	const (
		keys, keyLen, valLen = 10_000, 16, 256
		devices, perDev      = 2, 2
	)
	for _, tc := range []struct{ procs, callers int }{{1, 1}, {2, 16}} {
		t.Run(fmt.Sprintf("procs%d-callers%d", tc.procs, tc.callers), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(tc.procs))
			partBytes := int64(4 << 20)
			for core.PlanPartition(partBytes, keyLen, valLen, core.PlanOpts{}).ObjectBudget < keys/(devices*perDev)*8 {
				partBytes += 256 << 10
			}
			geo := core.PlanPartition(partBytes, keyLen, valLen, core.PlanOpts{})
			grow := 7 * geo.KeyLogBytes
			geo.KeyLogBytes += grow
			partBytes += grow

			env := wallclock.New()
			devs := make([]flashsim.Device, devices)
			for i := range devs {
				d := flashsim.NewMemDevice(env, partBytes*perDev)
				d.SetSyncReads(true)
				devs[i] = d
			}
			eng := New(Config{Env: env, Devices: devs, PartitionsPerSSD: perDev, Geometry: geo, PartitionBytes: partBytes})
			eng.Start()
			handles := eng.Handles()

			// Run for a second, and (for the race detector's sake) until
			// enough PUTs have landed — one 512 B block each, spread evenly
			// — to carry every partition's key log well past its
			// compaction trigger at 3/4 full.
			minPuts := int(5 * geo.KeyLogBytes / 4 / 512 * int64(len(handles)))
			val := make([]byte, valLen)
			keyTab := make([][]byte, keys)
			for i := range keyTab {
				keyTab[i] = []byte(fmt.Sprintf("key-%012d", i))
			}
			var puts, logFull, otherErrs int
			for c := 0; c < tc.callers; c++ {
				rng := rand.New(rand.NewSource(int64(c)))
				env.Spawn("caller", func(p runtime.Task) {
					var dst []byte
					for p.Now() < runtime.Second || puts < minPuts {
						ki := rng.Intn(keys)
						key, h := keyTab[ki], handles[ki%len(handles)]
						var err error
						if rng.Intn(2) == 0 {
							puts++
							_, _, err = h.Execute(p, rpcproto.OpPut, key, val)
						} else {
							dst, _, err = h.ExecuteTracedInto(p, rpcproto.OpGet, key, nil, dst[:0], nil)
						}
						switch {
						case err == nil, errors.Is(err, core.ErrNotFound):
						case errors.Is(err, core.ErrLogFull):
							logFull++
						default:
							otherErrs++
						}
					}
				})
			}
			var compactions int64
			env.Spawn("stop", func(p runtime.Task) {
				for p.Now() < runtime.Second || puts < minPuts {
					p.Sleep(10 * runtime.Millisecond)
				}
				eng.Stop()
				for pid := range handles {
					compactions += eng.Partition(pid).Store.Stats().KeyCompactions
				}
			})
			env.Wait()
			if logFull != 0 || otherErrs != 0 {
				t.Errorf("%d calls failed with ErrLogFull, %d with other errors; want none", logFull, otherErrs)
			}
			if compactions == 0 {
				t.Error("no key-log compaction ran: the compactors were starved")
			}
		})
	}
}
