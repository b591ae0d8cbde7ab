package server_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/sim"
	"leed/internal/transport"
)

// newTestEngine builds a pure-device engine (no platform node): two
// in-memory drives, two partitions each. slow interposes a latency shim
// with tens-of-ms service times so requests stay observably in flight —
// the drain test needs a window it can act inside.
func newTestEngine(env runtime.Env, slow bool) *engine.Engine {
	const devCap = 8 << 20
	mk := func() flashsim.Device {
		var d flashsim.Device = flashsim.NewMemDevice(env, devCap)
		if slow {
			d = flashsim.NewLatencyShim(env, d, flashsim.Spec{
				Capacity: devCap, Parallelism: 16,
				ReadBase: 20 * runtime.Millisecond, WriteBase: 50 * runtime.Millisecond,
				ReadBW: 1 << 40, WriteBW: 1 << 40,
			})
		}
		return d
	}
	return engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{mk(), mk()},
		PartitionsPerSSD: 2,
		Geometry:         core.PlanPartition(2<<20, 16, 256, core.PlanOpts{}),
		PartitionBytes:   2 << 20,
	})
}

func testKey(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

func testVal(i int) []byte {
	v := make([]byte, 64)
	for j := range v {
		v[j] = byte(i*31 + j)
	}
	return v
}

// TestServerInprocSim runs the full stack — client, transport, server,
// engine, store, device — on the deterministic sim kernel.
func TestServerInprocSim(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, false)
	srv := server.New(server.Config{Env: k, Engine: eng})
	inp := transport.NewInproc(k, transport.InprocOptions{})
	srv.Serve(inp)

	checked := false
	k.Go("client", func(p *sim.Proc) {
		conn, err := inp.Dial(p)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		cl := server.NewClient(k, conn, 8)
		for i := 0; i < 40; i++ {
			if err := cl.Put(p, testKey(i), testVal(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		for i := 0; i < 40; i++ {
			v, err := cl.Get(p, testKey(i))
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				continue
			}
			if string(v) != string(testVal(i)) {
				t.Errorf("get %d: wrong value", i)
			}
		}
		if err := cl.Del(p, testKey(7)); err != nil {
			t.Errorf("del: %v", err)
		}
		if _, err := cl.Get(p, testKey(7)); err != core.ErrNotFound {
			t.Errorf("get deleted: want ErrNotFound, got %v", err)
		}
		if _, err := cl.Get(p, []byte("never-put")); err != core.ErrNotFound {
			t.Errorf("get missing: want ErrNotFound, got %v", err)
		}
		checked = true
		cl.Close()
		srv.Close()
	})
	k.Run()
	if !checked {
		t.Fatal("client never ran")
	}
}

// TestReconnectsAddNoSeries pins that a connection leaves nothing behind in
// the registry: 200 connect/request/close cycles against one server must
// not grow its series count, or a server whose clients reconnect grows
// every page and scrape without bound.
func TestReconnectsAddNoSeries(t *testing.T) {
	k := sim.New()
	defer k.Close()
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Env: k, Engine: newTestEngine(k, false), Obs: reg})
	inp := transport.NewInproc(k, transport.InprocOptions{})
	srv.Serve(inp)

	cycle := func(p *sim.Proc, i int) {
		conn, err := inp.Dial(p)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		cl := server.NewClient(k, conn, 1)
		if err := cl.Put(p, testKey(i%8), testVal(i)); err != nil {
			t.Errorf("put %d: %v", i, err)
		}
		if _, err := cl.Get(p, testKey(i%8)); err != nil {
			t.Errorf("get %d: %v", i, err)
		}
		cl.Close()
		p.Sleep(runtime.Millisecond) // let the server reap the connection
	}
	var before, after int
	k.Go("client", func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // warm every partition's series
			cycle(p, i)
		}
		before = len(reg.Raw().Hists)
		for i := 0; i < 200; i++ {
			cycle(p, i)
		}
		after = len(reg.Raw().Hists)
		srv.Close()
	})
	k.Run()
	if before == 0 || after != before {
		t.Fatalf("histogram series: %d before 200 reconnects, %d after", before, after)
	}
}

// TestServerGracefulDrain pins the drain contract on the wallclock backend:
// every request in flight when Close lands still completes successfully, a
// request arriving during the drain is refused (error, not silence), a new
// Dial after the drain is rejected, and double-Close — including from a
// raw goroutine racing the in-task Close — is safe.
func TestServerGracefulDrain(t *testing.T) {
	env := wallclock.New()
	eng := newTestEngine(env, true)
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		Env: env, Engine: eng, Obs: reg,
		SamplePeriod: 5 * runtime.Millisecond,
	})
	inp := transport.NewInproc(env, transport.InprocOptions{})
	srv.Serve(inp)

	const puts = 16
	inflight := reg.Gauge("leed_server_inflight")
	var okPuts, lateErrs atomic.Int64
	var lateErr atomic.Value

	env.Spawn("driver", func(p runtime.Task) {
		connA, err := inp.Dial(p)
		if err != nil {
			t.Errorf("dial A: %v", err)
			return
		}
		clA := server.NewClient(env, connA, puts+1)
		connB, err := inp.Dial(p)
		if err != nil {
			t.Errorf("dial B: %v", err)
			return
		}
		server.NewClient(env, connB, 4) // idle conn: drain must close it

		evs := make([]runtime.Event, 0, puts)
		for i := 0; i < puts; i++ {
			i := i
			ev := env.MakeEvent()
			evs = append(evs, ev)
			env.Spawn("put", func(q runtime.Task) {
				defer ev.Fire(nil)
				if err := clA.Put(q, testKey(i), testVal(i)); err == nil {
					okPuts.Add(1)
				}
			})
		}
		env.Spawn("closer", func(q runtime.Task) {
			// Wait until all puts are actually executing: the slow device
			// holds them in flight for tens of ms, so this settles fast.
			deadline := q.Now() + 5*runtime.Second
			for inflight.Load() < puts && q.Now() < deadline {
				q.Sleep(runtime.Millisecond)
			}
			srv.Close()
			srv.Close() // idempotent in-task
			// A request issued mid-drain must be answered with an error
			// (NACK while the conn drains, or closed), never hang.
			q.Sleep(10 * runtime.Millisecond)
			if _, err := clA.Get(q, testKey(0)); err != nil {
				lateErrs.Add(1)
				lateErr.Store(err)
			}
		})
		runtime.WaitAll(p, evs...)
	})
	env.Wait()

	if got := okPuts.Load(); got != puts {
		t.Errorf("drain lost in-flight requests: %d of %d puts succeeded", got, puts)
	}
	if lateErrs.Load() != 1 {
		t.Errorf("request issued mid-drain was not refused")
	} else {
		// The refusal must be the explicit drain NACK, typed so a retry
		// policy can classify it as safe-to-retry — not a generic
		// connection error.
		ef, ok := lateErr.Load().(*rpcproto.ErrorFrame)
		if !ok || ef.Code != rpcproto.StatusNack {
			t.Errorf("mid-drain refusal: want *rpcproto.ErrorFrame(StatusNack), got %v", lateErr.Load())
		}
	}

	var dialErr error
	env.Spawn("post-drain", func(p runtime.Task) {
		_, dialErr = inp.Dial(p)
	})
	env.Wait()
	if dialErr != transport.ErrClosed {
		t.Errorf("post-drain dial: want ErrClosed, got %v", dialErr)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("post-drain Close: %v", err)
	}
}

// transcript is what a workload observed: per key, the final GET outcome,
// plus per-phase status tallies. Two transports serving the same seeded
// workload must produce identical transcripts.
type transcript struct {
	gets map[string]string
	puts int
	dels int
}

// runWorkload drives the seeded workload through dial over nIssuers
// pipelined issuer tasks sharing one connection: put every key, delete
// every fifth, read all back. Phases are barriers; inside a phase requests
// pipeline freely, so the transcript is order-independent by construction
// (disjoint keys) and pins that pipelining doesn't corrupt routing.
func runWorkload(t *testing.T, env *wallclock.Env, srv *server.Server, dial func(p runtime.Task) (transport.Conn, error)) transcript {
	const keys = 120
	const nIssuers = 8
	tx := transcript{gets: make(map[string]string)}

	env.Spawn("workload", func(p runtime.Task) {
		conn, err := dial(p)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		cl := server.NewClient(env, conn, 32)
		phase := func(name string, fn func(q runtime.Task, i int)) {
			evs := make([]runtime.Event, 0, nIssuers)
			for w := 0; w < nIssuers; w++ {
				w := w
				ev := env.MakeEvent()
				evs = append(evs, ev)
				env.Spawn(name, func(q runtime.Task) {
					defer ev.Fire(nil)
					for i := w; i < keys; i += nIssuers {
						fn(q, i)
					}
				})
			}
			runtime.WaitAll(p, evs...)
		}
		phase("put", func(q runtime.Task, i int) {
			if err := cl.Put(q, testKey(i), testVal(i)); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			tx.puts++
		})
		phase("del", func(q runtime.Task, i int) {
			if i%5 != 0 {
				return
			}
			if err := cl.Del(q, testKey(i)); err != nil {
				t.Errorf("del %d: %v", i, err)
				return
			}
			tx.dels++
		})
		phase("get", func(q runtime.Task, i int) {
			v, err := cl.Get(q, testKey(i))
			switch err {
			case nil:
				tx.gets[string(testKey(i))] = fmt.Sprintf("ok:%x", v)
			case core.ErrNotFound:
				tx.gets[string(testKey(i))] = "notfound"
			default:
				t.Errorf("get %d: %v", i, err)
			}
		})
		cl.Close()
		// Close the server from in here so env.Wait below has a reason to
		// return: the accept task and sampler exit only on drain.
		srv.Close()
	})
	env.Wait()
	return tx
}

// TestTransportEquivalence pins the tentpole property: the same seeded
// workload over the in-process transport and over real TCP sockets
// produces identical KV transcripts. Run under -race this also exercises
// the TCP bridge goroutines against the runtime contract.
func TestTransportEquivalence(t *testing.T) {
	run := func(useTCP bool) transcript {
		env := wallclock.New()
		eng := newTestEngine(env, false)
		srv := server.New(server.Config{Env: env, Engine: eng, Obs: obs.NewRegistry()})
		var dial func(p runtime.Task) (transport.Conn, error)
		if useTCP {
			l, err := transport.ListenTCP(env, "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			srv.Serve(l)
			addr := l.Addr()
			dial = func(p runtime.Task) (transport.Conn, error) { return transport.DialTCP(env, addr) }
		} else {
			inp := transport.NewInproc(env, transport.InprocOptions{})
			srv.Serve(inp)
			dial = inp.Dial
		}
		return runWorkload(t, env, srv, dial)
	}

	inproc := run(false)
	tcp := run(true)

	if inproc.puts != tcp.puts || inproc.dels != tcp.dels {
		t.Fatalf("phase counts differ: inproc %d/%d tcp %d/%d",
			inproc.puts, inproc.dels, tcp.puts, tcp.dels)
	}
	if len(inproc.gets) != len(tcp.gets) {
		t.Fatalf("transcript sizes differ: %d vs %d", len(inproc.gets), len(tcp.gets))
	}
	for k, v := range inproc.gets {
		if tcp.gets[k] != v {
			t.Fatalf("transcript diverges at %s: inproc %q tcp %q", k, v, tcp.gets[k])
		}
	}
}
