package server_test

import (
	"errors"
	"strings"
	"testing"

	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/server"
	"leed/internal/sim"
	"leed/internal/transport"
)

// TestDeadlineLateResponseIgnored pins satellite behavior: a request that
// outlives its deadline returns ErrDeadlineExceeded, and when the server's
// response eventually lands it is silently discarded — not delivered to a
// later request, not a client poison. Sim kernel, so the timing is exact:
// the slow engine takes 20ms per read against a 5ms deadline.
func TestDeadlineLateResponseIgnored(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, true)
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
		if err := cl.Put(p, testKey(1), testVal(1)); err != nil {
			t.Errorf("seed put: %v", err)
			return
		}
		_, err = cl.DoDeadline(p, &rpcproto.Request{Op: rpcproto.OpGet, Key: testKey(1)},
			5*runtime.Millisecond)
		if !errors.Is(err, server.ErrDeadlineExceeded) {
			t.Errorf("fast deadline: want ErrDeadlineExceeded, got %v", err)
		}
		// Let the timed-out request's response arrive (service time 20ms)
		// and hit the receiver's unknown-ID path.
		p.Sleep(100 * runtime.Millisecond)
		// The client must still be fully usable, and the late response must
		// not have been delivered to anyone.
		v, err := cl.Get(p, testKey(1))
		if err != nil || string(v) != string(testVal(1)) {
			t.Errorf("get after late response: v=%q err=%v", v, err)
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

// TestOverloadNack pins overload shedding: past MaxInflightTotal the server
// answers immediately with a typed OverloadFrame carrying a backoff hint,
// and the shed request never executes.
func TestOverloadNack(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, true)
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		Env: k, Engine: eng, Obs: reg, MaxInflightTotal: 1,
	})
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
		first := k.MakeEvent()
		k.Go("slow-put", func(q *sim.Proc) {
			defer first.Fire(nil)
			if err := cl.Put(q, testKey(1), testVal(1)); err != nil {
				t.Errorf("first put: %v", err)
			}
		})
		// Give the first PUT time to be admitted (service time 50ms), then
		// collide with the total-inflight cap.
		p.Sleep(5 * runtime.Millisecond)
		_, err = cl.Do(p, &rpcproto.Request{Op: rpcproto.OpPut, Key: testKey(2), Value: testVal(2)})
		var of *rpcproto.OverloadFrame
		if !errors.As(err, &of) {
			t.Errorf("second put: want *rpcproto.OverloadFrame, got %v", err)
		} else if of.RetryAfterNS <= 0 {
			t.Errorf("overload NACK missing backoff hint: %+v", of)
		}
		p.Wait(first)
		if got := reg.Counter("leed_server_overloads_total").Load(); got != 1 {
			t.Errorf("leed_server_overloads_total = %d, want 1", got)
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

// TestPanicIsolation: a request whose handler panics is answered with an
// ErrorFrame and costs only its own connection — the server keeps serving
// other connections, and the panic is counted. A batch is one request: a
// panic on any item, including one a write batch runs on a helper task,
// answers the whole batch that way.
func TestPanicIsolation(t *testing.T) {
	boom, survivor := []byte("boom"), []byte("survivor")
	// otherParts returns one stored-key candidate per partition that does
	// not own "boom", so a write batch led by them runs "boom" on a helper.
	otherParts := func(srv *server.Server) [][]byte {
		var keys [][]byte
		for pid, ks := range keysPerPartition(srv, 1) {
			if pid != srv.Route(boom) {
				keys = append(keys, ks[0])
			}
		}
		return keys
	}
	vals := func(keys [][]byte) [][]byte {
		vs := make([][]byte, len(keys))
		for i := range vs {
			vs[i] = testVal(i)
		}
		return vs
	}
	cases := []struct {
		name  string
		issue func(p runtime.Task, srv *server.Server, cl *server.Client) error
	}{
		{"put", func(p runtime.Task, _ *server.Server, cl *server.Client) error {
			return cl.Put(p, boom, testVal(2))
		}},
		{"multiget", func(p runtime.Task, srv *server.Server, cl *server.Client) error {
			_, err := cl.MultiGet(p, append(otherParts(srv), boom), nil)
			return err
		}},
		{"multiput-helper", func(p runtime.Task, srv *server.Server, cl *server.Client) error {
			keys := append(otherParts(srv), boom)
			_, err := cl.MultiPut(p, keys, vals(keys), nil)
			return err
		}},
		{"multiput-worker", func(p runtime.Task, srv *server.Server, cl *server.Client) error {
			keys := append([][]byte{boom}, otherParts(srv)...)
			_, err := cl.MultiPut(p, keys, vals(keys), nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			defer k.Close()
			eng := newTestEngine(k, false)
			reg := obs.NewRegistry()
			cfg := server.Config{Env: k, Engine: eng, Obs: reg}
			server.SetTestHook(&cfg, func(req *rpcproto.Request) {
				if string(req.Key) == string(boom) {
					panic("injected handler panic")
				}
			})
			srv := server.New(cfg)
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
				if err := cl.Put(p, survivor, testVal(1)); err != nil {
					t.Errorf("pre-panic put: %v", err)
				}
				err = tc.issue(p, srv, cl)
				var ef *rpcproto.ErrorFrame
				if !errors.As(err, &ef) || ef.Code != rpcproto.StatusErr ||
					!strings.Contains(ef.Msg, "panic") {
					t.Errorf("panicked request: want ErrorFrame(StatusErr, panic...), got %v", err)
				}
				// The poisoned connection is closed by the server; a fresh one works.
				conn2, err := inp.Dial(p)
				if err != nil {
					t.Errorf("dial after panic: %v", err)
					return
				}
				cl2 := server.NewClient(k, conn2, 8)
				if v, err := cl2.Get(p, survivor); err != nil || string(v) != string(testVal(1)) {
					t.Errorf("server state after panic: v=%q err=%v", v, err)
				}
				if got := reg.Counter("leed_server_panics_total").Load(); got != 1 {
					t.Errorf("leed_server_panics_total = %d, want 1", got)
				}
				checked = true
				cl.Close()
				cl2.Close()
				srv.Close()
			})
			k.Run()
			if !checked {
				t.Fatal("client never ran")
			}
		})
	}
}

// TestIdleReaping: a connection with no traffic for IdleTimeout is closed
// by the server and counted.
func TestIdleReaping(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, false)
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		Env: k, Engine: eng, Obs: reg, IdleTimeout: 30 * runtime.Millisecond,
	})
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
		if err := cl.Put(p, testKey(1), testVal(1)); err != nil {
			t.Errorf("put: %v", err)
		}
		p.Sleep(100 * runtime.Millisecond) // well past IdleTimeout
		if _, err := cl.Get(p, testKey(1)); err == nil {
			t.Errorf("get on reaped connection succeeded")
		}
		if got := reg.Counter("leed_server_reaped_total").Load(); got == 0 {
			t.Errorf("leed_server_reaped_total = 0, want >= 1")
		}
		checked = true
		srv.Close()
	})
	k.Run()
	if !checked {
		t.Fatal("client never ran")
	}
}

// TestReliableRetryOnOverload: overload NACKs are provably-safe failures,
// so the ReliableClient retries even PUTs through them; under a tiny
// MaxInflightTotal every write still lands.
func TestReliableRetryOnOverload(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, true)
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		Env: k, Engine: eng, Obs: reg, MaxInflightTotal: 1,
		OverloadRetryHint: 20 * runtime.Millisecond,
	})
	inp := transport.NewInproc(k, transport.InprocOptions{})
	srv.Serve(inp)

	rc := server.NewReliableClient(server.ReliableConfig{
		Env:  k,
		Dial: inp.Dial,
		Obs:  reg, Seed: 1,
		Depth: 8, MaxAttempts: 10,
		BackoffBase: 5 * runtime.Millisecond,
	})
	const writers = 4
	oks := 0
	evs := make([]runtime.Event, 0, writers)
	for w := 0; w < writers; w++ {
		w := w
		ev := k.MakeEvent()
		evs = append(evs, ev)
		k.Go("writer", func(p *sim.Proc) {
			defer ev.Fire(nil)
			if err := rc.Put(p, testKey(w), testVal(w)); err != nil {
				t.Errorf("put %d: %v", w, err)
				return
			}
			oks++
		})
	}
	k.Go("closer", func(p *sim.Proc) {
		runtime.WaitAll(p, evs...)
		st := rc.Stats()
		if st.Overloads == 0 || st.Retries == 0 {
			t.Errorf("expected overload NACKs and retries, got %+v", st)
		}
		if got := reg.Counter("leed_client_retries_total").Load(); got != st.Retries {
			t.Errorf("leed_client_retries_total = %d, stats say %d", got, st.Retries)
		}
		rc.Close()
		srv.Close()
	})
	k.Run()
	if oks != writers {
		t.Fatalf("%d of %d writes landed", oks, writers)
	}
}

// TestReliablePutAmbiguousNotRetried: a deadline expiry is ambiguous — the
// server may have executed the write — so a PUT must NOT be reissued; the
// error surfaces to the caller after exactly one attempt.
func TestReliablePutAmbiguousNotRetried(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, true) // 50ms writes
	srv := server.New(server.Config{Env: k, Engine: eng})
	inp := transport.NewInproc(k, transport.InprocOptions{})
	srv.Serve(inp)

	checked := false
	k.Go("client", func(p *sim.Proc) {
		rc := server.NewReliableClient(server.ReliableConfig{
			Env: k, Dial: inp.Dial, Seed: 1,
			Deadline: 5 * runtime.Millisecond, MaxAttempts: 4,
		})
		err := rc.Put(p, testKey(1), testVal(1))
		if !errors.Is(err, server.ErrDeadlineExceeded) {
			t.Errorf("ambiguous put: want ErrDeadlineExceeded, got %v", err)
		}
		st := rc.Stats()
		if st.Attempts != 1 || st.Retries != 0 {
			t.Errorf("ambiguous put was retried: %+v", st)
		}
		if st.Timeouts != 1 {
			t.Errorf("timeout not counted: %+v", st)
		}
		// A GET under the same deadline IS retried (idempotent).
		_, err = rc.Get(p, testKey(1))
		if !errors.Is(err, server.ErrDeadlineExceeded) {
			t.Errorf("get: want ErrDeadlineExceeded after exhausting retries, got %v", err)
		}
		if st2 := rc.Stats(); st2.Retries != 3 {
			t.Errorf("idempotent get retries = %d, want 3 (MaxAttempts-1)", st2.Retries)
		}
		checked = true
		rc.Close()
		srv.Close()
	})
	k.Run()
	if !checked {
		t.Fatal("client never ran")
	}
}

// TestReliableReconnect: a dead connection is replaced transparently — the
// next idempotent call redials and succeeds, and the reconnect is counted.
func TestReliableReconnect(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, false)
	srv := server.New(server.Config{Env: k, Engine: eng})
	inp := transport.NewInproc(k, transport.InprocOptions{})
	srv.Serve(inp)

	var conns []transport.Conn
	dial := func(t runtime.Task) (transport.Conn, error) {
		c, err := inp.Dial(t)
		if err == nil {
			conns = append(conns, c)
		}
		return c, err
	}
	checked := false
	k.Go("client", func(p *sim.Proc) {
		rc := server.NewReliableClient(server.ReliableConfig{
			Env: k, Dial: dial, Seed: 1,
			BackoffBase: runtime.Millisecond,
		})
		if err := rc.Put(p, testKey(1), testVal(1)); err != nil {
			t.Errorf("put: %v", err)
		}
		// Kill the connection under the client, as a crashed server would.
		conns[0].Close()
		p.Sleep(runtime.Millisecond) // let the receiver observe the death
		v, err := rc.Get(p, testKey(1))
		if err != nil || string(v) != string(testVal(1)) {
			t.Errorf("get after conn death: v=%q err=%v", v, err)
		}
		st := rc.Stats()
		if st.Reconnects != 1 || len(conns) != 2 {
			t.Errorf("reconnect not transparent: stats=%+v dials=%d", st, len(conns))
		}
		checked = true
		rc.Close()
		srv.Close()
	})
	k.Run()
	if !checked {
		t.Fatal("client never ran")
	}
}

// TestBreakerOpensAndRecovers walks the circuit breaker through its whole
// state machine: consecutive dial failures open it, an open breaker fails
// fast without touching the network, the cooloff admits a single half-open
// probe, and a probe success closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	k := sim.New()
	defer k.Close()
	eng := newTestEngine(k, false)
	srv := server.New(server.Config{Env: k, Engine: eng})
	inp := transport.NewInproc(k, transport.InprocOptions{})
	srv.Serve(inp)

	reg := obs.NewRegistry()
	down := true
	dials := 0
	dial := func(t runtime.Task) (transport.Conn, error) {
		dials++
		if down {
			return nil, errors.New("connection refused")
		}
		return inp.Dial(t)
	}
	checked := false
	k.Go("client", func(p *sim.Proc) {
		rc := server.NewReliableClient(server.ReliableConfig{
			Env: k, Dial: dial, Obs: reg, Seed: 1,
			MaxAttempts: 6, BackoffBase: runtime.Millisecond,
			BreakerThreshold: 3, BreakerCooloff: 50 * runtime.Millisecond,
		})
		// Three dial failures trip the breaker; the call then fails fast.
		if _, err := rc.Get(p, testKey(1)); !errors.Is(err, server.ErrBreakerOpen) {
			t.Errorf("get against downed server: want ErrBreakerOpen, got %v", err)
		}
		if dials != 3 {
			t.Errorf("dials before breaker opened = %d, want 3", dials)
		}
		if rc.BreakerState() != 1 {
			t.Errorf("breaker state = %d, want 1 (open)", rc.BreakerState())
		}
		if got := reg.Gauge("leed_breaker_state").Load(); got != 1 {
			t.Errorf("leed_breaker_state = %d, want 1", got)
		}
		// While open: instant fast-fail, no dial.
		before := dials
		if _, err := rc.Get(p, testKey(1)); !errors.Is(err, server.ErrBreakerOpen) {
			t.Errorf("open breaker: want ErrBreakerOpen, got %v", err)
		}
		if dials != before {
			t.Errorf("open breaker dialed anyway (%d -> %d)", before, dials)
		}
		// Past the cooloff with the server healthy again: the half-open
		// probe goes through and closes the breaker.
		down = false
		p.Sleep(60 * runtime.Millisecond)
		seedDone := k.MakeEvent()
		k.Go("seed", func(q *sim.Proc) {
			defer seedDone.Fire(nil)
			if err := rc.Put(q, testKey(1), testVal(1)); err != nil {
				t.Errorf("put after heal: %v", err)
			}
		})
		p.Wait(seedDone)
		if v, err := rc.Get(p, testKey(1)); err != nil || string(v) != string(testVal(1)) {
			t.Errorf("get after heal: v=%q err=%v", v, err)
		}
		if rc.BreakerState() != 0 {
			t.Errorf("breaker state after recovery = %d, want 0 (closed)", rc.BreakerState())
		}
		if st := rc.Stats(); st.FastFails == 0 {
			t.Errorf("fast-fails not counted: %+v", st)
		}
		checked = true
		rc.Close()
		srv.Close()
	})
	k.Run()
	if !checked {
		t.Fatal("client never ran")
	}
}
