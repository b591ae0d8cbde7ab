package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
	"leed/internal/ycsb"
)

// Rigs: one small fixed-size experiment per layer, each calling only that
// layer's public functions, so a layer's own cost has a number that does
// not depend on the layers around it. A traced run ends with them. Each
// runs a fixed iteration count, sized to a few hundred milliseconds
// (-quick runs a tenth of it).

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

func rigKey(i int) []byte { return ycsb.KeyAt(int64(i)) }

func rigValue() []byte {
	v := make([]byte, valLen)
	fillValue(v, 1, 1)
	return v
}

// rigRPCProto: encode + borrow-decode round trips of the single-op codec
// (request and response frame) and of the 32-item batch codec.
func rigRPCProto(ms metricSet, div int) {
	key, val := rigKey(7), rigValue()
	n := 200_000 / div
	var req rpcproto.Request
	var resp rpcproto.Response
	single := func() {
		f := rpcproto.AppendRequestFrame(rpcproto.GetBuf(), &rpcproto.Request{ID: 9, Op: rpcproto.OpPut, Key: key, Value: val})
		_, payload, _, _ := rpcproto.DecodeFrame(f)
		_, _ = req.DecodeBorrow(payload)
		rpcproto.PutBuf(f)
		f = rpcproto.AppendResponseFrame(rpcproto.GetBuf(), &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusOK, Value: val})
		_, payload, _, _ = rpcproto.DecodeFrame(f)
		_, _ = resp.DecodeBorrow(payload)
		rpcproto.PutBuf(f)
	}
	for i := 0; i < 1000; i++ {
		single()
	}
	m0, t0 := mallocs(), time.Now()
	for i := 0; i < n; i++ {
		single()
	}
	el, m1 := time.Since(t0), mallocs()
	ms.put("rpcproto.single_codec_ns", float64(el.Nanoseconds())/float64(n), n)
	ms.put("rpcproto.allocs_per_op", float64(m1-m0)/float64(n), n)

	const items = 32
	bn := 10_000 / div
	keys, vals := make([][]byte, items), make([][]byte, items)
	sts := make([]rpcproto.Status, items)
	for i := range keys {
		keys[i], vals[i] = rigKey(i), val
	}
	var reqItems []rpcproto.BatchItem
	var respItems []rpcproto.BatchRespItem
	t0 = time.Now()
	for i := 0; i < bn; i++ {
		f := rpcproto.AppendBatchReqFrame(rpcproto.GetBuf(), 9, rpcproto.OpPut, keys, vals)
		_, payload, _, _ := rpcproto.DecodeFrame(f)
		_, _, reqItems, _ = rpcproto.DecodeBatchReq(payload, reqItems[:0])
		rpcproto.PutBuf(f)
		f = rpcproto.AppendBatchRespFrame(rpcproto.GetBuf(), 9, sts, vals)
		_, payload, _, _ = rpcproto.DecodeFrame(f)
		_, respItems, _ = rpcproto.DecodeBatchResp(payload, respItems[:0])
		rpcproto.PutBuf(f)
	}
	ms.put("rpcproto.batch32_codec_ns_per_item", float64(time.Since(t0).Nanoseconds())/float64(bn*items), bn*items)
}

// echoRTT times n round trips of a 300-byte frame, one outstanding, between
// a dialing task and an echoing task on the given listener.
func echoRTT(srvEnv, cliEnv *wallclock.Env, ln transport.Listener, dial func(runtime.Task) (transport.Conn, error), n int) (float64, error) {
	frame := func() []byte {
		return rpcproto.AppendRequestFrame(rpcproto.GetBuf(),
			&rpcproto.Request{ID: 1, Op: rpcproto.OpPut, Key: rigKey(1), Value: make([]byte, 300-16-32)})
	}
	srvEnv.Spawn("echo", func(t runtime.Task) {
		c, err := ln.Accept(t)
		if err != nil {
			return
		}
		for {
			f, err := c.Recv(t)
			if err != nil {
				c.Close()
				return
			}
			if c.Send(t, f) != nil {
				return
			}
		}
	})
	var rtt float64
	var rigErr error
	done := make(chan struct{})
	cliEnv.Spawn("ping", func(t runtime.Task) {
		defer close(done)
		c, err := dial(t)
		if err != nil {
			rigErr = err
			return
		}
		defer c.Close()
		var t0 time.Time
		for i := -n / 10; i < n; i++ {
			if i == 0 {
				t0 = time.Now()
			}
			if rigErr = c.Send(t, frame()); rigErr != nil {
				return
			}
			f, err := c.Recv(t)
			if err != nil {
				rigErr = err
				return
			}
			rpcproto.PutBuf(f)
		}
		rtt = float64(time.Since(t0).Nanoseconds()) / float64(n) / 1e3
	})
	<-done
	inEnv(srvEnv, func() { ln.Close() })
	return rtt, rigErr
}

func rigTransport(ms metricSet, div int) error {
	env := wallclock.New()
	inp := transport.NewInproc(env, transport.InprocOptions{})
	nIn := 50_000 / div
	rtt, err := echoRTT(env, env, inp, inp.Dial, nIn)
	if err != nil {
		return fmt.Errorf("inproc echo: %w", err)
	}
	ms.put("transport.inproc_rtt_us", rtt, nIn)

	// Two Envs, as two processes would have: the big lock is per Env.
	srvEnv, cliEnv := wallclock.New(), wallclock.New()
	ln, err := transport.ListenTCP(srvEnv, "127.0.0.1:0")
	if err != nil {
		return err
	}
	nTCP := 8_000 / div
	rtt, err = echoRTT(srvEnv, cliEnv, ln, func(runtime.Task) (transport.Conn, error) {
		return transport.DialTCP(cliEnv, ln.Addr())
	}, nTCP)
	if err != nil {
		return fmt.Errorf("tcp echo: %w", err)
	}
	ms.put("transport.tcp_rtt_us", rtt, nTCP)
	return nil
}

// rigEngine builds a small engine over MemDevices with inline reads.
func rigEngine(env *wallclock.Env) *engine.Engine {
	const partBytes = 4 << 20
	devs := make([]flashsim.Device, 2)
	for i := range devs {
		d := flashsim.NewMemDevice(env, 2*partBytes)
		d.SetSyncReads(true)
		devs[i] = d
	}
	return engine.New(engine.Config{
		Env: env, Devices: devs, PartitionsPerSSD: 2,
		Geometry:       core.PlanPartition(partBytes, keyLen, valLen, core.PlanOpts{}),
		PartitionBytes: partBytes,
	})
}

type noopHandler struct{}

func (noopHandler) Handle(_ runtime.Task, _ bool, _ *rpcproto.Request, resp *rpcproto.Response, scratch []byte, _ *obs.Trace) []byte {
	resp.Status = rpcproto.StatusOK
	return scratch
}

// rigServerNoop: the TCP front-end with a handler that does nothing, driven
// like the saturation phase. What is left is framing, admission, worker
// hand-offs and the socket: the ceiling of any single-op TCP workload.
func rigServerNoop(ms metricSet, div int) error {
	srvEnv, cliEnv := wallclock.New(), wallclock.New()
	srv := server.New(server.Config{Env: srvEnv, Engine: rigEngine(srvEnv), Handler: noopHandler{}})
	ln, err := transport.ListenTCP(srvEnv, "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Serve(ln)
	perTask := 4_000 / div
	n := lanes() * satWindow
	done := make(chan struct{})
	left := n
	var rigErr error
	var clients []*server.Client
	for l := 0; l < lanes(); l++ {
		conn, err := transport.DialTCP(cliEnv, ln.Addr())
		if err != nil {
			return err
		}
		clients = append(clients, server.NewClient(cliEnv, conn, clientDepth))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cl := clients[i%len(clients)]
		cliEnv.Spawn("noop-issuer", func(t runtime.Task) {
			key := rigKey(3)
			for j := 0; j < perTask && rigErr == nil; j++ {
				if _, err := cl.GetInto(t, key, nil); err != nil {
					rigErr = err
				}
			}
			if left--; left == 0 {
				close(done)
			}
		})
	}
	<-done
	el := time.Since(t0)
	for _, cl := range clients {
		cl.Close()
	}
	srv.Close()
	waitEnv(cliEnv, time.Second)
	waitEnv(srvEnv, time.Second)
	if rigErr != nil {
		return fmt.Errorf("no-op server: %w", rigErr)
	}
	ms.put("server.noop_ops_per_s", float64(n*perTask)/el.Seconds(), n*perTask)
	return nil
}

// rigWallclock: the cost of handing work from one task to another through a
// queue, and what more issuer tasks buy a read-only engine behind one Env.
func rigWallclock(ms metricSet, div int) error {
	env := wallclock.New()
	ping, pong := env.MakeQueue(), env.MakeQueue()
	n := 100_000 / div
	env.Spawn("pong", func(t runtime.Task) {
		for i := 0; i < n; i++ {
			pong.Put(ping.Get(t))
		}
	})
	var el time.Duration
	env.Spawn("ping", func(t runtime.Task) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(t)
		}
		el = time.Since(t0)
	})
	env.Wait()
	ms.put("wallclock.handoff_ns", float64(el.Nanoseconds())/float64(2*n), 2*n)

	one, err := engineReadRate(1, div)
	if err != nil {
		return err
	}
	many, err := engineReadRate(goruntime.NumCPU(), div)
	if err != nil {
		return err
	}
	ms.put("wallclock.par_speedup", ratio(many, one), 0)
	return nil
}

// engineReadRate is GETs per second of a preloaded engine with the given
// number of issuer tasks.
func engineReadRate(tasks, div int) (float64, error) {
	env := wallclock.New()
	eng := rigEngine(env)
	handles := eng.Handles()
	owners := ringOwners(len(handles), serverVPartitions)
	const keys = 2_000
	total := 120_000 / div
	var rigErr error
	val := rigValue()
	env.Spawn("preload", func(t runtime.Task) {
		for i := 0; i < keys && rigErr == nil; i++ {
			k := rigKey(i)
			_, _, rigErr = handles[routeKey(owners, k)].Execute(t, rpcproto.OpPut, k, val)
		}
	})
	env.Wait()
	if rigErr != nil {
		return 0, fmt.Errorf("engine rig preload: %w", rigErr)
	}
	keyTab := make([][]byte, keys)
	for i := range keyTab {
		keyTab[i] = rigKey(i)
	}
	t0 := time.Now()
	for w := 0; w < tasks; w++ {
		w := w
		env.Spawn("reader", func(t runtime.Task) {
			var dst []byte
			for i := w; i < total && rigErr == nil; i += tasks {
				k := keyTab[i%keys]
				dst, _, rigErr = handles[routeKey(owners, k)].ExecuteTracedInto(t, rpcproto.OpGet, k, nil, dst[:0], nil)
			}
		})
	}
	env.Wait()
	if rigErr != nil {
		return 0, fmt.Errorf("engine rig read: %w", rigErr)
	}
	return float64(total) / time.Since(t0).Seconds(), nil
}

// rigCore: one task on one core.Store over a MemDevice.
func rigCore(ms metricSet, div int) error {
	env := wallclock.New()
	const partBytes = 32 << 20 // room for every PUT below without compaction
	dev := flashsim.NewMemDevice(env, partBytes)
	dev.SetSyncReads(true)
	st := core.NewStore(core.StoreConfigFor(core.PlanPartition(partBytes, keyLen, valLen, core.PlanOpts{}),
		core.Config{Env: env, Device: dev}))
	const keys = 4_000
	gets, puts := 100_000/div, 20_000/div
	val := rigValue()
	var rigErr error
	env.Spawn("core-rig", func(t runtime.Task) {
		keyTab := make([][]byte, keys)
		for i := range keyTab {
			keyTab[i] = rigKey(i)
			if _, rigErr = st.Put(t, keyTab[i], val); rigErr != nil {
				return
			}
		}
		var dst []byte
		for i := 0; i < 2_000; i++ {
			dst, _, rigErr = st.GetInto(t, keyTab[i%keys], dst[:0])
		}
		m0, t0 := mallocs(), time.Now()
		for i := 0; i < gets && rigErr == nil; i++ {
			dst, _, rigErr = st.GetInto(t, keyTab[i%keys], dst[:0])
		}
		el, m1 := time.Since(t0), mallocs()
		ms.put("core.get_ns", float64(el.Nanoseconds())/float64(gets), gets)
		ms.put("core.get_allocs", float64(m1-m0)/float64(gets), gets)

		m0, t0 = mallocs(), time.Now()
		for i := 0; i < puts && rigErr == nil; i++ {
			_, rigErr = st.Put(t, keyTab[i%keys], val)
		}
		el, m1 = time.Since(t0), mallocs()
		ms.put("core.put_ns", float64(el.Nanoseconds())/float64(puts), puts)
		ms.put("core.put_allocs", float64(m1-m0)/float64(puts), puts)
	})
	env.Wait()
	if rigErr != nil {
		return fmt.Errorf("core rig: %w", rigErr)
	}
	return nil
}

// runRigs runs every rig into ms, at 1/div of its full iteration count.
func runRigs(ms metricSet, div int) error {
	rigRPCProto(ms, div)
	for _, rig := range []func(metricSet, int) error{rigTransport, rigServerNoop, rigWallclock, rigCore} {
		if err := rig(ms, div); err != nil {
			return err
		}
	}
	return nil
}
