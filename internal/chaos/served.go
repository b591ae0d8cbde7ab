package chaos

import (
	"time"

	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// The served shape is the real-socket complement of the fabric: the actual
// served path — engine, server front-end, TCP listener — with a
// transport.FaultProxy on the wire, driven by ReliableClients whose
// deadlines, retries, reconnects and circuit breakers are the thing under
// test. Besides the shared invariants, a partition must open the breaker
// and keep the tail bounded: hangs turn into fast failures instead of
// every op eating the full deadline × attempts budget.

const (
	servedKeys = 24
	// servedDeadline is each client's per-request deadline; the partition's
	// tail bound derives from it.
	servedDeadline = 100 * runtime.Millisecond
	// servedPartitionFor is how long the partition blackholes the wire.
	servedPartitionFor = 400 * time.Millisecond
)

// reliableClient adapts server.ReliableClient: it retries only what cannot
// apply a write twice, and tells a pre-execution rejection from an
// ambiguous failure. Breaker excursions are noted on the report.
type reliableClient struct {
	rc  *server.ReliableClient
	rep *Report
}

func (c reliableClient) Put(t runtime.Task, key, val []byte) (bool, error) {
	err := c.rc.Put(t, key, val)
	c.noteBreaker()
	return false, err
}

func (c reliableClient) Get(t runtime.Task, key []byte) ([]byte, error) {
	val, err := c.rc.Get(t, key)
	c.noteBreaker()
	return val, err
}

func (c reliableClient) noteBreaker() {
	if c.rc.BreakerState() != 0 {
		c.rep.BreakerOpened = true
	}
}

func (reliableClient) NotExecuted(err error) bool { return server.WriteNotExecuted(err) }
func (reliableClient) Reapplies() bool            { return false }

// foldReliable sums the clients' reliability counters into the report.
func foldReliable(rep *Report, clients []*server.ReliableClient) {
	for _, rc := range clients {
		st := rc.Stats()
		rep.Retries += st.Retries
		rep.Timeouts += st.Timeouts
		rep.Reconnects += st.Reconnects
		rep.FastFails += st.FastFails
	}
}

func runServed(d *drill) (*Report, error) {
	env := wallclock.New()
	d.env = env
	const devCap = 16 << 20
	eng := engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{flashsim.NewMemDevice(env, devCap), flashsim.NewMemDevice(env, devCap)},
		PartitionsPerSSD: 2,
		Geometry:         core.PlanPartition(4<<20, 16, 256, core.PlanOpts{}),
		PartitionBytes:   4 << 20,
	})
	srv := server.New(server.Config{
		Env: env, Engine: eng, Obs: d.cfg.Obs,
		MaxInflightTotal: 256,
		IdleTimeout:      10 * runtime.Second,
	})
	l, err := transport.ListenTCPOpts(env, "127.0.0.1:0", transport.TCPOptions{
		ReadIdleTimeout: 30 * time.Second, // leak bound, not a behavior knob here
	})
	if err != nil {
		return nil, err
	}
	srv.Serve(l)
	proxy, err := transport.NewFaultProxy("127.0.0.1:0", l.Addr(), d.cfg.Seed)
	if err != nil {
		srv.Close()
		return nil, err
	}
	defer proxy.Close()
	d.proxy = proxy
	var rcs []*server.ReliableClient
	for c := 0; c < 2; c++ {
		rc := server.NewReliableClient(server.ReliableConfig{
			Env:         env,
			Dial:        dialTCP(env, proxy.Addr()),
			Depth:       8,
			Deadline:    servedDeadline,
			MaxAttempts: 5,
			BackoffBase: 5 * runtime.Millisecond,
			BackoffCap:  100 * runtime.Millisecond,
			Seed:        d.cfg.Seed + int64(c),
			// Low threshold so a partition window a few deadlines long is
			// guaranteed to trip it — the scenario asserts the breaker opens.
			BreakerThreshold: 3,
			BreakerCooloff:   200 * runtime.Millisecond,
			Obs:              d.cfg.Obs,
		})
		rcs = append(rcs, rc)
		d.clients = append(d.clients, reliableClient{rc, d.rep})
	}
	d.keys = make([]keyState, servedKeys)
	d.writers = len(rcs)

	return d.run(func(t runtime.Task) error {
		defer srv.Close()
		d.sweeps(t, 1, false) // version 1 of every key, fault-free
		d.row.steps(d, t)
		d.settle(t)
		d.sweeps(t, 1, false) // post-heal: must be clean
		d.finalCheck(t, nil)
		foldReliable(d.rep, rcs)
		ps := proxy.Stats()
		d.rep.ProxyKills = ps.KilledByDrop + ps.Killed
		for _, rc := range rcs {
			rc.Close()
		}
		d.finish()
		return nil
	})
}

// dialTCP is the ReliableClient dialer for a drill endpoint.
func dialTCP(env *wallclock.Env, addr string) func(runtime.Task) (transport.Conn, error) {
	return func(runtime.Task) (transport.Conn, error) {
		return transport.DialTCPOpts(env, addr, transport.TCPOptions{ReadIdleTimeout: 10 * time.Second})
	}
}

func proxyDrop(d *drill, t runtime.Task) {
	d.proxy.SetDrop(0.015) // per-16KB-chunk: a few kills per sweep
	d.sweeps(t, d.rounds(), true)
	d.proxy.SetDrop(0)
}

func proxyPartition(d *drill, t runtime.Task) {
	p := d.proxy
	p.Partition()
	time.AfterFunc(servedPartitionFor, p.Heal)
	d.sweeps(t, d.rounds(), true)
	for p.Faults().Partitioned { // the heal lands before the checks
		t.Sleep(5 * runtime.Millisecond)
	}
}

func expectProxyDrop(r *Report) {
	if r.ProxyKills == 0 {
		r.violate("drop scenario ran but the proxy killed nothing")
	}
	if r.Retries == 0 && r.Reconnects == 0 {
		r.violate("drop scenario engaged no client recovery (retries=0, reconnects=0)")
	}
}

func expectProxyPartition(r *Report) {
	if !r.BreakerOpened {
		r.violate("partition scenario never opened a breaker")
	}
	if r.Timeouts == 0 {
		r.violate("partition scenario produced no client timeouts")
	}
	// The tail bound: one op may at worst eat every attempt's deadline plus
	// every backoff plus the breaker cooloff once. Anything past that means
	// an op hung un-deadlined somewhere.
	bound := 5*servedDeadline + 5*100*runtime.Millisecond + 200*runtime.Millisecond + 2*runtime.Second
	if r.MaxStall > bound {
		r.violate("unbounded stall: max op time %v exceeds bound %v", r.MaxStall, bound)
	}
}
