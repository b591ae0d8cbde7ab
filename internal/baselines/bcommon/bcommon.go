// Package bcommon is the distributed harness shared by the FAWN and KVell
// baselines: servers with worker pools over per-worker backends, classic
// chain replication (writes chain head-to-tail, reads served by the tail),
// and a simple client library — no flow control, no request shipping, no
// data swapping, which is exactly what the paper compares LEED against.
package bcommon

import (
	"errors"
	"fmt"

	"leed/internal/core"
	"leed/internal/netsim"
	"leed/internal/obs"
	"leed/internal/platform"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/sim"
)

// ErrTimeout reports an exhausted retry budget.
var ErrTimeout = errors.New("bcommon: request timed out")

// Backend is one worker's storage engine (a fawn.DS or kvell.Store wrapper).
type Backend interface {
	Get(p *sim.Proc, key []byte) ([]byte, error)
	Put(p *sim.Proc, key, val []byte) error
	Del(p *sim.Proc, key []byte) error
}

// Gate serializes compute onto a core; backends use it as their core.Exec.
type Gate struct {
	Core *platform.Core
	res  *runtime.Resource
}

// NewGate wraps a core.
func NewGate(env runtime.Env, c *platform.Core) *Gate {
	return &Gate{Core: c, res: env.MakeResource(1)}
}

// Compute implements core.Exec.
func (g *Gate) Compute(t runtime.Task, cycles int64) {
	g.res.Acquire(t, 1)
	g.Core.RunCycles(t, cycles)
	g.res.Release(1)
}

type envelope struct {
	req        *rpcproto.Request
	clientAddr netsim.Addr
	complete   *sim.Event
}

// ServerConfig wires one baseline storage server.
type ServerConfig struct {
	Kernel   sim.Runner
	Index    int // position in the cluster's node list
	Endpoint *netsim.Endpoint
	Platform *platform.Node

	// Backends, one per worker. Requests partition over workers by key
	// hash (shared-nothing).
	Backends []Backend

	// Synchronous makes each worker serve one request at a time, blocking
	// through its I/O (FAWN's execution model). When false each worker
	// pipelines up to Depth concurrent requests (KVell's batched I/O).
	Synchronous bool
	Depth       int

	RxCycles int64

	// Obs receives the server's counter series (leed_baseline_*), so
	// baseline runs report through the same registry as LEED. May be nil.
	Obs *obs.Registry

	cluster *Cluster
}

// ServerStats are cumulative counters.
type ServerStats struct {
	Gets, Puts, Dels, Forwards int64
	Errors                     int64
}

// Server is one baseline node.
type Server struct {
	cfg    ServerConfig
	k      sim.Runner
	queues []*runtime.Queue
	stats  ServerStats
	o      *serverObs
}

// serverObs mirrors ServerStats into registry counters. Always constructed
// (a nil registry hands back working unregistered counters).
type serverObs struct {
	gets, puts, dels *obs.Counter
	forwards, errors *obs.Counter
}

func newServerObs(reg *obs.Registry, index int) *serverObs {
	c := func(name string) *obs.Counter { return reg.Counter(name, "server", fmt.Sprintf("s%d", index)) }
	return &serverObs{
		gets:     c("leed_baseline_gets_total"),
		puts:     c("leed_baseline_puts_total"),
		dels:     c("leed_baseline_dels_total"),
		forwards: c("leed_baseline_forwards_total"),
		errors:   c("leed_baseline_errors_total"),
	}
}

// NewServer creates a server; Start launches its procs.
func NewServer(cfg ServerConfig) *Server {
	if cfg.RxCycles == 0 {
		cfg.RxCycles = 2000
	}
	if cfg.Depth == 0 {
		cfg.Depth = 16
	}
	s := &Server{cfg: cfg, k: cfg.Kernel, o: newServerObs(cfg.Obs, cfg.Index)}
	for range cfg.Backends {
		s.queues = append(s.queues, cfg.Kernel.MakeQueue())
	}
	return s
}

// Stats returns cumulative counters.
func (s *Server) Stats() ServerStats { return s.stats }

// Start launches the poll loop and worker procs.
func (s *Server) Start() {
	s.k.Go("bl-poll", func(p *sim.Proc) {
		rx := s.cfg.Endpoint.RX()
		for {
			m := rx.Get(p).(*netsim.Message)
			env, ok := m.Payload.(*envelope)
			if !ok {
				continue
			}
			w := int(core.HashKey(env.req.Key) % uint64(len(s.queues)))
			s.queues[w].Put(env)
		}
	})
	for w := range s.cfg.Backends {
		w := w
		if s.cfg.Synchronous {
			s.k.Go("bl-worker", func(p *sim.Proc) { s.workerLoop(p, w) })
			continue
		}
		// Pipelined: Depth concurrent executors share the worker queue.
		for d := 0; d < s.cfg.Depth; d++ {
			s.k.Go("bl-worker", func(p *sim.Proc) { s.workerLoop(p, w) })
		}
	}
}

func (s *Server) workerLoop(p *sim.Proc, w int) {
	be := s.cfg.Backends[w]
	for {
		env := s.queues[w].Get(p).(*envelope)
		req := env.req
		var (
			val []byte
			err error
		)
		switch req.Op {
		case rpcproto.OpGet:
			s.stats.Gets++
			s.o.gets.Inc()
			val, err = be.Get(p, req.Key)
		case rpcproto.OpPut:
			s.stats.Puts++
			s.o.puts.Inc()
			err = be.Put(p, req.Key, req.Value)
		case rpcproto.OpDel:
			s.stats.Dels++
			s.o.dels.Inc()
			err = be.Del(p, req.Key)
		default:
			err = fmt.Errorf("bcommon: op %v", req.Op)
		}
		isWrite := req.Op == rpcproto.OpPut || req.Op == rpcproto.OpDel
		notFound := err == core.ErrNotFound
		if err != nil && !notFound {
			s.stats.Errors++
			s.o.errors.Inc()
			s.reply(env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
			continue
		}
		chain := s.cfg.cluster.chain(req.Partition)
		if isWrite && int(req.Hop) < len(chain)-1 {
			// Propagate down the chain before acking the client.
			s.stats.Forwards++
			s.o.forwards.Inc()
			fwd := *req
			fwd.Hop++
			next := s.cfg.cluster.servers[chain[int(fwd.Hop)]]
			s.cfg.Endpoint.Send(next.cfg.Endpoint.Addr(), fwd.WireSize(),
				&envelope{req: &fwd, clientAddr: env.clientAddr, complete: env.complete})
			continue
		}
		status := rpcproto.StatusOK
		if notFound {
			status = rpcproto.StatusNotFound
		}
		s.reply(env, &rpcproto.Response{ID: req.ID, Status: status, Value: val})
	}
}

func (s *Server) reply(env *envelope, resp *rpcproto.Response) {
	s.cfg.Endpoint.Write(env.clientAddr, resp.WireSize(), resp, env.complete)
}

// Cluster is a static-membership baseline cluster.
type Cluster struct {
	K       sim.Runner
	R       int
	NumPart int
	servers []*Server
}

// NewCluster assembles servers (already constructed) into a chain ring.
func NewCluster(k sim.Runner, r, numPart int, servers []*Server) *Cluster {
	c := &Cluster{K: k, R: r, NumPart: numPart, servers: servers}
	for _, s := range servers {
		s.cfg.cluster = c
	}
	return c
}

// chain returns server indices for a partition: R ring successors.
func (c *Cluster) chain(part uint32) []int {
	n := len(c.servers)
	r := c.R
	if r > n {
		r = n
	}
	out := make([]int, 0, r)
	for i := 0; i < r; i++ {
		out = append(out, (int(part)+i)%n)
	}
	return out
}

// Client is the baseline front-end: consistent key->partition mapping,
// writes to the chain head, reads at the tail, timeout retries.
type Client struct {
	k       sim.Runner
	ep      *netsim.Endpoint
	c       *Cluster
	nextID  uint64
	Timeout sim.Time
	Retries int
}

// NewClient creates a client endpoint for the cluster.
func NewClient(k sim.Runner, ep *netsim.Endpoint, c *Cluster) *Client {
	return &Client{k: k, ep: ep, c: c, Timeout: 50 * sim.Millisecond, Retries: 5}
}

// Do executes one operation and returns its latency.
func (cl *Client) Do(p *sim.Proc, op rpcproto.Op, key, val []byte) (*rpcproto.Response, sim.Time, error) {
	start := p.Now()
	part := uint32(core.HashKey(key) % uint64(cl.c.NumPart))
	chain := cl.c.chain(part)
	for attempt := 0; attempt < cl.Retries; attempt++ {
		cl.nextID++
		req := &rpcproto.Request{ID: cl.nextID, Op: op, Partition: part, Key: key, Value: val}
		targetIdx := chain[0] // writes enter at the head
		if op == rpcproto.OpGet {
			targetIdx = chain[len(chain)-1] // reads at the tail
		}
		srv := cl.c.servers[targetIdx]
		done := cl.k.NewEvent()
		cl.ep.Send(srv.cfg.Endpoint.Addr(), req.WireSize(),
			&envelope{req: req, clientAddr: cl.ep.Addr(), complete: done})
		if cl.Timeout <= 0 {
			m := p.Wait(done)
			return m.(*netsim.Message).Payload.(*rpcproto.Response), p.Now() - start, nil
		}
		if idx := p.WaitAny(done, cl.k.Timer(cl.Timeout)); idx == 0 {
			resp := done.Value().(*netsim.Message).Payload.(*rpcproto.Response)
			return resp, p.Now() - start, nil
		}
	}
	return nil, p.Now() - start, ErrTimeout
}

// Get fetches a key.
func (cl *Client) Get(p *sim.Proc, key []byte) ([]byte, sim.Time, error) {
	resp, lat, err := cl.Do(p, rpcproto.OpGet, key, nil)
	if err != nil {
		return nil, lat, err
	}
	if resp.Status == rpcproto.StatusNotFound {
		return nil, lat, core.ErrNotFound
	}
	if resp.Status != rpcproto.StatusOK {
		return nil, lat, fmt.Errorf("bcommon: status %v", resp.Status)
	}
	return resp.Value, lat, nil
}

// Put writes a key through the chain.
func (cl *Client) Put(p *sim.Proc, key, val []byte) (sim.Time, error) {
	resp, lat, err := cl.Do(p, rpcproto.OpPut, key, val)
	if err != nil {
		return lat, err
	}
	if resp.Status != rpcproto.StatusOK {
		return lat, fmt.Errorf("bcommon: status %v", resp.Status)
	}
	return lat, nil
}

// Del removes a key.
func (cl *Client) Del(p *sim.Proc, key []byte) (sim.Time, error) {
	resp, lat, err := cl.Do(p, rpcproto.OpDel, key, nil)
	if err != nil {
		return lat, err
	}
	if resp.Status == rpcproto.StatusNotFound {
		return lat, core.ErrNotFound
	}
	return lat, nil
}
