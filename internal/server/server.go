// Package server is LEED's request front-end: the piece that turns an
// engine full of partitions into a network service. It owns what `leedctl
// serve` used to hard-code — partition routing, admission, execution,
// response generation, drain — behind the transport seam, so the same
// server stack serves a goroutine client over an in-process queue pair and
// a separate process over a TCP socket (§3.5, §3.8.1's client-visible
// surface).
//
// Request path: a frame arrives on a transport.Conn, is borrow-decoded in
// place (key and value alias the frame buffer until the request completes),
// routed through a precomputed partition table, admitted through a
// per-connection pipeline window plus the engine's per-partition tokens,
// executed, and answered with a response frame carrying the partition's
// remaining tokens (§3.5's piggybacked flow control). A connection runs to
// completion on its own task, which reads the socket, admits each request
// and executes GETs and MultiGets itself, with no hand-off (§3.4); over TCP
// its responses leave in one coalesced write when the runtime goes quiet.
// Requests that may block on the write path — PUT, DEL, chain forwards and
// write batches — go to a per-connection worker pool (grown lazily up to
// the pipeline window), so requests on one connection still pipeline:
// responses return in completion order and the client matches them by ID.
// The steady-state path recycles everything — frames, request state,
// response buffers — so serving allocates nothing (see DESIGN.md §13).
//
// Batch frames (FrameBatchReq) carry a MultiGet/MultiPut/MultiDel, answered
// with one FrameBatchResp in item order. A MultiGet runs inline on the
// connection task like a GET, item by item; a write batch goes to a worker,
// which runs one partition's items itself and one helper task per further
// partition, so writes to different partitions overlap. The batch path
// allocates nothing but those helpers (DESIGN.md §13).
//
// Shutdown is a graceful drain: new connections are refused, requests
// already in flight complete and their responses flush, late requests on
// open connections are answered with an ErrorFrame (StatusNack) rather
// than silently dropped, and every connection then closes.
package server

import (
	"fmt"
	"sync/atomic"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/transport"
)

// Config describes one server.
type Config struct {
	Env    runtime.Env
	Engine *engine.Engine

	// VPartitions is the number of virtual partitions keys hash onto before
	// the ring maps them to engine partitions; it is the unit of future
	// rebalancing, so it should exceed the partition count. Default 64.
	VPartitions int
	// MaxInflightPerConn bounds how many requests from one connection may
	// be executing at once: the pipeline admission window. A connection
	// that fills its window is simply not read from until a slot frees —
	// the TCP transport reads its socket only when asked for the next
	// frame, so TCP backpressure does the rest. Default 64.
	MaxInflightPerConn int64
	// MaxInflightTotal bounds requests executing across ALL connections:
	// the overload-shedding line. Past it the server answers with an
	// explicit OverloadFrame NACK instead of queueing — the request
	// provably never executed, so the client may safely retry anything,
	// even a PUT, after the frame's backoff hint. 0 disables (per-conn
	// windows remain the only admission).
	MaxInflightTotal int64
	// OverloadRetryHint is the backoff hint carried in overload NACKs.
	// Default 1ms.
	OverloadRetryHint runtime.Time
	// IdleTimeout reaps connections that have had no request in flight or
	// arriving for this long. This is the server-policy layer of idle
	// reaping; the transport's TCPOptions.ReadIdleTimeout is the socket
	// layer that also catches peers that vanished mid-frame. 0 disables.
	IdleTimeout runtime.Time

	// Handler, when set, replaces the default route-and-execute step for
	// single-op requests: the server keeps owning framing, admission,
	// pooling, drain, and metrics, while the handler owns what happens
	// between decode and response — a cluster node installs one to validate
	// the request against its membership view, execute locally, and forward
	// down the CRRS chain before acking. With a handler installed the
	// server also accepts FrameChainFwd peer traffic (refused otherwise)
	// and refuses batch frames (chain routing is per-key). Nil = plain
	// single-store serving.
	Handler Handler

	// Obs and Tracer bind the server to a metrics registry and the request
	// tracer. Both optional.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// SamplePeriod is the queue-depth sampling cadence. Default 10ms.
	SamplePeriod runtime.Time

	// testHook, when set (tests only — unexported, so only this package can
	// install it), runs at the top of every handled request and batch item;
	// a hook that panics exercises the handler's panic isolation.
	testHook func(*rpcproto.Request)
}

// Server serves rpcproto frames from transport listeners against an engine.
type Server struct {
	cfg     Config
	env     runtime.Env
	handles []engine.Handle
	ring    *cluster.Ring
	// owners is the precomputed virtual-partition → engine-partition table.
	// Ring.OwnerOf walks the consistent-hash ring and allocates; the ring is
	// static for a server's lifetime, so route() is a pair of array reads.
	owners []int

	// State below is mutated only in task or scheduler context: the
	// execution contract is the lock.
	listeners     []transport.Listener
	conns         map[*serverConn]struct{}
	draining      bool
	inflightTotal int64

	// closed makes Close idempotent and callable from any goroutine (a
	// signal handler, a test's raw goroutine).
	closed atomic.Bool

	o *srvObs
}

// Handler executes one admitted single-op request. fwd reports the frame
// kind: false for a client FrameRequest, true for peer FrameChainFwd
// traffic. req is borrow-decoded (Key/Value alias the frame, which stays
// alive for the whole call); the handler fills resp (already zeroed with
// ID and Epoch echoed) and returns its value scratch buffer — grown
// capacity is kept across requests, so a handler that reads into scratch
// keeps the serve path allocation-free. resp.Value may alias the returned
// scratch or the request frame. tr is the request's trace (nil when the
// server has no tracer): the handler attributes engine execution and chain
// forwards to it, and — for requests carrying a sampled trace context — a
// handler that relays downstream may append the downstream response's
// piggybacked spans to resp.Spans; the server adds the handler's own spans
// and the node span before the response leaves. Runs in task context;
// blocking (e.g. a chain forward's round trip) is fine, it occupies one
// pipeline slot.
type Handler interface {
	Handle(t runtime.Task, fwd bool, req *rpcproto.Request, resp *rpcproto.Response, scratch []byte, tr *obs.Trace) []byte
}

// workerStop is the sentinel closeConn injects to retire a connection's
// workers. Zero-size, so boxing it into the queue never allocates.
type workerStop struct{}

// reqWork is one admitted request's state, pooled per connection. The
// request frame stays borrowed for the request's whole lifetime: Key and
// Value alias it (rpcproto's borrow contract), and the engine copies on
// PUT ingest, so the frame is released only when the response has been
// sent. Scratch fields (val, batch slices) keep their capacity across
// requests, which is what makes the steady-state serve path allocation
// free.
type reqWork struct {
	frame      []byte
	arrived    runtime.Time
	dispatched runtime.Time      // execution start; == arrived for an inline read
	fwd        bool              // frame kind was FrameChainFwd (peer traffic)
	req        rpcproto.Request  // borrow-decoded (Key/Value alias frame); a batch's ID and Op
	resp       rpcproto.Response // response scratch
	val        []byte            // GET value scratch, reused across requests

	// Batch request state (kind FrameBatchReq).
	batch    bool
	items    []rpcproto.BatchItem // alias frame
	statuses []rpcproto.Status
	vals     [][]byte // per-item read buffers; an empty one marshals no bytes
	// Write batches: item indexes per partition, partitions in first-seen
	// order, running helpers, the waiting worker's ticket, a helper's panic.
	perPart  [][]int
	used     []int
	helpers  int
	tk       runtime.Ticket
	panicked any
}

// serverConn is the server side of one accepted connection.
type serverConn struct {
	conn       transport.Conn
	pipe       *runtime.Resource // pipeline admission window
	workQ      *runtime.Queue    // admitted *reqWork, consumed by workers
	workers    int               // workers spawned, grown lazily to the window
	free       []*reqWork        // recycled work items
	inflight   int               // requests executing right now
	closed     bool
	readerDone bool
	lastActive runtime.Time // last request arrival, for idle reaping
}

func (sc *serverConn) getWork() *reqWork {
	if n := len(sc.free); n > 0 {
		w := sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
		return w
	}
	return &reqWork{}
}

// putWork recycles w, dropping every reference into the (released) frame
// while keeping scratch capacity.
func (sc *serverConn) putWork(w *reqWork) {
	w.frame = nil
	w.fwd = false
	w.req = rpcproto.Request{}
	// The response's span scratch is work-item-owned (piggyback spans are
	// value types, never aliases into the frame); keep its capacity so a
	// traced steady state allocates nothing.
	w.resp = rpcproto.Response{Spans: w.resp.Spans[:0]}
	w.batch = false
	w.items = w.items[:0]
	// w.vals entries are the work item's own per-slot read buffers (never
	// aliases into a borrowed frame), kept so their capacity survives into
	// the next batch.
	for i := range w.vals {
		w.vals[i] = w.vals[i][:0]
	}
	for _, pid := range w.used {
		w.perPart[pid] = w.perPart[pid][:0]
	}
	w.used = w.used[:0]
	w.panicked = nil
	if len(sc.free) < 64 {
		sc.free = append(sc.free, w)
	}
}

type srvObs struct {
	reg *obs.Registry
	// requests is indexed by rpcproto.Op — an array, not a map, so the
	// per-request increment is a load and an atomic add.
	requests  [8]*obs.Counter
	errors    *obs.Counter
	badFrame  *obs.Counter
	refused   *obs.Counter
	overloads *obs.Counter
	panics    *obs.Counter
	reaped    *obs.Counter
	connsNow  *obs.Gauge
	connsTot  *obs.Counter
	inflight  *obs.Gauge
	partLat   []*obs.Hist
	depth     []*obs.Gauge
}

func (o *srvObs) reqInc(op rpcproto.Op) {
	if int(op) < len(o.requests) {
		o.requests[op].Inc() // nil-safe for unregistered ops
	}
}

func newSrvObs(reg *obs.Registry, nparts int) *srvObs {
	o := &srvObs{
		reg:       reg,
		errors:    reg.Counter("leed_server_errors_total"),
		badFrame:  reg.Counter("leed_server_bad_frames_total"),
		refused:   reg.Counter("leed_server_refused_total"),
		overloads: reg.Counter("leed_server_overloads_total"),
		panics:    reg.Counter("leed_server_panics_total"),
		reaped:    reg.Counter("leed_server_reaped_total"),
		connsNow:  reg.Gauge("leed_server_conns"),
		connsTot:  reg.Counter("leed_server_conns_total"),
		inflight:  reg.Gauge("leed_server_inflight"),
	}
	for _, op := range []rpcproto.Op{rpcproto.OpGet, rpcproto.OpPut, rpcproto.OpDel} {
		o.requests[op] = reg.Counter("leed_server_requests_total", "op", op.String())
	}
	for pid := 0; pid < nparts; pid++ {
		l := []string{"partition", fmt.Sprintf("%d", pid)}
		o.partLat = append(o.partLat, reg.Hist("leed_server_partition_latency_ns", l...))
		o.depth = append(o.depth, reg.Gauge("leed_server_queue_depth", l...))
	}
	return o
}

// New builds a server over the engine's partitions. The engine should
// already be recovered/started; the server does not own its lifecycle.
func New(cfg Config) *Server {
	if cfg.VPartitions == 0 {
		cfg.VPartitions = 64
	}
	if cfg.MaxInflightPerConn == 0 {
		cfg.MaxInflightPerConn = 64
	}
	if cfg.SamplePeriod == 0 {
		cfg.SamplePeriod = 10 * runtime.Millisecond
	}
	if cfg.OverloadRetryHint == 0 {
		cfg.OverloadRetryHint = runtime.Millisecond
	}
	handles := cfg.Engine.Handles()
	members := make([]cluster.NodeID, len(handles))
	for i := range handles {
		members[i] = cluster.NodeID(i)
	}
	s := &Server{
		cfg:     cfg,
		env:     cfg.Env,
		handles: handles,
		ring:    cluster.NewRing(members),
		owners:  make([]int, cfg.VPartitions),
		conns:   make(map[*serverConn]struct{}),
		o:       newSrvObs(cfg.Obs, len(handles)),
	}
	for vp := range s.owners {
		s.owners[vp] = int(s.ring.OwnerOf(uint32(vp)))
	}
	if cfg.Obs != nil {
		s.env.Spawn("server-sampler", s.sample)
	}
	if cfg.IdleTimeout > 0 {
		s.env.Spawn("server-reaper", s.reap)
	}
	return s
}

// route maps a key to the engine partition that owns it: key hash →
// virtual partition → precomputed owner. Deterministic across processes
// and transports, and allocation-free.
func (s *Server) route(key []byte) int {
	return s.owners[cluster.PartitionOf(core.HashKey(key), s.cfg.VPartitions)]
}

// sample periodically publishes per-partition waiting-queue depths; it
// exits once the server drains.
func (s *Server) sample(t runtime.Task) {
	for !s.draining {
		t.Sleep(s.cfg.SamplePeriod)
		for pid, h := range s.handles {
			s.o.depth[pid].Set(int64(h.WaitingDepth()))
		}
	}
}

// reap closes connections that have sat idle past Config.IdleTimeout: no
// request executing and none arrived recently. Closing wakes the conn's
// reader with ErrClosed, which deregisters it; a request racing the reaper
// at the transport layer loses the connection, which is exactly what the
// same request would see against a ReadIdleTimeout — clients own retry.
func (s *Server) reap(t runtime.Task) {
	period := s.cfg.IdleTimeout / 4
	if period <= 0 {
		period = runtime.Millisecond
	}
	for !s.draining {
		t.Sleep(period)
		now := t.Now()
		for sc := range s.conns {
			if sc.inflight == 0 && now-sc.lastActive > s.cfg.IdleTimeout {
				s.o.reaped.Inc()
				s.closeConn(sc)
			}
		}
	}
}

// Serve mounts the server on a listener and returns immediately; accepted
// connections are served until the listener fails or the server drains.
// A server may Serve any number of listeners (e.g. inproc and TCP at
// once). Safe to call from any goroutine.
func (s *Server) Serve(l transport.Listener) {
	s.env.Spawn("server-accept", func(t runtime.Task) {
		if s.draining {
			l.Close()
			return
		}
		s.listeners = append(s.listeners, l)
		for {
			c, err := l.Accept(t)
			if err != nil {
				return
			}
			if s.draining {
				c.Close()
				continue
			}
			s.startConn(t, c)
		}
	})
}

// startConn registers one accepted connection and spawns its reader. Task
// context.
func (s *Server) startConn(t runtime.Task, c transport.Conn) {
	sc := &serverConn{
		conn:       c,
		pipe:       s.env.MakeResource(s.cfg.MaxInflightPerConn),
		workQ:      s.env.MakeQueue(),
		lastActive: t.Now(),
	}
	s.conns[sc] = struct{}{}
	s.o.connsTot.Inc()
	s.o.connsNow.Set(int64(len(s.conns)))
	s.env.Spawn("server-conn", func(t runtime.Task) { s.serveConn(t, sc) })
}

// serveConn is one connection's task: read, decode, admit, then execute a
// GET or MultiGet right here or enqueue anything else for the connection's
// workers. An inline read occupies the reader while it runs, which is what
// run to completion means: on the mmap read lane it never parks, and the
// next frame is usually already in the transport's buffer.
func (s *Server) serveConn(t runtime.Task, sc *serverConn) {
	for {
		frame, err := sc.conn.Recv(t)
		if err != nil {
			break
		}
		arrived := t.Now()
		sc.lastActive = arrived
		kind, payload, _, err := rpcproto.DecodeFrame(frame)
		okKind := kind == rpcproto.FrameRequest ||
			(kind == rpcproto.FrameBatchReq && s.cfg.Handler == nil) ||
			(kind == rpcproto.FrameChainFwd && s.cfg.Handler != nil)
		if err != nil || !okKind {
			// Undecodable bytes poison the stream — there is no resync
			// point past a bad frame. Report and hang up. (Peer-only and
			// handler-incompatible kinds land here too: a plain KV server
			// refuses FrameChainFwd, a cluster node refuses batches.)
			rpcproto.PutBuf(frame)
			s.o.badFrame.Inc()
			s.sendError(t, sc, &rpcproto.ErrorFrame{Code: rpcproto.StatusErr, Msg: "undecodable frame"})
			break
		}
		w := sc.getWork()
		w.frame = frame
		w.arrived = arrived
		w.fwd = kind == rpcproto.FrameChainFwd
		var derr error
		if w.batch = kind == rpcproto.FrameBatchReq; w.batch {
			w.req.ID, w.req.Op, w.items, derr = rpcproto.DecodeBatchReq(payload, w.items[:0])
		} else {
			_, derr = w.req.DecodeBorrow(payload)
		}
		if derr != nil {
			rpcproto.PutBuf(frame)
			w.frame = nil
			sc.putWork(w)
			s.o.badFrame.Inc()
			s.sendError(t, sc, &rpcproto.ErrorFrame{Code: rpcproto.StatusErr, Msg: "undecodable request"})
			break
		}
		// Pipeline admission: block the reader (and thus the stream) while
		// the connection's window is full.
		sc.pipe.Acquire(t, 1)
		if s.draining {
			// The drain completes requests that were in flight when it
			// began; this one arrived after. Refuse it explicitly.
			sc.pipe.Release(1)
			s.o.refused.Inc()
			s.sendError(t, sc, &rpcproto.ErrorFrame{ID: w.req.ID, Code: rpcproto.StatusNack, Msg: "server draining"})
			rpcproto.PutBuf(w.frame)
			sc.putWork(w)
			continue
		}
		if s.cfg.MaxInflightTotal > 0 && s.inflightTotal >= s.cfg.MaxInflightTotal {
			// Overload shedding: the global execution budget is spent, so
			// NACK immediately instead of queueing. The per-conn window slot
			// is returned — this reader keeps draining its stream (a shed
			// request must not wedge the connection behind it).
			sc.pipe.Release(1)
			s.o.overloads.Inc()
			shedKey := w.req.Key
			if w.batch && len(w.items) > 0 {
				shedKey = w.items[0].Key
			}
			sc.conn.Send(t, rpcproto.AppendOverloadFrame(rpcproto.GetBuf(), &rpcproto.OverloadFrame{
				ID:           w.req.ID,
				Tokens:       int32(s.handles[s.route(shedKey)].AvailableTokens()),
				RetryAfterNS: int64(s.cfg.OverloadRetryHint),
			}))
			rpcproto.PutBuf(w.frame)
			sc.putWork(w)
			continue
		}
		sc.inflight++
		s.inflightTotal++
		s.o.inflight.Add(1)
		if !w.fwd && w.req.Op == rpcproto.OpGet { // a GET or a MultiGet
			w.dispatched = arrived
			s.process(t, sc, w)
			continue
		}
		sc.workQ.Put(w)
		// Grow the worker pool to match observed concurrency: one worker per
		// in-flight request, capped by the pipeline window. Workers persist
		// for the connection's lifetime, so steady state spawns nothing.
		if sc.workers < sc.inflight && int64(sc.workers) < s.cfg.MaxInflightPerConn {
			sc.workers++
			s.env.Spawn("server-worker", func(q runtime.Task) { s.connWorker(q, sc) })
		}
	}
	// Reader exit: if the drain hasn't already retired the connection,
	// in-flight requests may still be executing — leave the conn to them
	// (their completions will find readerDone set), but retire an idle one.
	sc.readerDone = true
	if !sc.closed && sc.inflight == 0 {
		s.closeConn(sc)
	}
}

// connWorker drains one connection's admitted-work queue until closeConn
// injects its stop sentinel.
func (s *Server) connWorker(t runtime.Task, sc *serverConn) {
	for {
		w, ok := sc.workQ.Get(t).(*reqWork)
		if !ok {
			return // workerStop
		}
		w.dispatched = t.Now()
		s.process(t, sc, w)
	}
}

// process executes one admitted work item with panic isolation, then does
// the admission bookkeeping and recycles the work state.
func (s *Server) process(t runtime.Task, sc *serverConn, w *reqWork) {
	// Admission bookkeeping must survive a panicking handler, so it is
	// deferred; the recover below it (LIFO: runs first) keeps one poisoned
	// request from killing the whole process.
	defer func() {
		rpcproto.PutBuf(w.frame)
		sc.putWork(w)
		sc.pipe.Release(1)
		sc.inflight--
		s.inflightTotal--
		s.o.inflight.Add(-1)
		if (s.draining || sc.readerDone) && sc.inflight == 0 && !sc.closed {
			s.closeConn(sc)
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			// The request died mid-execution; its effects on the engine are
			// unknown, so answer with an ErrorFrame the retry policy treats
			// as ambiguous (no blind PUT retry) and hang up — per-conn state
			// is no longer trusted.
			s.o.panics.Inc()
			s.sendError(t, sc,
				&rpcproto.ErrorFrame{ID: w.req.ID, Code: rpcproto.StatusErr,
					Msg: fmt.Sprintf("panic in handler: %v", r)})
			s.closeConn(sc)
		}
	}()
	if w.batch {
		s.handleBatch(t, sc, w)
	} else {
		s.handle(t, sc, w)
	}
}

// handle executes one request and sends its response. Task context. The
// clock is read once more after execution (done) and once after the send
// (end); end serves the node span and both latency histograms.
func (s *Server) handle(t runtime.Task, sc *serverConn, w *reqWork) {
	req := &w.req
	arrived, dispatched := w.arrived, w.dispatched
	tr := s.cfg.Tracer.Begin(req.Op.String(), arrived)
	// The node span: dispatch wait (admission window) vs everything the
	// server itself does around engine execution.
	if s.cfg.testHook != nil {
		s.cfg.testHook(req)
	}

	resp := &w.resp
	*resp = rpcproto.Response{ID: req.ID, Epoch: req.Epoch, Spans: resp.Spans[:0]}
	if s.cfg.Handler != nil {
		// Cluster mode: the handler owns validation, execution, and chain
		// forwarding; the server keeps the framing and latency accounting.
		w.val = s.cfg.Handler.Handle(t, w.fwd, req, resp, w.val[:0], tr)
		s.o.reqInc(req.Op)
		done := t.Now()
		if req.Sampled() {
			appendPiggySpans(resp, req, tr, dispatched-arrived, done-dispatched)
		}
		sc.conn.Send(t, rpcproto.AppendResponseFrame(rpcproto.GetBuf(), resp))
		end := t.Now()
		tr.Span("node", dispatched-arrived, end-done)
		s.cfg.Tracer.End(tr)
		return
	}
	var pid int
	switch req.Op {
	case rpcproto.OpGet, rpcproto.OpPut, rpcproto.OpDel:
		pid = s.route(req.Key)
		val, _, err := s.handles[pid].ExecuteTracedInto(t, req.Op, req.Key, req.Value, w.val[:0], tr)
		if val != nil {
			w.val = val[:0] // keep grown capacity for the next request
		}
		switch {
		case err == core.ErrNotFound:
			resp.Status = rpcproto.StatusNotFound
		case err != nil:
			s.o.errors.Inc()
			resp.Status = rpcproto.StatusErr
		default:
			resp.Status = rpcproto.StatusOK
			resp.Value = val
		}
		resp.Tokens = int32(s.handles[pid].AvailableTokens())
		s.o.reqInc(req.Op)
	default:
		s.o.errors.Inc()
		resp.Status = rpcproto.StatusErr
	}

	done := t.Now()
	if req.Sampled() {
		appendPiggySpans(resp, req, tr, dispatched-arrived, done-dispatched)
	}
	sc.conn.Send(t, rpcproto.AppendResponseFrame(rpcproto.GetBuf(), resp))
	end := t.Now()
	tr.Span("node", dispatched-arrived, end-done)
	s.cfg.Tracer.End(tr)
	if pid < len(s.o.partLat) {
		s.o.partLat[pid].Record(end - arrived)
	}
}

// appendPiggySpans builds the span section a sampled request's response
// carries back upstream: every stage the local trace recorded during
// execution, tagged with this server's chain hop, plus the node span — the
// handler window not already covered by a local stage or by the downstream
// spans a relaying handler merged into resp.Spans. Summing the resulting
// disjoint (non-nested) spans therefore reproduces the server-side elapsed
// time, which is what lets the issuing client decompose its measured round
// trip without a shared clock. Appends reuse resp.Spans capacity, so the
// traced steady state stays allocation-free.
func appendPiggySpans(resp *rpcproto.Response, req *rpcproto.Request, tr *obs.Trace, queue, total runtime.Time) {
	hop := req.Hop + 1
	// Time already attributed: downstream piggyback spans (the forward's
	// remote side) plus the local disjoint stages. Nested stages (cpu, ssd,
	// device) break down the engine span and must not be double-counted.
	covered := rpcproto.DisjointTotalNS(resp.Spans)
	if tr != nil {
		for _, sp := range tr.Spans {
			sid := rpcproto.StageIDOf(sp.Stage)
			if sid == 0 {
				continue
			}
			resp.Spans = append(resp.Spans, rpcproto.PSpan{
				Stage: sid, Hop: hop,
				QueueNS: int64(sp.Queue), ServiceNS: int64(sp.Service),
			})
			if !sid.Nested() {
				covered += int64(sp.Queue) + int64(sp.Service)
			}
		}
	}
	svc := int64(total) - covered
	if svc < 0 {
		svc = 0
	}
	resp.Spans = append(resp.Spans, rpcproto.PSpan{
		Stage: rpcproto.StageNode, Hop: hop,
		QueueNS: int64(queue), ServiceNS: svc,
	})
}

// handleBatch executes one MultiGet/MultiPut/MultiDel and answers with one
// FrameBatchResp in item order. A MultiGet runs item by item on this task.
// A write batch runs its first partition's items here and each further
// partition's on a helper task, sequential within a partition; a helper's
// panic is re-raised here once no helper still uses w, so process answers
// the batch with an ErrorFrame as for a single request.
func (s *Server) handleBatch(t runtime.Task, sc *serverConn, w *reqWork) {
	n := len(w.items)
	if cap(w.statuses) < n {
		w.statuses = make([]rpcproto.Status, n)
	}
	for len(w.vals) < n {
		w.vals = append(w.vals, nil)
	}
	sts, vals := w.statuses[:n], w.vals[:n]

	switch w.req.Op {
	case rpcproto.OpGet:
		for i := range w.items {
			s.execItem(t, w, s.route(w.items[i].Key), i)
		}
	case rpcproto.OpPut, rpcproto.OpDel:
		if len(w.perPart) < len(s.handles) {
			w.perPart = make([][]int, len(s.handles))
		}
		for i := range w.items {
			pid := s.route(w.items[i].Key)
			if len(w.perPart[pid]) == 0 {
				w.used = append(w.used, pid)
			}
			w.perPart[pid] = append(w.perPart[pid], i)
		}
		if len(w.used) == 0 {
			break // empty batch
		}
		w.helpers = len(w.used) - 1
		for _, pid := range w.used[1:] {
			s.env.Spawn("server-batch", func(q runtime.Task) {
				s.execPart(q, w, pid)
				if w.helpers--; w.helpers == 0 && w.tk != nil {
					w.tk.Wake()
				}
			})
		}
		s.execPart(t, w, w.used[0])
		for w.helpers > 0 {
			w.tk = t.Prepare()
			t.Park()
		}
		w.tk = nil
		if w.panicked != nil {
			panic(w.panicked)
		}
	default:
		s.o.errors.Inc()
		for i := range sts {
			sts[i] = rpcproto.StatusErr
		}
	}
	sc.conn.Send(t, rpcproto.AppendBatchRespFrame(rpcproto.GetBuf(), w.req.ID, sts, vals))
}

// execPart runs partition pid's items of a write batch. A panic marks them
// all StatusErr and is kept for handleBatch: a helper task has no recover
// above it, so letting the panic through would kill the process.
func (s *Server) execPart(t runtime.Task, w *reqWork, pid int) {
	defer func() {
		if r := recover(); r != nil {
			for _, i := range w.perPart[pid] {
				w.statuses[i] = rpcproto.StatusErr
			}
			w.panicked = r
		}
	}()
	for _, i := range w.perPart[pid] {
		s.execItem(t, w, pid, i)
	}
}

// execItem executes batch item i on partition pid. A read lands in the
// item's buffer (empty on entry) and takes the device's inline mmap lane
// when open.
func (s *Server) execItem(t runtime.Task, w *reqWork, pid, i int) {
	it := &w.items[i]
	if s.cfg.testHook != nil {
		s.cfg.testHook(&rpcproto.Request{Op: w.req.Op, Key: it.Key, Value: it.Value})
	}
	val, _, err := s.handles[pid].ExecuteTracedInto(t, w.req.Op, it.Key, it.Value, w.vals[i], nil)
	switch {
	case err == core.ErrNotFound:
		w.statuses[i] = rpcproto.StatusNotFound
	case err != nil:
		s.o.errors.Inc()
		w.statuses[i] = rpcproto.StatusErr
	default:
		w.statuses[i] = rpcproto.StatusOK
		if val != nil {
			w.vals[i] = val
		}
	}
	s.o.reqInc(w.req.Op)
}

// sendError reports a request-level failure as an ErrorFrame.
func (s *Server) sendError(t runtime.Task, sc *serverConn, e *rpcproto.ErrorFrame) {
	sc.conn.Send(t, rpcproto.AppendErrorFrame(rpcproto.GetBuf(), e))
}

// closeConn retires one connection: deregister, close the transport, and
// stop the worker pool. Stop sentinels queue behind any still-admitted
// work, so a close racing queued requests lets them finish their
// bookkeeping first. Task or scheduler context.
func (s *Server) closeConn(sc *serverConn) {
	if sc.closed {
		return
	}
	sc.closed = true
	delete(s.conns, sc)
	s.o.connsNow.Set(int64(len(s.conns)))
	sc.conn.Close()
	for i := 0; i < sc.workers; i++ {
		sc.workQ.Put(workerStop{})
	}
	sc.workers = 0
}

// Close starts a graceful drain and returns immediately: listeners stop
// accepting, in-flight requests complete and flush, idle connections
// close now and busy ones close as their last response lands. Safe from
// any goroutine; idempotent. On the wallclock backend, Env.Wait() returns
// once the drain (and everything else) has finished.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.env.After(0, s.drain)
	return nil
}

// drain runs in scheduler context.
func (s *Server) drain() {
	s.draining = true
	for _, l := range s.listeners {
		l.Close()
	}
	for sc := range s.conns {
		if sc.inflight == 0 {
			s.closeConn(sc)
		}
	}
}

// NumPartitions returns how many engine partitions the server routes over.
func (s *Server) NumPartitions() int { return len(s.handles) }
