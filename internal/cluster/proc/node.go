package proc

import (
	"errors"
	"fmt"
	"time"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// NodeConfig wires one JBOF process.
type NodeConfig struct {
	Env *wallclock.Env
	ID  cluster.NodeID // nonzero (0 is the observer convention)

	Listen    string // RPC listen address for clients and peers (:0 ok)
	Advertise string // address peers dial; defaults to the bound Listen addr
	Manager   string // the control plane's heartbeat address

	// MetricsAddr is the node's metrics endpoint as scraped from outside
	// (host:port serving /metrics.raw.json). Carried in every heartbeat so
	// the manager's fleet aggregator discovers members without separate
	// configuration. Empty = the node is not scrapeable.
	MetricsAddr string

	// NumPart is the global partition count; must match the manager's.
	// Default 8. Engine partition ids equal global partition numbers, so
	// every node can host every partition (the slot budget a JBOF-scale
	// deployment would tune is not the point of the process split).
	NumPart int

	SSDs        int   // simulated drives backing the engine. Default 2.
	SSDCapacity int64 // per-drive capacity. Default 64 MiB.

	// KeyLen/ValLen shape the store geometry. Defaults 16/256.
	KeyLen, ValLen int

	// HBInterval is the heartbeat (and therefore view-pull) cadence.
	// Default 50ms — comfortably inside the manager's 750ms timeout.
	HBInterval runtime.Time

	// Obs and Tracer are optional.
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// NodeStats are cumulative counters.
type NodeStats struct {
	Gets, Puts, Dels int64
	Forwards         int64 // writes relayed to the next chain member
	Nacks            int64
	CopiesSent       int64
	CopiesReceived   int64
	ShieldedCopies   int64 // COPY items dropped: a newer chain write was present
}

// Node is one multi-process LEED storage server: an engine behind a
// handler-mode rpcproto server, a heartbeat loop pulling views from the
// manager, and per-peer reliable clients carrying chain forwards. All state
// is mutated only in task context on one wallclock env — the execution
// contract is the lock, exactly as in the goroutine cluster.
type Node struct {
	cfg NodeConfig
	env *wallclock.Env
	eng *engine.Engine
	srv *server.Server
	ln  *transport.TCPListener

	view  *cluster.View
	addrs map[cluster.NodeID]string
	// Per-partition routing state rebuilt on every view install, so the
	// hot handler path is array lookups, not map traffic.
	chains  [][]cluster.NodeID
	myPos   []int            // chain position of this node, -1 when not a member
	readRep []cluster.NodeID // read-serving replica, 0 when chain empty
	member  []bool

	// peers are the ChainFwd reliable clients, keyed by dial address so a
	// node that comes back on a new port gets a fresh connection.
	peers map[string]*server.ReliableClient

	// fresh is the copy shield (see the in-process cluster.Node): keys a
	// still-unsynced replica absorbed from live chain writes while a COPY
	// into it was in flight. COPY items for such keys carry the older
	// migration snapshot and must be acked without writing.
	fresh map[uint32]map[string]bool

	// copies tracks COPY commands this node sources, by lifecycle:
	// copyRunning while the transfer task streams, copyDone until a view
	// push stops redelivering the command (the manager saw our Done).
	copies map[copyKey]uint8

	hbConn  transport.Conn
	stopped bool
	stats   NodeStats
	o       *nodeObs
}

// Copy lifecycle states (Node.copies values).
const (
	copyRunning uint8 = 1
	copyDone    uint8 = 2
)

// nodeObs is the node's registry binding; always constructed (a nil
// registry hands back working unregistered counters).
type nodeObs struct {
	gets, puts, dels *obs.Counter
	forwards         *obs.Counter
	nacks            *obs.Counter
	copiesSent       *obs.Counter
	copiesReceived   *obs.Counter
	shieldedCopies   *obs.Counter
	epochG           *obs.Gauge
}

func newNodeObs(reg *obs.Registry, id cluster.NodeID) *nodeObs {
	node := fmt.Sprintf("n%d", id)
	c := func(name string) *obs.Counter { return reg.Counter(name, "node", node) }
	return &nodeObs{
		gets:           c("leed_node_gets_total"),
		puts:           c("leed_node_puts_total"),
		dels:           c("leed_node_dels_total"),
		forwards:       c("leed_node_forwards_total"),
		nacks:          c("leed_node_nacks_total"),
		copiesSent:     c("leed_node_copies_sent_total"),
		copiesReceived: c("leed_node_copies_received_total"),
		shieldedCopies: c("leed_node_shielded_copies_total"),
		epochG:         reg.Gauge("leed_cluster_view_epoch"),
	}
}

// newNode builds the node's engine and state without any I/O; tests use it
// to drive the handler directly.
func newNode(cfg NodeConfig) *Node {
	if cfg.NumPart == 0 {
		cfg.NumPart = 8
	}
	if cfg.SSDs == 0 {
		cfg.SSDs = 2
	}
	if cfg.SSDCapacity == 0 {
		cfg.SSDCapacity = 64 << 20
	}
	if cfg.KeyLen == 0 {
		cfg.KeyLen = 16
	}
	if cfg.ValLen == 0 {
		cfg.ValLen = 256
	}
	if cfg.HBInterval == 0 {
		cfg.HBInterval = 50 * runtime.Millisecond
	}
	partsPerSSD := (cfg.NumPart + cfg.SSDs - 1) / cfg.SSDs
	partBytes := cfg.SSDCapacity / int64(partsPerSSD)
	devs := make([]flashsim.Device, cfg.SSDs)
	for i := range devs {
		d := flashsim.NewMemDevice(cfg.Env, cfg.SSDCapacity)
		d.SetSyncReads(true)
		devs[i] = d
	}
	n := &Node{
		cfg: cfg,
		env: cfg.Env,
		eng: engine.New(engine.Config{
			Env:              cfg.Env,
			Devices:          devs,
			PartitionsPerSSD: partsPerSSD,
			Geometry:         core.PlanPartition(partBytes, cfg.KeyLen, cfg.ValLen, core.PlanOpts{}),
			PartitionBytes:   partBytes,
			Obs:              cfg.Obs,
			Tracer:           cfg.Tracer,
			ObsNode:          fmt.Sprintf("n%d", cfg.ID),
		}),
		addrs:   make(map[cluster.NodeID]string),
		chains:  make([][]cluster.NodeID, cfg.NumPart),
		myPos:   make([]int, cfg.NumPart),
		readRep: make([]cluster.NodeID, cfg.NumPart),
		member:  make([]bool, cfg.NumPart),
		peers:   make(map[string]*server.ReliableClient),
		fresh:   make(map[uint32]map[string]bool),
		copies:  make(map[copyKey]uint8),
		o:       newNodeObs(cfg.Obs, cfg.ID),
	}
	for i := range n.myPos {
		n.myPos[i] = -1
	}
	return n
}

// StartNode builds the engine, mounts the handler-mode server on Listen,
// and launches the heartbeat loop toward the manager. Returns once the
// listener is bound; the node joins the cluster (and starts serving
// non-NACK responses) when its first view push lands.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == 0 {
		return nil, errors.New("proc: node ID must be nonzero")
	}
	if cfg.Manager == "" {
		return nil, errors.New("proc: node needs a manager address")
	}
	n := newNode(cfg)
	ln, err := transport.ListenTCPOpts(n.env, n.cfg.Listen, transport.TCPOptions{
		ReadIdleTimeout: 30 * time.Second,
		WriteTimeout:    5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	n.ln = ln
	if n.cfg.Advertise == "" {
		n.cfg.Advertise = ln.Addr()
	}
	n.eng.Start()
	n.srv = server.New(server.Config{
		Env:     n.env,
		Engine:  n.eng,
		Handler: n,
		Obs:     n.cfg.Obs,
		Tracer:  n.cfg.Tracer,
	})
	n.srv.Serve(ln)
	n.env.Spawn(fmt.Sprintf("node%d-hb", n.cfg.ID), n.heartbeatLoop)
	return n, nil
}

// Addr returns the bound RPC address.
func (n *Node) Addr() string { return n.ln.Addr() }

// Stats returns cumulative counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Epoch returns the node's current view epoch (0 before the first push).
func (n *Node) Epoch() uint64 {
	if n.view == nil {
		return 0
	}
	return n.view.Epoch
}

// Close drains the server, stops the engine and loops, and drops every
// connection. Safe from any goroutine; returns once the drain is ordered.
func (n *Node) Close() error {
	n.srv.Close()
	n.env.After(0, func() {
		n.stopped = true
		n.eng.Stop()
		if n.hbConn != nil {
			n.hbConn.Close()
		}
		for _, p := range n.peers {
			p.Close()
		}
	})
	return nil
}

// peer returns (creating on first use) the ChainFwd reliable client for a
// peer address. Task context.
func (n *Node) peer(addr string) *server.ReliableClient {
	if rc, ok := n.peers[addr]; ok {
		return rc
	}
	rc := server.NewReliableClient(server.ReliableConfig{
		Env: n.env,
		Dial: func(t runtime.Task) (transport.Conn, error) {
			return transport.DialTCPOpts(n.env, addr, transport.TCPOptions{
				ReadIdleTimeout: 30 * time.Second,
				WriteTimeout:    5 * time.Second,
			})
		},
		Depth:       32,
		Deadline:    500 * runtime.Millisecond,
		MaxAttempts: 2,
		BackoffBase: 5 * runtime.Millisecond,
		Seed:        int64(n.cfg.ID),
		ChainFwd:    true,
		Obs:         n.cfg.Obs,
	})
	n.peers[addr] = rc
	return rc
}

// applyPush installs a view push: the rehydrated view, the address book it
// carried, and the COPY commands addressed to this node. Task context.
func (n *Node) applyPush(t runtime.Task, vp *rpcproto.ViewPush) {
	v, addrs := viewFromPush(vp)
	for id, a := range addrs {
		n.addrs[id] = a
	}
	if n.view == nil || v.Epoch > n.view.Epoch {
		n.applyView(v)
	}
	// COPY mailbox reconciliation: commands in the push and unknown here
	// start a transfer; commands we finished stay `copyDone` (re-reported in
	// every heartbeat) until a push omits them — that is the manager
	// acknowledging our Done.
	seen := make(map[copyKey]bool, len(vp.Copies))
	for _, cp := range vp.Copies {
		key := copyKey{part: cp.Partition, dest: cluster.NodeID(cp.Dest)}
		seen[key] = true
		if n.copies[key] == 0 {
			n.copies[key] = copyRunning
			cmd := key
			n.env.Spawn(fmt.Sprintf("node%d-copy", n.cfg.ID), func(ct runtime.Task) { n.runCopy(ct, cmd) })
		}
	}
	for key, st := range n.copies {
		if st == copyDone && !seen[key] {
			delete(n.copies, key)
		}
	}
}

// applyView recomputes the per-partition routing arrays and the membership
// transitions. A partition this node newly replicates while unsynced is
// reset first — it is about to be rebuilt by COPY plus live chain writes,
// and must not leak objects from an earlier membership.
func (n *Node) applyView(v *cluster.View) {
	n.view = v
	n.o.epochG.Set(int64(v.Epoch))
	for part := 0; part < n.cfg.NumPart; part++ {
		p32 := uint32(part)
		chain := v.Chain(p32)
		n.chains[part] = chain
		pos := -1
		for i, id := range chain {
			if id == n.cfg.ID {
				pos = i
			}
		}
		n.myPos[part] = pos
		if rep, ok := ReadReplica(v, p32); ok {
			n.readRep[part] = rep
		} else {
			n.readRep[part] = 0
		}
		isMember := pos >= 0
		if isMember && !n.member[part] && !v.Synced(p32, n.cfg.ID) {
			n.eng.ResetPartition(part)
			n.fresh[p32] = make(map[string]bool)
		}
		if v.Synced(p32, n.cfg.ID) {
			// Synced means the migration COPY has fully landed; the shield
			// has nothing left to protect.
			delete(n.fresh, p32)
		}
		n.member[part] = isMember
	}
}

// heartbeatLoop beats the manager every HBInterval on one long-lived
// connection, redialing with backoff when it dies, and applies each view
// push reply.
func (n *Node) heartbeatLoop(t runtime.Task) {
	for !n.stopped {
		if n.hbConn == nil {
			c, err := transport.DialTCPOpts(n.env, n.cfg.Manager, transport.TCPOptions{
				// The conn idles a full HBInterval between beats; the idle
				// reaper exists only for a manager that died without a FIN.
				ReadIdleTimeout: 30 * time.Second,
				WriteTimeout:    5 * time.Second,
			})
			if err != nil {
				t.Sleep(n.cfg.HBInterval)
				continue
			}
			n.hbConn = c
		}
		hb := &rpcproto.Heartbeat{
			Node:        uint64(n.cfg.ID),
			Epoch:       n.Epoch(),
			Addr:        n.cfg.Advertise,
			MetricsAddr: n.cfg.MetricsAddr,
		}
		for key, st := range n.copies {
			if st == copyDone {
				hb.Done = append(hb.Done, rpcproto.CopyRef{Partition: key.part, Dest: uint64(key.dest)})
			}
		}
		vp, err := hbExchange(t, n.hbConn, hb)
		if err != nil {
			n.hbConn.Close()
			n.hbConn = nil
			t.Sleep(n.cfg.HBInterval)
			continue
		}
		if n.stopped {
			return
		}
		n.applyPush(t, vp)
		t.Sleep(n.cfg.HBInterval)
	}
}

// copyRetryRounds bounds COPY item resends; the command is reported Done
// even if items remain unacked (e.g. the destination died), so the control
// plane is never stuck waiting on a migration that cannot finish.
const copyRetryRounds = 5

// runCopy streams one partition's objects to dest as OpCopy peer requests
// and records the command done. Items that fail are retried in bounded
// rounds — a silently dropped item would leave a permanent hole in the
// repaired replica.
func (n *Node) runCopy(t runtime.Task, cmd copyKey) {
	defer func() { n.copies[cmd] = copyDone }()
	pid := int(cmd.part)
	if pid >= n.eng.NumPartitions() {
		return
	}
	type copyItem struct{ key, val []byte }
	var items []copyItem
	n.eng.Partition(pid).Store.Range(t, func(key, val []byte) bool {
		if n.stopped {
			return false
		}
		items = append(items, copyItem{
			key: append([]byte(nil), key...),
			val: append([]byte(nil), val...),
		})
		return true
	})
	for round := 0; round < copyRetryRounds && len(items) > 0; round++ {
		if n.stopped {
			return
		}
		addr := n.addrs[cmd.dest]
		if addr == "" {
			// The destination's address rides the next view push.
			t.Sleep(n.cfg.HBInterval)
			continue
		}
		rc := n.peer(addr)
		left := items[:0]
		for _, it := range items {
			if n.stopped {
				return
			}
			n.stats.CopiesSent++
			n.o.copiesSent.Inc()
			req := &rpcproto.Request{
				ID: uint64(n.stats.CopiesSent), Op: rpcproto.OpCopy,
				Partition: cmd.part, Epoch: n.Epoch(),
				Key: it.key, Value: it.val,
			}
			resp, err := rc.Do(t, req)
			if err != nil || resp.Status != rpcproto.StatusOK {
				left = append(left, it)
			}
		}
		items = left
	}
}

// nack fills a NACK response carrying this node's epoch so the sender can
// tell whether refreshing its view will help.
func (n *Node) nack(resp *rpcproto.Response) {
	n.stats.Nacks++
	n.o.nacks.Inc()
	resp.Status = rpcproto.StatusNack
	resp.Epoch = n.Epoch()
}

// Handle implements server.Handler: validation, engine execution, and chain
// forwarding for one admitted request. Task context; a chain forward's
// round trip blocks one pipeline slot, which is the backpressure that keeps
// an overloaded downstream from being buried. tr is the request's trace
// (nil untraced): engine execution and the forward's wire time are
// attributed to it, and a sampled request's downstream piggyback spans are
// merged into resp.Spans for the server to relay upstream.
func (n *Node) Handle(t runtime.Task, fwd bool, req *rpcproto.Request, resp *rpcproto.Response, scratch []byte, tr *obs.Trace) []byte {
	v := n.view
	if v == nil || int64(req.Partition) >= int64(n.cfg.NumPart) {
		n.nack(resp)
		return scratch
	}
	switch req.Op {
	case rpcproto.OpCopy:
		if !fwd {
			// COPY is peer-only traffic; a client-framed COPY is hostile.
			resp.Status = rpcproto.StatusErr
			return scratch
		}
		return n.handleCopy(t, req, resp, scratch)
	case rpcproto.OpGet:
		return n.handleGet(t, req, resp, scratch, tr)
	case rpcproto.OpPut, rpcproto.OpDel:
		if !fwd && req.Hop != 0 {
			// Client traffic enters chains only at the head: a hop-spoofed
			// client write would be acked without the upstream replicas.
			n.nack(resp)
			return scratch
		}
		return n.handleWrite(t, req, resp, scratch, tr)
	default:
		resp.Status = rpcproto.StatusErr
		return scratch
	}
}

func (n *Node) handleCopy(t runtime.Task, req *rpcproto.Request, resp *rpcproto.Response, scratch []byte) []byte {
	part := req.Partition
	if n.fresh[part][string(req.Key)] {
		// The chain already wrote a newer version of this key directly into
		// this (joining) replica; the COPY carries the older migration
		// snapshot. Ack without writing — repair must not travel back in
		// time.
		n.stats.ShieldedCopies++
		n.o.shieldedCopies.Inc()
		resp.Status = rpcproto.StatusOK
		return scratch
	}
	n.stats.CopiesReceived++
	n.o.copiesReceived.Inc()
	_, _, err := n.eng.Execute(t, int(part), rpcproto.OpPut, req.Key, req.Value)
	if err != nil {
		resp.Status = rpcproto.StatusErr
		return scratch
	}
	resp.Status = rpcproto.StatusOK
	return scratch
}

func (n *Node) handleGet(t runtime.Task, req *rpcproto.Request, resp *rpcproto.Response, scratch []byte, tr *obs.Trace) []byte {
	v := n.view
	if req.Epoch != v.Epoch {
		n.nack(resp)
		return scratch
	}
	part := int(req.Partition)
	if n.myPos[part] < 0 || n.readRep[part] != n.cfg.ID {
		// Reads are served only at the partition's read replica (the most
		// downstream synced chain member): with synchronous chain acks a
		// value visible there is on every upstream replica, so reads are
		// committed reads.
		n.nack(resp)
		return scratch
	}
	n.stats.Gets++
	n.o.gets.Inc()
	val, _, err := n.eng.ExecuteTracedInto(t, part, rpcproto.OpGet, req.Key, nil, scratch[:0], tr)
	switch {
	case err == core.ErrNotFound:
		resp.Status = rpcproto.StatusNotFound
	case err != nil:
		resp.Status = rpcproto.StatusErr
	default:
		resp.Status = rpcproto.StatusOK
		resp.Value = val
		if cap(val) > cap(scratch) {
			scratch = val[:0]
		}
	}
	return scratch
}

func (n *Node) handleWrite(t runtime.Task, req *rpcproto.Request, resp *rpcproto.Response, scratch []byte, tr *obs.Trace) []byte {
	v := n.view
	if req.Epoch != v.Epoch {
		n.nack(resp)
		return scratch
	}
	part := int(req.Partition)
	pos := n.myPos[part]
	chain := n.chains[part]
	if pos < 0 || pos != int(req.Hop) {
		n.nack(resp)
		return scratch
	}
	p32 := req.Partition
	if !v.Synced(p32, n.cfg.ID) {
		// Raise the copy shield: this direct chain write is newer than any
		// in-flight COPY item for the same key.
		fm := n.fresh[p32]
		if fm == nil {
			fm = make(map[string]bool)
			n.fresh[p32] = fm
		}
		fm[string(req.Key)] = true
	}
	if req.Op == rpcproto.OpPut {
		n.stats.Puts++
		n.o.puts.Inc()
	} else {
		n.stats.Dels++
		n.o.dels.Inc()
	}
	_, _, err := n.eng.ExecuteTraced(t, part, req.Op, req.Key, req.Value, tr)
	if err != nil && err != core.ErrNotFound {
		resp.Status = rpcproto.StatusErr
		return scratch
	}
	status := rpcproto.StatusOK
	if err == core.ErrNotFound {
		status = rpcproto.StatusNotFound
	}
	if pos == len(chain)-1 {
		// Tail: the commitment point. With the synchronous acks below, an
		// OK reaching the client means every chain replica holds the write.
		resp.Status = status
		return scratch
	}
	// Forward downstream and ack upstream only after the rest of the chain
	// absorbed the write. A failed forward is ambiguous — the downstream
	// state is unknown — and surfaces as StatusErr, which the reliable
	// client will NOT retry for writes.
	n.stats.Forwards++
	n.o.forwards.Inc()
	next := chain[pos+1]
	addr := n.addrs[next]
	if addr == "" {
		resp.Status = rpcproto.StatusErr
		return scratch
	}
	// The struct copy carries the trace context (TraceID/TraceFlags) along
	// with the payload, so the whole chain executes under one trace.
	fwdReq := *req
	fwdReq.Hop++
	fstart := t.Now()
	dresp, derr := n.peer(addr).Do(t, &fwdReq)
	if derr != nil {
		resp.Status = rpcproto.StatusErr
		return scratch
	}
	// Attribute the forward: the downstream response's spans already account
	// for the time the remote side spent, so the fwd span is the round trip
	// minus that — the node-to-node wire and scheduling cost. The remote
	// spans themselves ride resp.Spans upstream, which is how the issuing
	// client sees the whole chain in one trace.
	rtt := t.Now() - fstart
	tr.Span("fwd", 0, rtt-runtime.Time(rpcproto.DisjointTotalNS(dresp.Spans)))
	resp.Spans = append(resp.Spans, dresp.Spans...)
	// The most-downstream outcome is authoritative (the tail decides
	// NotFound for a DEL of a missing key, exactly as in-process). A
	// downstream NACK is not: this node and its upstream already hold the
	// write, so relaying "never executed" would lie to the client. Like a
	// failed forward, it is ambiguous.
	resp.Status = dresp.Status
	if dresp.Status == rpcproto.StatusNack {
		resp.Status = rpcproto.StatusErr
	}
	return scratch
}
