package main

import (
	"encoding/json"
	"os"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/server"
	"leed/internal/transport"
)

// The traced run sees the program only through seams its packages already
// export: a flashsim.Device in front of the real device, a transport
// Listener/Conn in front of the TCP one, a server.Handler around
// engine.Handle.ExecuteTracedInto. Each decorator times the call it wraps
// and adds to a layerTrace; nothing inside internal/ is instrumented. All
// decorator methods run in task or scheduler context of one Env, so the
// execution contract is the lock for everything in this file.

const (
	opGet = 0
	opPut = 1

	maxKeptSpans = 1 << 16 // spans kept in memory per process; later ones only add to the sums
)

func opIndex(op rpcproto.Op) int {
	if op == rpcproto.OpGet {
		return opGet
	}
	return opPut
}

var opNames = [2]string{"GET", "PUT"}

// span is one timed interval at a layer boundary. Spans of one request
// share (Conn, Req); Parent names the layer whose span caused this one.
type span struct {
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	Op      string `json:"op"`
	Conn    int    `json:"conn"`
	Req     uint64 `json:"req,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceSums is what one process's decorators add up between reset and dump.
type traceSums struct {
	// Per op type (GET, PUT), over every request the decorators saw.
	Requests    [2]int64 `json:"requests"`
	ResidencyNS [2]int64 `json:"residency_ns"` // conn: request received -> response handed to Send
	Handled     [2]int64 `json:"handled"`
	HandlerNS   [2]int64 `json:"handler_ns"`  // handler: around ExecuteTracedInto
	DevWaitNS   [2]int64 `json:"dev_wait_ns"` // core.OpStats.SSD of those calls

	// Device decorator: every op submitted, background work included.
	DevOps    int64 `json:"dev_ops"`
	DevBusyNS int64 `json:"dev_busy_ns"` // submit -> done, plus inline reads
}

type layerTrace struct {
	sums  traceSums
	spans []span
}

func (lt *layerTrace) keep(s span) {
	if len(lt.spans) < maxKeptSpans {
		lt.spans = append(lt.spans, s)
	}
}

func (lt *layerTrace) reset() { lt.sums, lt.spans = traceSums{}, lt.spans[:0] }

// dump appends the kept spans to path as JSON lines and returns the sums.
func (lt *layerTrace) dump(path string) (traceSums, error) {
	if path == "" {
		return lt.sums, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return lt.sums, err
	}
	enc := json.NewEncoder(f)
	for i := range lt.spans {
		if err := enc.Encode(&lt.spans[i]); err != nil {
			f.Close()
			return lt.sums, err
		}
	}
	return lt.sums, f.Close()
}

// ---- flashsim.Device decorator ------------------------------------------

type tracedDevice struct {
	inner flashsim.Device
	env   runtime.Env
	lt    *layerTrace
}

// timedEvent stands in for an op's Done event so the decorator sees the
// instant the device fires it, not a callback scheduled afterwards.
type timedEvent struct {
	runtime.Event
	d    *tracedDevice
	kind flashsim.OpKind
	at   runtime.Time
}

func (e *timedEvent) Fire(val any) {
	now := e.d.env.Now()
	e.d.lt.sums.DevOps++
	e.d.lt.sums.DevBusyNS += int64(now - e.at)
	e.d.lt.keep(span{Layer: "device", Op: e.kind.String(), StartNS: int64(e.at), EndNS: int64(now)})
	e.Event.Fire(val)
}

func (d *tracedDevice) Submit(op *flashsim.Op) {
	op.Done = &timedEvent{Event: op.Done, d: d, kind: op.Kind, at: d.env.Now()}
	d.inner.Submit(op)
}

func (d *tracedDevice) Capacity() int64       { return d.inner.Capacity() }
func (d *tracedDevice) Stats() flashsim.Stats { return d.inner.Stats() }

// TryReadAt keeps the inner device's inline read lane open through the
// decorator (core looks for flashsim.SyncReader on the device it is given).
func (d *tracedDevice) TryReadAt(dst []byte, off int64) bool {
	sr, ok := d.inner.(flashsim.SyncReader)
	if !ok {
		return false
	}
	t0 := d.env.Now()
	if !sr.TryReadAt(dst, off) {
		return false
	}
	d.lt.sums.DevOps++
	d.lt.sums.DevBusyNS += int64(d.env.Now() - t0)
	return true
}

// ---- transport.Listener / Conn decorator --------------------------------

type tracedListener struct {
	transport.Listener
	lt    *layerTrace
	conns int
}

func (l *tracedListener) Accept(t runtime.Task) (transport.Conn, error) {
	c, err := l.Listener.Accept(t)
	if err != nil {
		return nil, err
	}
	l.conns++
	return &tracedConn{Conn: c, lt: l.lt, idx: l.conns, open: map[uint64]openReq{}}, nil
}

type openReq struct {
	at runtime.Time
	op int
}

// tracedConn times each request between the two ends of one side of a
// connection: on a server, frame received -> response sent (residency); on
// a client, request sent -> response received (the wire as the client's
// connection sees it). Requests are matched to responses by ID.
type tracedConn struct {
	transport.Conn
	lt     *layerTrace
	idx    int
	client bool
	open   map[uint64]openReq
	items  []rpcproto.BatchItem
}

func (c *tracedConn) Recv(t runtime.Task) ([]byte, error) {
	frame, err := c.Conn.Recv(t)
	if err == nil {
		c.see(t, frame, !c.client)
	}
	return frame, err
}

func (c *tracedConn) Send(t runtime.Task, frame []byte) error {
	c.see(t, frame, c.client) // before Send: it takes ownership of the frame
	return c.Conn.Send(t, frame)
}

// see inspects one frame passing through; opening is true for the frame
// that starts the interval this side measures.
func (c *tracedConn) see(t runtime.Task, frame []byte, opening bool) {
	kind, payload, _, err := rpcproto.DecodeFrame(frame)
	if err != nil {
		return
	}
	var id uint64
	op := opGet
	switch kind {
	case rpcproto.FrameRequest:
		var r rpcproto.Request
		if _, err := r.DecodeBorrow(payload); err != nil {
			return
		}
		id, op = r.ID, opIndex(r.Op)
	case rpcproto.FrameBatchReq:
		bid, bop, items, err := rpcproto.DecodeBatchReq(payload, c.items[:0])
		if err != nil {
			return
		}
		c.items = items[:0]
		id, op = bid, opIndex(bop)
	case rpcproto.FrameResponse:
		var r rpcproto.Response
		if _, err := r.DecodeBorrow(payload); err != nil {
			return
		}
		id = r.ID
	case rpcproto.FrameBatchResp:
		bid, err := rpcproto.BatchID(payload)
		if err != nil {
			return
		}
		id = bid
	default:
		return
	}
	now := t.Now()
	if opening {
		c.open[id] = openReq{at: now, op: op}
		return
	}
	o, ok := c.open[id]
	if !ok {
		return
	}
	delete(c.open, id)
	c.lt.sums.Requests[o.op]++
	c.lt.sums.ResidencyNS[o.op] += int64(now - o.at)
	layer, parent := "server", "wire"
	if c.client {
		layer, parent = "conn", "client"
	}
	c.lt.keep(span{Layer: layer, Parent: parent, Op: opNames[o.op], Conn: c.idx, Req: id,
		StartNS: int64(o.at), EndNS: int64(now)})
}

// ---- server.Handler decorator -------------------------------------------

// tracedHandler is the single-op route-and-execute step of internal/server
// (key hash -> virtual partition -> ring owner -> engine.Handle), rebuilt
// from the same public pieces so the call into the engine can be timed.
type tracedHandler struct {
	handles []engine.Handle
	owners  []int
	lt      *layerTrace
}

const serverVPartitions = 64 // server.Config.VPartitions' default

func newTracedHandler(eng *engine.Engine, lt *layerTrace) *tracedHandler {
	h := &tracedHandler{handles: eng.Handles(), owners: ringOwners(eng.NumPartitions(), serverVPartitions), lt: lt}
	return h
}

// ringOwners is the server's precomputed virtual-partition -> engine
// partition table.
func ringOwners(parts, vparts int) []int {
	members := make([]cluster.NodeID, parts)
	for i := range members {
		members[i] = cluster.NodeID(i)
	}
	ring := cluster.NewRing(members)
	owners := make([]int, vparts)
	for vp := range owners {
		owners[vp] = int(ring.OwnerOf(uint32(vp)))
	}
	return owners
}

func routeKey(owners []int, key []byte) int {
	return owners[cluster.PartitionOf(core.HashKey(key), len(owners))]
}

func (h *tracedHandler) Handle(t runtime.Task, fwd bool, req *rpcproto.Request, resp *rpcproto.Response,
	scratch []byte, tr *obs.Trace) []byte {
	pid := routeKey(h.owners, req.Key)
	t0 := t.Now()
	val, st, err := h.handles[pid].ExecuteTracedInto(t, req.Op, req.Key, req.Value, scratch[:0], tr)
	t1 := t.Now()
	switch {
	case err == core.ErrNotFound:
		resp.Status = rpcproto.StatusNotFound
	case err != nil:
		resp.Status = rpcproto.StatusErr
	default:
		resp.Status = rpcproto.StatusOK
		resp.Value = val
	}
	resp.Tokens = int32(h.handles[pid].AvailableTokens())

	op := opIndex(req.Op)
	h.lt.sums.Handled[op]++
	h.lt.sums.HandlerNS[op] += int64(t1 - t0)
	h.lt.sums.DevWaitNS[op] += int64(st.SSD)
	h.lt.keep(span{Layer: "engine", Parent: "server", Op: opNames[op], Req: req.ID, StartNS: int64(t0), EndNS: int64(t1)})
	if st.SSD > 0 {
		// The engine reports how long the call waited on the device, not
		// when; the span is placed at the start of the call.
		h.lt.keep(span{Layer: "device-wait", Parent: "engine", Op: opNames[op], Req: req.ID,
			StartNS: int64(t0), EndNS: int64(t0 + st.SSD)})
	}
	if val != nil {
		return val[:0]
	}
	return scratch
}

var _ server.Handler = (*tracedHandler)(nil)
