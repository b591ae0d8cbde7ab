package server

import (
	"errors"
	"fmt"

	"leed/internal/core"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/transport"
)

// ErrDeadlineExceeded reports a request that outlived its caller-imposed
// deadline. The request may still execute on the server — the deadline
// bounds the caller's wait, not the server's work — so the outcome is
// ambiguous and the retry policy must not blindly reissue writes.
var ErrDeadlineExceeded = errors.New("client: request deadline exceeded")

// call is one in-flight request's state, pooled on the client. The receive
// loop delivers the response frame into the call (resp/items alias frame),
// and the calling task consumes and releases it — single owner at every
// step. The steady-state path (GetInto/Put/Del) waits on the task's
// reusable Prepare/Park ticket; only the deadline path pays for an Event.
type call struct {
	id   uint64
	tk   runtime.Ticket // park-path wakeup; nil when ev is used
	ev   runtime.Event  // deadline-path wakeup; nil on the hot path
	done bool
	err  error

	frame []byte                   // borrowed response frame
	resp  rpcproto.Response        // single-op result; Value aliases frame
	items []rpcproto.BatchRespItem // batch result; Values alias frame

	// spans is the call-owned buffer behind resp.Spans: piggybacked spans
	// are copied out of the shared decode scratch at delivery (the scratch
	// is clobbered by the next inbound frame, which may land before this
	// call's owner consumes the response). Capacity survives recycling.
	spans []rpcproto.PSpan

	req rpcproto.Request // request scratch, avoids an escaping literal per op
}

// Client is a pipelined KV client over one transport.Conn. Up to depth
// requests are outstanding at once; a dedicated receiver task matches
// responses (which arrive in completion order, not issue order) back to
// their callers by request ID. All state is mutated only in task context,
// so the execution contract is the lock.
type Client struct {
	env  runtime.Env
	conn transport.Conn
	pipe *runtime.Resource

	nextID  uint64
	pending map[uint64]*call
	free    []*call
	scratch rpcproto.Response // recv-loop decode scratch, moved into a call
	err     error             // sticky; set when the connection dies

	// clientSt and netSt, bound when the client is traced, attribute each
	// call's pipeline-slot wait to the "client" stage and its wire round
	// trip to the "net" stage — the client-side half of the paper-style
	// attribution table; the server owns node/engine/cpu/ssd/device.
	clientSt, netSt *obs.StageBind

	// chainFwd frames single-op requests as FrameChainFwd peer traffic
	// instead of FrameRequest. See SetChainFwd.
	chainFwd bool
}

// SetChainFwd makes every single-op request leave as a FrameChainFwd peer
// frame instead of a client FrameRequest: same payload bytes, the peer
// discriminator. Cluster nodes set it on the connections that carry
// hop-to-hop chain forwards — servers accept the peer kind only when a
// Handler is installed. Set it right after construction, from task context.
func (c *Client) SetChainFwd(on bool) { c.chainFwd = on }

// appendReqFrame frames one single-op request under the client's kind.
func (c *Client) appendReqFrame(dst []byte, r *rpcproto.Request) []byte {
	if c.chainFwd {
		return rpcproto.AppendChainFwdFrame(dst, r)
	}
	return rpcproto.AppendRequestFrame(dst, r)
}

// NewClient wraps an established connection. depth bounds outstanding
// requests (the pipeline window); 0 means 16. Call from task context or
// before the environment starts running tasks.
func NewClient(env runtime.Env, conn transport.Conn, depth int64) *Client {
	return NewClientTraced(env, conn, depth, nil)
}

// NewClientTraced is NewClient with per-call stage attribution into tr.
func NewClientTraced(env runtime.Env, conn transport.Conn, depth int64, tr *obs.Tracer) *Client {
	if depth <= 0 {
		depth = 16
	}
	c := &Client{
		clientSt: tr.Bind("client"),
		netSt:    tr.Bind("net"),
		env:      env,
		conn:     conn,
		pipe:     env.MakeResource(depth),
		pending:  make(map[uint64]*call),
	}
	env.Spawn("client-recv", c.recvLoop)
	return c
}

func (c *Client) getCall() *call {
	if n := len(c.free); n > 0 {
		cl := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return cl
	}
	return &call{}
}

func (c *Client) putCall(cl *call) {
	cl.tk, cl.ev = nil, nil
	cl.done = false
	cl.err = nil
	cl.frame = nil
	cl.resp = rpcproto.Response{}
	cl.spans = cl.spans[:0]
	cl.req = rpcproto.Request{}
	for i := range cl.items {
		cl.items[i] = rpcproto.BatchRespItem{}
	}
	cl.items = cl.items[:0]
	if len(c.free) < 64 {
		c.free = append(c.free, cl)
	}
}

// release returns the call's borrowed frame to the pool and recycles the
// call. After release the call's resp/items must not be touched.
func (c *Client) release(cl *call) {
	if cl.frame != nil {
		rpcproto.PutBuf(cl.frame)
		cl.frame = nil
	}
	c.putCall(cl)
}

// recvLoop demultiplexes inbound frames to waiting callers. Response and
// batch-response frames are handed to the owning call still borrowed (no
// copy); error and overload frames are decoded here and their frames
// released immediately.
func (c *Client) recvLoop(t runtime.Task) {
	for {
		frame, err := c.conn.Recv(t)
		if err != nil {
			c.fail(err)
			return
		}
		kind, payload, _, err := rpcproto.DecodeFrame(frame)
		if err != nil {
			rpcproto.PutBuf(frame)
			c.fail(fmt.Errorf("client: bad frame from server: %w", err))
			c.conn.Close()
			return
		}
		switch kind {
		case rpcproto.FrameResponse:
			if _, err := c.scratch.DecodeBorrow(payload); err != nil {
				rpcproto.PutBuf(frame)
				c.fail(fmt.Errorf("client: bad response: %w", err))
				c.conn.Close()
				return
			}
			cl, ok := c.pending[c.scratch.ID]
			if !ok {
				rpcproto.PutBuf(frame) // late response after a deadline; drop
				continue
			}
			delete(c.pending, cl.id)
			cl.resp = c.scratch
			if len(c.scratch.Spans) > 0 {
				// Move the piggybacked spans into the call's own buffer: the
				// scratch's span slice is reused by the next decode, which
				// may run before this call's owner reads the response.
				cl.spans = append(cl.spans[:0], c.scratch.Spans...)
			}
			cl.resp.Spans = cl.spans
			cl.frame = frame
			c.deliver(cl)
		case rpcproto.FrameBatchResp:
			id, err := rpcproto.BatchID(payload)
			if err != nil {
				rpcproto.PutBuf(frame)
				c.fail(fmt.Errorf("client: bad batch response: %w", err))
				c.conn.Close()
				return
			}
			cl, ok := c.pending[id]
			if !ok {
				rpcproto.PutBuf(frame)
				continue
			}
			_, items, derr := rpcproto.DecodeBatchResp(payload, cl.items[:0])
			if derr != nil {
				rpcproto.PutBuf(frame)
				c.fail(fmt.Errorf("client: bad batch response: %w", derr))
				c.conn.Close()
				return
			}
			delete(c.pending, id)
			cl.items = items
			cl.frame = frame
			c.deliver(cl)
		case rpcproto.FrameError:
			ef, _, err := rpcproto.DecodeError(payload)
			rpcproto.PutBuf(frame)
			if err != nil {
				c.fail(fmt.Errorf("client: bad error frame: %w", err))
				c.conn.Close()
				return
			}
			if ef.ID == 0 {
				// The server could not attribute the failure to a request:
				// the stream is poisoned.
				c.fail(ef)
				c.conn.Close()
				return
			}
			c.completeErr(ef.ID, ef)
		case rpcproto.FrameOverload:
			of, _, err := rpcproto.DecodeOverload(payload)
			rpcproto.PutBuf(frame)
			if err != nil {
				c.fail(fmt.Errorf("client: bad overload frame: %w", err))
				c.conn.Close()
				return
			}
			c.completeErr(of.ID, of)
		default:
			rpcproto.PutBuf(frame)
		}
	}
}

// deliver wakes the caller waiting on cl. The call (and its borrowed
// frame) now belongs to that caller.
func (c *Client) deliver(cl *call) {
	cl.done = true
	if cl.ev != nil {
		cl.ev.Fire(nil)
	} else if cl.tk != nil {
		cl.tk.Wake()
	}
	// A caller that has sent but not yet parked finds done already set.
}

// completeErr resolves the call waiting on id with err. Unknown ids are
// ignored (a late response after a deadline or fail).
func (c *Client) completeErr(id uint64, err error) {
	if cl, ok := c.pending[id]; ok {
		delete(c.pending, id)
		cl.err = err
		c.deliver(cl)
	}
}

// fail poisons the client: every waiter and all future calls see err.
func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	for id, cl := range c.pending {
		delete(c.pending, id)
		cl.err = c.err
		c.deliver(cl)
	}
}

// await parks the task until the receiver delivers the call. Wakeups may
// be spurious, so it loops on the call's done flag.
func (c *Client) await(t runtime.Task, cl *call) {
	for !cl.done {
		cl.tk = t.Prepare()
		t.Park()
	}
	cl.tk = nil
}

// observe attributes one call to the client's stages: the pipeline-slot
// wait (t0 to sent) and the wire round trip (sent to now).
func (c *Client) observe(t runtime.Task, t0, sent runtime.Time) {
	if c.netSt != nil {
		c.clientSt.Observe(sent-t0, 0)
		c.netSt.Observe(0, t.Now()-sent)
	}
}

// roundTrip runs one request through admission, the wire, and the
// park-based wait: a single op on key/val, or — when keys is non-nil — a
// batch frame of keys/vals. On success the returned call holds the borrowed
// response; the caller consumes it and must release it. On error the call
// has already been recycled.
func (c *Client) roundTrip(t runtime.Task, op rpcproto.Op, key, val []byte, keys, vals [][]byte) (*call, error) {
	t0 := t.Now()
	c.pipe.Acquire(t, 1)
	defer c.pipe.Release(1)
	if c.err != nil {
		return nil, c.err
	}
	cl := c.getCall()
	c.nextID++
	cl.id = c.nextID
	var frame []byte
	if keys != nil {
		frame = rpcproto.AppendBatchReqFrame(rpcproto.GetBuf(), cl.id, op, keys, vals)
	} else {
		cl.req = rpcproto.Request{ID: cl.id, Op: op, Key: key, Value: val}
		frame = c.appendReqFrame(rpcproto.GetBuf(), &cl.req)
	}
	c.pending[cl.id] = cl
	sent := t.Now()
	if err := c.conn.Send(t, frame); err != nil {
		delete(c.pending, cl.id)
		c.putCall(cl)
		return nil, err
	}
	c.await(t, cl)
	c.observe(t, t0, sent)
	if cl.err != nil {
		err := cl.err
		c.release(cl)
		return nil, err
	}
	return cl, nil
}

// Do sends one request and blocks until its response arrives. The
// request's ID is assigned by the client. A *rpcproto.ErrorFrame or
// *rpcproto.OverloadFrame from the server is returned as the error. The
// returned response owns its bytes (this is the copying, allocation-paying
// surface ReliableClient builds on; the typed helpers below are the
// allocation-free path).
func (c *Client) Do(t runtime.Task, req *rpcproto.Request) (*rpcproto.Response, error) {
	return c.DoDeadline(t, req, 0)
}

// DoDeadline is Do with a per-request deadline (0 = wait forever). The
// deadline covers the wait for a pipeline slot plus the round trip; when it
// expires the call returns ErrDeadlineExceeded, the request's ID is
// forgotten, and the response — should it arrive later — is discarded by
// the receiver's unknown-ID path rather than delivered to a caller that has
// moved on. The server may still have executed the request: a deadline
// bounds the caller's wait, not the remote work, so the outcome is
// ambiguous (see ErrDeadlineExceeded).
func (c *Client) DoDeadline(t runtime.Task, req *rpcproto.Request, d runtime.Time) (*rpcproto.Response, error) {
	t0 := t.Now()
	var timer runtime.Event
	var cancelTimer func()
	if d > 0 {
		timer, cancelTimer = runtime.CancelableTimer(c.env, d)
		defer cancelTimer()
	}
	c.pipe.Acquire(t, 1)
	defer c.pipe.Release(1)
	if c.err != nil {
		return nil, c.err
	}
	if timer != nil && timer.Fired() {
		// The deadline burned away while queued for a pipeline slot; the
		// request was never sent, so this failure is unambiguous.
		return nil, ErrDeadlineExceeded
	}
	cl := c.getCall()
	c.nextID++
	cl.id = c.nextID
	req.ID = cl.id
	cl.ev = c.env.MakeEvent()
	c.pending[cl.id] = cl
	sent := t.Now()
	if err := c.conn.Send(t, c.appendReqFrame(rpcproto.GetBuf(), req)); err != nil {
		delete(c.pending, cl.id)
		c.putCall(cl)
		return nil, err
	}
	defer c.observe(t, t0, sent)
	if timer != nil {
		if runtime.WaitAny(t, cl.ev, timer) != 0 && !cl.ev.Fired() {
			delete(c.pending, cl.id)
			c.putCall(cl)
			return nil, ErrDeadlineExceeded
		}
	} else {
		t.Wait(cl.ev)
	}
	if cl.err != nil {
		err := cl.err
		c.release(cl)
		return nil, err
	}
	resp := &rpcproto.Response{
		ID:     cl.resp.ID,
		Status: cl.resp.Status,
		Tokens: cl.resp.Tokens,
		Epoch:  cl.resp.Epoch,
	}
	if len(cl.resp.Value) > 0 {
		resp.Value = append([]byte(nil), cl.resp.Value...)
	}
	if len(cl.resp.Spans) > 0 {
		resp.Spans = append([]rpcproto.PSpan(nil), cl.resp.Spans...)
	}
	c.release(cl)
	return resp, nil
}

// Get fetches key. A missing key is core.ErrNotFound. The returned value
// owns its bytes; use GetInto to reuse a buffer across calls.
func (c *Client) Get(t runtime.Task, key []byte) ([]byte, error) {
	return c.GetInto(t, key, nil)
}

// GetInto fetches key, appending the value to dst and returning the
// extended slice — the allocation-free read: with a reused dst of
// sufficient capacity, the whole round trip allocates nothing. A missing
// key is core.ErrNotFound.
func (c *Client) GetInto(t runtime.Task, key, dst []byte) ([]byte, error) {
	cl, err := c.roundTrip(t, rpcproto.OpGet, key, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	st := cl.resp.Status
	if st == rpcproto.StatusOK {
		dst = append(dst, cl.resp.Value...)
		c.release(cl)
		return dst, nil
	}
	c.release(cl)
	if st == rpcproto.StatusNotFound {
		return nil, core.ErrNotFound
	}
	return nil, fmt.Errorf("client: GET %s", st)
}

// Put stores key=val.
func (c *Client) Put(t runtime.Task, key, val []byte) error {
	cl, err := c.roundTrip(t, rpcproto.OpPut, key, val, nil, nil)
	if err != nil {
		return err
	}
	st := cl.resp.Status
	c.release(cl)
	if st != rpcproto.StatusOK {
		return fmt.Errorf("client: PUT %s", st)
	}
	return nil
}

// Del removes key. Deleting a missing key is core.ErrNotFound.
func (c *Client) Del(t runtime.Task, key []byte) error {
	cl, err := c.roundTrip(t, rpcproto.OpDel, key, nil, nil, nil)
	if err != nil {
		return err
	}
	st := cl.resp.Status
	c.release(cl)
	switch st {
	case rpcproto.StatusOK:
		return nil
	case rpcproto.StatusNotFound:
		return core.ErrNotFound
	}
	return fmt.Errorf("client: DEL %s", st)
}

// doBatch runs one batch frame round trip and copies the per-item results
// into out (reused across calls; values own their bytes). The batch path
// trades a few per-batch allocations for amortizing framing and admission
// over the whole batch.
func (c *Client) doBatch(t runtime.Task, op rpcproto.Op, keys, vals [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error) {
	out = out[:0]
	if len(keys) == 0 {
		return out, nil
	}
	if len(keys) > rpcproto.MaxBatchItems {
		return out, rpcproto.ErrBatchTooLarge
	}
	cl, err := c.roundTrip(t, op, nil, nil, keys, vals)
	if err != nil {
		return out, err
	}
	for i, it := range cl.items {
		// Reuse the value buffer out's backing array already holds at i.
		var val []byte
		if i < cap(out) {
			val = out[:i+1][i].Value[:0]
		}
		if len(it.Value) > 0 {
			val = append(val, it.Value...)
		}
		out = append(out, rpcproto.BatchRespItem{Status: it.Status, Value: val})
	}
	c.release(cl)
	return out, nil
}

// MultiGet fetches many keys in one frame. The result has one item per
// key, in key order: StatusOK items carry the value, StatusNotFound items
// report a missing key. Pass a reused out slice (out[:0]) to amortize the
// result across calls: each value is copied into the buffer the item at its
// index held, so values stay valid only until the next call that passes
// the same out. The server reads the keys one after another on the
// connection's task, so a MultiGet of n keys costs one round trip plus n
// reads: a memcpy each on the inline read lane, the sum of n device reads
// without it.
func (c *Client) MultiGet(t runtime.Task, keys [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error) {
	return c.doBatch(t, rpcproto.OpGet, keys, nil, out)
}

// MultiPut stores many key=value pairs in one frame; vals[i] goes with
// keys[i]. The result has one item per key reporting that item's status.
// out is reused as MultiGet reuses it.
func (c *Client) MultiPut(t runtime.Task, keys, vals [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error) {
	return c.doBatch(t, rpcproto.OpPut, keys, vals, out)
}

// MultiDel removes many keys in one frame. The result has one item per key:
// StatusOK for a removed key, StatusNotFound for a missing one. out is
// reused as MultiGet reuses it.
func (c *Client) MultiDel(t runtime.Task, keys [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error) {
	return c.doBatch(t, rpcproto.OpDel, keys, nil, out)
}

// Err reports the sticky connection error: nil while the connection is
// healthy, the terminal failure after it dies. Task context (the execution
// contract is the lock).
func (c *Client) Err() error { return c.err }

// Close tears the connection down; outstanding calls fail with ErrClosed
// once the receiver drains. Follow the conn's Close context rules.
func (c *Client) Close() error { return c.conn.Close() }
