package proc

import (
	"errors"
	"fmt"
	"time"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// errAmbiguous marks a write whose execution state is unknown: the head
// acked nothing, but some chain prefix may hold it. WriteNotExecuted
// reports false for it.
var errAmbiguous = errors.New("proc: write outcome ambiguous")

// ErrNoView reports that the client exhausted its retries without a view
// under which the operation could be routed and accepted.
var ErrNoView = errors.New("proc: retries exhausted without a usable view")

// WriteNotExecuted reports whether a failed Put/Del provably never
// executed (safe to count as not-written in loss accounting). It extends
// server.WriteNotExecuted across the client's own failure modes: NACK
// exhaustion and view starvation never execute; an ambiguous chain outcome
// might have.
func WriteNotExecuted(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, errAmbiguous) {
		return false
	}
	if errors.Is(err, ErrNoView) {
		return true
	}
	return server.WriteNotExecuted(err)
}

// ClientConfig wires one multi-process cluster client.
type ClientConfig struct {
	Env     *wallclock.Env
	Manager string // the control plane's heartbeat address

	// Retries bounds attempts per operation (view refreshes included).
	// Default 16.
	Retries int
	// RetrySleep spaces attempts that found no usable route. Default 25ms
	// — a fraction of the heartbeat cadence, so a view change is usually
	// visible within a few retries.
	RetrySleep runtime.Time
	// Deadline bounds each attempt's round trip. Default 500ms.
	Deadline runtime.Time

	// Obs is optional.
	Obs *obs.Registry
	// Tracer, when set, traces every operation end to end: the request
	// carries a sampled trace context across process boundaries, every node
	// it touches piggybacks its span summaries on the response, and the
	// client replays them (hop-tagged) into one reassembled trace alongside
	// its own client/net spans.
	Tracer *obs.Tracer
}

// Client routes operations against a multi-process cluster: writes to the
// partition's chain head, reads to its read replica, views pulled from the
// manager with observer heartbeats (Node 0). All state is mutated only in
// task context — the execution contract is the lock.
type Client struct {
	cfg     ClientConfig
	env     *wallclock.Env
	view    *cluster.View
	addrs   map[cluster.NodeID]string
	peers   map[string]*server.ReliableClient
	mgrConn transport.Conn
	nextID  uint64
	seed    int64
	stopped bool
}

// NewClient creates a client; it fetches its first view lazily on first
// use (or an explicit Refresh).
func NewClient(cfg ClientConfig) *Client {
	if cfg.Retries == 0 {
		cfg.Retries = 16
	}
	if cfg.RetrySleep == 0 {
		cfg.RetrySleep = 25 * runtime.Millisecond
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 500 * runtime.Millisecond
	}
	return &Client{
		cfg:   cfg,
		env:   cfg.Env,
		addrs: make(map[cluster.NodeID]string),
		peers: make(map[string]*server.ReliableClient),
	}
}

// View returns the client's current view (nil before the first refresh).
func (c *Client) View() *cluster.View { return c.view }

// Close drops every connection. Task or scheduler context not required.
func (c *Client) Close() error {
	c.env.After(0, func() {
		c.stopped = true
		if c.mgrConn != nil {
			c.mgrConn.Close()
		}
		for _, p := range c.peers {
			p.Close()
		}
	})
	return nil
}

// Refresh pulls the current view from the manager with one observer
// heartbeat. Task context.
func (c *Client) Refresh(t runtime.Task) error {
	if c.mgrConn == nil {
		conn, err := transport.DialTCPOpts(c.env, c.cfg.Manager, transport.TCPOptions{
			ReadIdleTimeout: 30 * time.Second,
			WriteTimeout:    5 * time.Second,
		})
		if err != nil {
			return err
		}
		c.mgrConn = conn
	}
	var epoch uint64
	if c.view != nil {
		epoch = c.view.Epoch
	}
	// Concurrent callers share the connection; whichever sees it fail first
	// drops it, and the others must not drop its replacement.
	conn := c.mgrConn
	vp, err := hbExchange(t, conn, &rpcproto.Heartbeat{Node: 0, Epoch: epoch})
	if err != nil {
		conn.Close()
		if c.mgrConn == conn {
			c.mgrConn = nil
		}
		return err
	}
	v, addrs := viewFromPush(vp)
	for id, a := range addrs {
		c.addrs[id] = a
	}
	if c.view == nil || v.Epoch > c.view.Epoch {
		c.view = v
	}
	return nil
}

// peer returns (creating on first use) the reliable client for a node
// address. Client traffic frames as FrameRequest (no ChainFwd) and enters
// chains only at the head.
func (c *Client) peer(addr string) *server.ReliableClient {
	if rc, ok := c.peers[addr]; ok {
		return rc
	}
	c.seed++
	rc := server.NewReliableClient(server.ReliableConfig{
		Env: c.env,
		Dial: func(t runtime.Task) (transport.Conn, error) {
			return transport.DialTCPOpts(c.env, addr, transport.TCPOptions{
				ReadIdleTimeout: 30 * time.Second,
				WriteTimeout:    5 * time.Second,
			})
		},
		Depth:       16,
		Deadline:    c.cfg.Deadline,
		MaxAttempts: 2,
		BackoffBase: 5 * runtime.Millisecond,
		Seed:        c.seed,
		Obs:         c.cfg.Obs,
	})
	c.peers[addr] = rc
	return rc
}

// do routes one operation under the current view, refreshing and retrying
// on NACK or routing failure. Writes stop at the first ambiguous outcome.
func (c *Client) do(t runtime.Task, op rpcproto.Op, key, val []byte) (*rpcproto.Response, error) {
	isWrite := op == rpcproto.OpPut || op == rpcproto.OpDel
	lastErr := error(ErrNoView)
	start := t.Now()
	tr := c.cfg.Tracer.Begin(op.String(), start)
	// End aggregates whatever spans the attempts recorded — on failure the
	// trace still contributes its client time. Nil-safe throughout.
	defer c.cfg.Tracer.End(tr)
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if attempt > 0 {
			t.Sleep(c.cfg.RetrySleep)
		}
		if c.stopped {
			return nil, errors.New("proc: client closed")
		}
		if c.view == nil || attempt > 0 {
			if err := c.Refresh(t); err != nil {
				lastErr = fmt.Errorf("%w (refresh: %v)", ErrNoView, err)
				continue
			}
		}
		v := c.view
		if v == nil {
			continue
		}
		part := cluster.PartitionOf(core.HashKey(key), v.NumPart)
		var target cluster.NodeID
		if isWrite {
			chain := v.Chain(part)
			if len(chain) == 0 {
				lastErr = fmt.Errorf("%w (empty chain)", ErrNoView)
				continue
			}
			target = chain[0]
		} else {
			rep, ok := ReadReplica(v, part)
			if !ok {
				lastErr = fmt.Errorf("%w (no synced replica)", ErrNoView)
				continue
			}
			target = rep
		}
		addr := c.addrs[target]
		if addr == "" {
			lastErr = fmt.Errorf("%w (no address for node %d)", ErrNoView, target)
			continue
		}
		c.nextID++
		req := &rpcproto.Request{
			ID: c.nextID, Op: op,
			Partition: part, Epoch: v.Epoch, Hop: 0,
			Key: key, Value: val,
		}
		if tr != nil {
			// Propagate the trace across the process boundary: the sampled
			// context makes every node on the route piggyback its spans.
			req.TraceID = c.nextID
			req.TraceFlags = rpcproto.TraceSampled
		}
		sent := t.Now()
		resp, err := c.peer(addr).Do(t, req)
		if err != nil {
			if isWrite && !server.WriteNotExecuted(err) {
				return nil, fmt.Errorf("%w: %v", errAmbiguous, err)
			}
			lastErr = err
			continue
		}
		switch resp.Status {
		case rpcproto.StatusOK, rpcproto.StatusNotFound:
			if tr != nil {
				// Reassemble the end-to-end trace: the client span is the
				// routing/retry overhead before the wire, the net span is the
				// round trip minus everything the remote spans account for,
				// and the piggybacked spans replay hop-tagged so the whole
				// chain (head → … → tail) shows up in one trace.
				rtt := t.Now() - sent
				tr.SpanHop("client", 0, sent-start, 0)
				remote := rpcproto.DisjointTotalNS(resp.Spans)
				tr.SpanHop("net", 0, 0, rtt-runtime.Time(remote))
				for _, sp := range resp.Spans {
					if name := sp.Stage.Name(); name != "" {
						tr.SpanHop(name, int(sp.Hop),
							runtime.Time(sp.QueueNS), runtime.Time(sp.ServiceNS))
					}
				}
			}
			return resp, nil
		case rpcproto.StatusNack:
			// Stale view (or the target is not yet serving); refresh and
			// retry. A NACKed write never executed.
			lastErr = fmt.Errorf("proc: nacked at epoch %d: %w", resp.Epoch, ErrNoView)
		case rpcproto.StatusOverload:
			lastErr = errors.New("proc: overloaded")
		default:
			if isWrite {
				// StatusErr on a write means some chain prefix may hold it.
				return nil, fmt.Errorf("%w: status %v", errAmbiguous, resp.Status)
			}
			lastErr = fmt.Errorf("proc: status %v", resp.Status)
		}
	}
	return nil, lastErr
}

// Get fetches key's value (a copy the caller owns).
func (c *Client) Get(t runtime.Task, key []byte) ([]byte, error) {
	resp, err := c.do(t, rpcproto.OpGet, key, nil)
	if err != nil {
		return nil, err
	}
	if resp.Status == rpcproto.StatusNotFound {
		return nil, core.ErrNotFound
	}
	return resp.Value, nil
}

// Put stores key=val through the partition's chain.
func (c *Client) Put(t runtime.Task, key, val []byte) error {
	_, err := c.do(t, rpcproto.OpPut, key, val)
	return err
}

// Del removes key.
func (c *Client) Del(t runtime.Task, key []byte) error {
	resp, err := c.do(t, rpcproto.OpDel, key, nil)
	if err != nil {
		return err
	}
	if resp.Status == rpcproto.StatusNotFound {
		return core.ErrNotFound
	}
	return nil
}
