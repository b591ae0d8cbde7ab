package transport

import (
	"fmt"
	"sync"

	"leed/internal/netsim"
	"leed/internal/runtime"
)

// frameBox wraps a frame for the trip through a runtime.Queue. Boxing a
// []byte into an `any` queue slot copies the three-word slice header to the
// heap — one allocation per frame — while boxing a pointer is free. The
// boxes are pooled; Recv unwraps and returns the box immediately, so each
// box lives only for the queue hop.
type frameBox struct{ data []byte }

var boxPool = sync.Pool{New: func() any { return new(frameBox) }}

// Inproc is the in-process transport backend: a Listener whose Conns are
// queue pairs on the runtime seam. It runs under both runtime backends (the
// queues come from env.MakeQueue), and can optionally be routed through a
// netsim.Fabric so every frame crosses the modeled network — paying NIC
// serialization and propagation, and subject to the chaos fault layer's
// delay and partition schedules. Construct with NewInproc; dial with Dial.
type Inproc struct {
	env  runtime.Env
	name string

	acceptQ  *runtime.Queue
	closed   bool
	nextConn uint64

	// Fabric routing (nil fab means direct queue pairs). The listener owns
	// the server endpoint; each net has one client endpoint shared by its
	// dialed conns. One pump task per endpoint demultiplexes arriving
	// envelopes to per-conn receive queues by connection id.
	fab          *netsim.Fabric
	srvEP, cliEP *netsim.Endpoint
	srvConns     map[uint64]*inprocConn
	cliConns     map[uint64]*inprocConn
}

// InprocOptions configures an Inproc transport.
type InprocOptions struct {
	// Name labels the listener's Addr. Default "inproc".
	Name string
	// Fabric, when set, routes every frame through the modeled network
	// between ClientAddr and ServerAddr. Both endpoints are registered by
	// NewInproc with NICBitsPerS. The fault schedule installed on the
	// fabric (delays, jitter, partitions) then applies to served traffic.
	// Lossy fault modes are for protocols with retries; the plain KV
	// request path assumes the fabric delivers (possibly late).
	Fabric                 *netsim.Fabric
	ClientAddr, ServerAddr netsim.Addr
	// NICBitsPerS is the modeled NIC speed for both endpoints when Fabric
	// is set. Default 100Gb/s.
	NICBitsPerS int64
}

// envelope is the payload frames travel in when fabric-routed.
type envelope struct {
	conn uint64
	kind uint8 // envSyn, envData, envFin
	data []byte
}

const (
	envSyn = iota + 1
	envData
	envFin
	envStop // pump shutdown sentinel, injected locally
)

// NewInproc creates an in-process transport. The returned value is both the
// Listener (server side) and the dialer (client side).
func NewInproc(env runtime.Env, opts InprocOptions) *Inproc {
	if opts.Name == "" {
		opts.Name = "inproc"
	}
	n := &Inproc{
		env:     env,
		name:    opts.Name,
		acceptQ: env.MakeQueue(),
	}
	if opts.Fabric != nil {
		if opts.NICBitsPerS == 0 {
			opts.NICBitsPerS = 100_000_000_000
		}
		n.fab = opts.Fabric
		n.srvEP = opts.Fabric.AddNode(opts.ServerAddr, opts.NICBitsPerS)
		n.cliEP = opts.Fabric.AddNode(opts.ClientAddr, opts.NICBitsPerS)
		n.srvConns = make(map[uint64]*inprocConn)
		n.cliConns = make(map[uint64]*inprocConn)
		env.Spawn(opts.Name+"-srv-pump", func(t runtime.Task) { n.pump(t, n.srvEP, true) })
		env.Spawn(opts.Name+"-cli-pump", func(t runtime.Task) { n.pump(t, n.cliEP, false) })
	}
	return n
}

// pump drains one fabric endpoint's RX queue, demultiplexing envelopes to
// per-connection receive queues. SYN envelopes arriving at the server side
// materialize the accepting half of a new connection.
func (n *Inproc) pump(t runtime.Task, ep *netsim.Endpoint, server bool) {
	conns := n.cliConns
	if server {
		conns = n.srvConns
	}
	for {
		m := ep.RX().Get(t).(*netsim.Message)
		env, ok := m.Payload.(envelope)
		if !ok {
			continue // foreign traffic on a shared fabric; not ours
		}
		switch env.kind {
		case envStop:
			return
		case envSyn:
			if !server || n.closed {
				continue
			}
			c := &inprocConn{net: n, id: env.conn, server: true, rxq: n.env.MakeQueue(),
				name: fmt.Sprintf("%s-srv-%d", n.name, env.conn)}
			conns[env.conn] = c
			n.acceptQ.Put(c)
		case envData:
			if c := conns[env.conn]; c != nil {
				c.rxq.Put(env.data)
			}
		case envFin:
			if c := conns[env.conn]; c != nil {
				delete(conns, env.conn)
				c.rxq.Put(eofItem{})
			}
		}
	}
}

// Dial opens a client connection to the listener. With a fabric, the SYN
// crosses the modeled network and Accept observes it one propagation later;
// without one, the accepting half is visible immediately.
func (n *Inproc) Dial(t runtime.Task) (Conn, error) {
	if n.closed {
		return nil, ErrClosed
	}
	n.nextConn++
	id := n.nextConn
	cli := &inprocConn{net: n, id: id, rxq: n.env.MakeQueue(),
		name: fmt.Sprintf("%s-cli-%d", n.name, id)}
	if n.fab != nil {
		n.cliConns[id] = cli
		n.cliEP.Send(n.srvEP.Addr(), 16, envelope{conn: id, kind: envSyn})
		return cli, nil
	}
	srv := &inprocConn{net: n, id: id, server: true, rxq: n.env.MakeQueue(),
		name: fmt.Sprintf("%s-srv-%d", n.name, id)}
	cli.peer, srv.peer = srv, cli
	n.acceptQ.Put(srv)
	return cli, nil
}

// Accept implements Listener. After Close, Accept keeps returning the
// connections that were queued before the close — the acceptor must see
// (and close) them, or their dialed halves would hang forever — and only
// then reports ErrClosed.
func (n *Inproc) Accept(t runtime.Task) (Conn, error) {
	v := n.acceptQ.Get(t)
	if _, eof := v.(eofItem); eof {
		n.acceptQ.Put(eofItem{}) // keep later Accepts unblocked too
		return nil, ErrClosed
	}
	return v.(Conn), nil
}

// Addr implements Listener.
func (n *Inproc) Addr() string { return n.name }

// Close stops accepting and, when fabric-routed, winds down the pump tasks.
// Established conns are unaffected (close them individually). Must run in
// task or scheduler context; idempotent.
func (n *Inproc) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	n.acceptQ.Put(eofItem{})
	if n.fab != nil {
		// Local injection, not a fabric send: the pumps must die even if
		// the fabric is partitioned.
		n.srvEP.RX().Put(&netsim.Message{Payload: envelope{kind: envStop}})
		n.cliEP.RX().Put(&netsim.Message{Payload: envelope{kind: envStop}})
	}
	return nil
}

// inprocConn is one half of an in-process connection.
type inprocConn struct {
	net    *Inproc
	id     uint64
	server bool
	name   string
	rxq    *runtime.Queue
	peer   *inprocConn // direct mode only; nil when fabric-routed
	closed bool
}

// Send implements Conn. Direct mode delivers into the peer's receive queue
// in the same instant (the queue itself is the wire); fabric mode pays the
// modeled network.
func (c *inprocConn) Send(t runtime.Task, frame []byte) error {
	if c.closed {
		return ErrClosed
	}
	if c.net.fab != nil {
		from, to := c.net.cliEP, c.net.srvEP
		if c.server {
			from, to = to, from
		}
		from.Send(to.Addr(), int64(len(frame)), envelope{conn: c.id, kind: envData, data: frame})
		return nil
	}
	if c.peer.closed {
		return ErrClosed
	}
	fb := boxPool.Get().(*frameBox)
	fb.data = frame
	c.peer.rxq.Put(fb)
	return nil
}

// Recv implements Conn.
func (c *inprocConn) Recv(t runtime.Task) ([]byte, error) {
	if c.closed {
		return nil, ErrClosed
	}
	v := c.rxq.Get(t)
	switch v := v.(type) {
	case *frameBox:
		data := v.data
		v.data = nil
		boxPool.Put(v)
		return data, nil
	case []byte: // fabric-routed envelope payload
		return v, nil
	}
	c.rxq.Put(eofItem{}) // later Recvs see the eof too
	return nil, ErrClosed
}

// Close implements Conn: the local side stops immediately; the peer's Recv
// drains queued frames, then reports ErrClosed. Must run in task or
// scheduler context; idempotent.
func (c *inprocConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.rxq.Put(eofItem{}) // unblock a local Recv parked on the queue
	if c.net.fab != nil {
		from, to := c.net.cliEP, c.net.srvEP
		if c.server {
			from, to = to, from
		}
		from.Send(to.Addr(), 16, envelope{conn: c.id, kind: envFin})
		return nil
	}
	if !c.peer.closed {
		c.peer.rxq.Put(eofItem{})
	}
	return nil
}

func (c *inprocConn) String() string { return c.name }

var (
	_ Listener = (*Inproc)(nil)
	_ Conn     = (*inprocConn)(nil)
)
