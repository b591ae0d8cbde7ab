// Package netsim models the cluster's RDMA-capable Ethernet fabric: nodes
// with finite-bandwidth NICs connected through a non-blocking ToR switch
// with fixed propagation delay. Two primitives mirror LEED's hybrid verb
// use (§3.5): Send is a two-sided RDMA SEND that lands in the receiver's
// poll queue (consuming receiver CPU to pick up), and Write is a one-sided
// RDMA WRITE-with-IMM that completes directly into a completion event or
// queue without receiver CPU involvement.
//
// The fabric runs on any runtime.Env. On the sim kernel the delays are
// virtual and the schedule replays bit-identically; on the wallclock backend
// the same propagation and serialization delays become real timers, and a
// per-link sequence gate preserves FIFO delivery even when the OS fires two
// close timers out of order.
package netsim

import (
	"fmt"
	"sort"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// Addr identifies one endpoint on the fabric.
type Addr uint32

// Message is one transfer. Payload is opaque to the fabric; Size is the
// modeled wire size in bytes.
type Message struct {
	From, To Addr
	Size     int64
	Payload  any
	// Complete, when non-nil, receives the message by event (one-sided
	// WRITE into the sender-registered completion structure). Otherwise
	// the message lands in the destination's RX queue.
	Complete runtime.Event
	Sent     runtime.Time
	// Trace, when non-nil, accumulates this message's "net" span (NIC
	// serialization waits vs wire time) as it crosses the fabric. The
	// trace rides the message the way a carried correlation ID would.
	Trace *obs.Trace
}

// Config tunes the fabric.
type Config struct {
	// Propagation is the one-way switch+wire delay. Default 1.5us.
	Propagation runtime.Time
	// MsgOverheadBytes is added to every message's wire size (headers).
	// Default 64.
	MsgOverheadBytes int64
}

// Fabric is the network. All endpoints share one non-blocking switch.
// All fabric state is protected by the runtime execution contract: transmit
// and delivery run in task or scheduler context only.
type Fabric struct {
	env    runtime.Env
	cfg    Config
	nodes  map[Addr]*Endpoint
	faults *Faults // nil unless InstallFaults was called

	// Per-link FIFO delivery gate. The sim kernel delivers same-time events
	// in schedule order, so per-link arrival monotonicity is enough there;
	// wallclock timers carry no such guarantee, so each surviving message
	// takes a sequence number at send time and delivery is released strictly
	// in sequence order per directed link.
	sendSeq     map[link]uint64
	nextDeliver map[link]uint64
	held        map[link]map[uint64]func()

	o *fabObs // nil unless Observe was called
}

// fabObs is the fabric's registry binding: fabric-wide traffic counters and
// per-message "net" stage observations. Nil receiver methods no-op.
type fabObs struct {
	net              *obs.StageBind
	txMsgs, rxMsgs   *obs.Counter
	txBytes, rxBytes *obs.Counter
	dropped          *obs.Counter
}

func (o *fabObs) tx(size int64) {
	if o == nil {
		return
	}
	o.txMsgs.Inc()
	o.txBytes.Add(size)
}

func (o *fabObs) rx(size int64) {
	if o == nil {
		return
	}
	o.rxMsgs.Inc()
	o.rxBytes.Add(size)
}

func (o *fabObs) drop() {
	if o == nil {
		return
	}
	o.dropped.Inc()
}

// span attributes one delivery to the "net" stage: into the message's trace
// when it carries one (the trace's End aggregates it), directly into the
// tracer otherwise — never both, so stage histograms count each message
// once.
func (o *fabObs) span(m *Message, queue, service runtime.Time) {
	if m.Trace != nil {
		m.Trace.Span("net", queue, service)
		return
	}
	if o != nil {
		o.net.Observe(queue, service)
	}
}

// Observe binds the fabric to a metrics registry and tracer: traffic
// counters land in leed_net_* series and every delivered message
// contributes a "net" stage observation. Call before traffic starts.
func (f *Fabric) Observe(reg *obs.Registry, tr *obs.Tracer) {
	f.o = &fabObs{
		net:     tr.Bind("net"),
		txMsgs:  reg.Counter("leed_net_tx_msgs_total"),
		rxMsgs:  reg.Counter("leed_net_rx_msgs_total"),
		txBytes: reg.Counter("leed_net_tx_bytes_total"),
		rxBytes: reg.Counter("leed_net_rx_bytes_total"),
		dropped: reg.Counter("leed_net_dropped_total"),
	}
}

// New creates a fabric on env.
func New(env runtime.Env, cfg Config) *Fabric {
	if cfg.Propagation == 0 {
		cfg.Propagation = 1500 * runtime.Nanosecond
	}
	if cfg.MsgOverheadBytes == 0 {
		cfg.MsgOverheadBytes = 64
	}
	return &Fabric{
		env:         env,
		cfg:         cfg,
		nodes:       make(map[Addr]*Endpoint),
		sendSeq:     make(map[link]uint64),
		nextDeliver: make(map[link]uint64),
		held:        make(map[link]map[uint64]func()),
	}
}

// Env returns the runtime environment the fabric runs on.
func (f *Fabric) Env() runtime.Env { return f.env }

// at schedules fn at absolute time when (clamped to now), in scheduler
// context.
func (f *Fabric) at(when runtime.Time, fn func()) {
	f.env.After(when-f.env.Now(), fn)
}

// Stats are per-endpoint counters.
type Stats struct {
	TxMsgs, RxMsgs   int64
	TxBytes, RxBytes int64
	Dropped          int64
}

// Endpoint is one NIC on the fabric.
type Endpoint struct {
	addr        Addr
	fab         *Fabric
	bytesPerSec int64
	txFree      runtime.Time // egress link free-at time
	rxFree      runtime.Time // ingress link free-at time
	rx          *runtime.Queue
	orphans     []*runtime.Queue // queues abandoned by ResetRX, kept for Flood
	down        bool
	stats       Stats
}

// AddNode registers an endpoint with the given NIC speed in bits/sec.
func (f *Fabric) AddNode(addr Addr, bitsPerS int64) *Endpoint {
	if _, dup := f.nodes[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate addr %d", addr))
	}
	e := &Endpoint{
		addr:        addr,
		fab:         f,
		bytesPerSec: bitsPerS / 8,
		rx:          f.env.MakeQueue(),
	}
	f.nodes[addr] = e
	return e
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// RX returns the two-sided receive queue that polling cores drain. Items are
// *Message.
func (e *Endpoint) RX() *runtime.Queue { return e.rx }

// ResetRX abandons the receive queue and installs a fresh empty one,
// modeling DRAM loss on a crash: packets queued but not yet polled vanish,
// and pollers parked on the old queue are orphaned with it. The old queue is
// remembered so Flood can still reach pollers parked on it.
func (e *Endpoint) ResetRX() {
	e.orphans = append(e.orphans, e.rx)
	e.rx = e.fab.env.MakeQueue()
}

// Stats returns cumulative counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// SetDown marks the endpoint dead (fail-stop): all traffic to it is
// dropped, and its sends are suppressed.
func (e *Endpoint) SetDown(down bool) { e.down = down }

// Down reports the endpoint's fail-stop state.
func (e *Endpoint) Down() bool { return e.down }

// Flood puts a message carrying payload into every endpoint's RX queue —
// live and orphaned alike, in address order. It is the shutdown broadcast:
// a poison pill Flooded through the fabric reaches every parked poller, so a
// wallclock deployment can be wound down without leaking blocked tasks.
// Must run in task or scheduler context.
func (f *Fabric) Flood(payload any) {
	addrs := make([]Addr, 0, len(f.nodes))
	for a := range f.nodes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		e := f.nodes[a]
		e.rx.Put(&Message{To: a, Payload: payload})
		for _, q := range e.orphans {
			q.Put(&Message{To: a, Payload: payload})
		}
	}
}

// deliver releases the delivery action for message seq on link l strictly in
// sequence order. fn == nil consumes the sequence number without delivering
// (the message died after taking its number, e.g. destination went down).
func (f *Fabric) deliver(l link, seq uint64, fn func()) {
	if seq != f.nextDeliver[l] {
		h := f.held[l]
		if h == nil {
			h = make(map[uint64]func())
			f.held[l] = h
		}
		h[seq] = fn
		return
	}
	for {
		if fn != nil {
			fn()
		}
		f.nextDeliver[l]++
		h := f.held[l]
		next, ok := h[f.nextDeliver[l]]
		if !ok {
			return
		}
		delete(h, f.nextDeliver[l])
		fn = next
	}
}

// transmit models serialization on the sender egress, propagation, and
// serialization on the receiver ingress, then delivers in per-link FIFO
// order.
func (e *Endpoint) transmit(m *Message) {
	if e.down {
		return
	}
	f := e.fab
	m.Sent = f.env.Now()
	size := m.Size + f.cfg.MsgOverheadBytes
	e.stats.TxMsgs++
	e.stats.TxBytes += size
	f.o.tx(size)

	txStart := f.env.Now()
	if e.txFree > txStart {
		txStart = e.txFree
	}
	txWait := txStart - m.Sent // egress serialization queue
	txDur := runtime.Time(size * int64(runtime.Second) / e.bytesPerSec)
	e.txFree = txStart + txDur

	dst, ok := f.nodes[m.To]
	if !ok {
		e.stats.Dropped++
		f.o.drop()
		return
	}
	arrive := e.txFree + f.cfg.Propagation
	if fl := f.faults; fl != nil {
		var lost bool
		arrive, lost = fl.apply(e.addr, m.To, arrive)
		if lost {
			e.stats.Dropped++
			f.o.drop()
			return
		}
	}
	// Fault-dropped messages never take a sequence number, so the FIFO gate
	// tracks only traffic that is actually in flight.
	l := link{e.addr, m.To}
	seq := f.sendSeq[l]
	f.sendSeq[l]++
	f.at(arrive, func() {
		if dst.down {
			dst.stats.Dropped++
			f.o.drop()
			f.deliver(l, seq, nil)
			return
		}
		arrived := f.env.Now()
		rxStart := arrived
		if dst.rxFree > rxStart {
			rxStart = dst.rxFree
		}
		rxWait := rxStart - arrived // ingress serialization queue
		rxDur := runtime.Time(size * int64(runtime.Second) / dst.bytesPerSec)
		dst.rxFree = rxStart + rxDur
		f.at(dst.rxFree, func() {
			f.deliver(l, seq, func() {
				if dst.down {
					dst.stats.Dropped++
					f.o.drop()
					return
				}
				dst.stats.RxMsgs++
				dst.stats.RxBytes += size
				f.o.rx(size)
				// Queue = time spent waiting for a NIC slot on either end;
				// service = everything else on the wire (serialization,
				// propagation, any fault-injected delay).
				queue := txWait + rxWait
				f.o.span(m, queue, f.env.Now()-m.Sent-queue)
				if m.Complete != nil {
					m.Complete.Fire(m)
					return
				}
				dst.rx.Put(m)
			})
		})
	})
}

// Send issues a two-sided SEND: the message lands in the destination's RX
// queue, to be picked up by a polling core.
func (e *Endpoint) Send(to Addr, size int64, payload any) {
	e.transmit(&Message{From: e.addr, To: to, Size: size, Payload: payload})
}

// SendTraced is Send with a trace riding the message: the fabric appends
// the "net" span to tr at delivery.
func (e *Endpoint) SendTraced(to Addr, size int64, payload any, tr *obs.Trace) {
	e.transmit(&Message{From: e.addr, To: to, Size: size, Payload: payload, Trace: tr})
}

// Write issues a one-sided WRITE with IMM: the message completes into the
// given event at the destination, bypassing the destination's poll loop.
func (e *Endpoint) Write(to Addr, size int64, payload any, complete runtime.Event) {
	e.transmit(&Message{From: e.addr, To: to, Size: size, Payload: payload, Complete: complete})
}

// WriteTraced is Write with a trace riding the message, used for the
// response leg of a traced request.
func (e *Endpoint) WriteTraced(to Addr, size int64, payload any, complete runtime.Event, tr *obs.Trace) {
	e.transmit(&Message{From: e.addr, To: to, Size: size, Payload: payload, Complete: complete, Trace: tr})
}
