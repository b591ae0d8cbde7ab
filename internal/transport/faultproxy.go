package transport

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"leed/internal/netsim"
	"leed/internal/runtime"
)

// FaultProxy is the real-socket twin of netsim.Faults: a TCP shim that sits
// between clients and one upstream address and injects the same fault
// vocabulary — seeded probabilistic loss, added delay, a bandwidth clamp,
// and partitions — onto live connections. The sim fabric and this proxy are
// driven by the same LinkFaults config, so a chaos drill's fault schedule is
// portable between the two worlds; what differs is how each fault manifests,
// because a byte stream cannot lose one message the way a datagram fabric
// can:
//
//   - Drop: the fabric loses individual messages. TCP would retransmit a
//     lost segment invisibly, so here a "drop" is what sustained loss looks
//     like from the application — the connection dies abruptly (RST via
//     SO_LINGER=0), mid-frame if that is where the dice landed.
//   - Delay: added per forwarded chunk, each direction, exactly like the
//     fabric's per-link delay.
//   - Bandwidth: the fabric serializes at the endpoint's NIC rate; the
//     proxy sleeps each chunk to the configured byte rate.
//   - Partition: the fabric silently discards; the proxy blackholes —
//     established connections stall (no FIN, no RST, bytes simply stop) and
//     new connections are accepted but not bridged until Heal. This is the
//     fault that exercises client deadlines rather than error paths.
//
// The proxy runs on plain goroutines (it exists only for the wallclock/real
// socket world; the sim world has netsim.Faults) and is safe for concurrent
// use. All randomness flows from the seed, so a drill's kill schedule is
// reproducible modulo goroutine interleaving.
type FaultProxy struct {
	ln       net.Listener
	upstream string

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	faults LinkFaults
	pipes  map[*proxyPipe]struct{}
	closed bool

	stats faultProxyCounters
}

// LinkFaults is one link's fault configuration, portable between the proxy
// (real sockets) and netsim.Faults (simulated fabric) via ApplyTo.
type LinkFaults struct {
	// Drop is the per-forwarded-chunk probability that the connection is
	// abruptly killed (see the type comment for why stream "drop" means
	// connection death). 0 disables; 1 kills on first byte.
	Drop float64
	// Delay is added to every forwarded chunk, each direction.
	Delay time.Duration
	// BandwidthBps clamps forwarding to this many bytes/second per
	// connection per direction. 0 = unlimited.
	BandwidthBps int64
	// Partitioned blackholes the link: established connections stall and
	// new ones are accepted but not bridged until healed.
	Partitioned bool
}

// ApplyTo installs the same configuration on a sim fault layer's a<->b link,
// the bridge that keeps a drill's fault schedule portable between the proxy
// and the fabric. BandwidthBps has no per-link knob in the fabric — there it
// is the endpoint NIC rate fixed at AddNode time — so it is not mapped.
func (f LinkFaults) ApplyTo(fl *netsim.Faults, a, b netsim.Addr) {
	fl.SetDropBoth(a, b, f.Drop)
	fl.SetDelay(a, b, runtime.Time(f.Delay))
	fl.SetDelay(b, a, runtime.Time(f.Delay))
	if f.Partitioned {
		fl.Partition(a, b)
	} else {
		fl.Heal(a, b)
	}
}

// FaultProxyStats counts what the proxy did, mirroring netsim.FaultStats.
type FaultProxyStats struct {
	Accepted           int64 // connections accepted from clients
	Bridged            int64 // connections successfully dialed through to upstream
	KilledByDrop       int64 // connections abruptly closed by the drop dice
	Killed             int64 // connections abruptly closed by KillAll
	Chunks             int64 // chunks forwarded (both directions)
	Bytes              int64 // bytes forwarded (both directions)
	DelayedChunks      int64 // chunks that ate the configured delay
	PartitionedStalls  int64 // chunks that stalled against a partition
	PartitionedAccepts int64 // accepts that arrived during a partition
}

type faultProxyCounters struct {
	accepted, bridged, killedByDrop, killed atomic.Int64
	chunks, bytes, delayedChunks            atomic.Int64
	partitionedStalls, partitionedAccepts   atomic.Int64
}

// NewFaultProxy listens on listenAddr (use "127.0.0.1:0" to let the kernel
// pick) and forwards every accepted connection to upstream, subject to the
// currently installed faults (none initially). seed drives the drop dice.
func NewFaultProxy(listenAddr, upstream string, seed int64) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{
		ln:       ln,
		upstream: upstream,
		rng:      rand.New(rand.NewSource(seed)),
		pipes:    make(map[*proxyPipe]struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — what clients should dial.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// SetFaults replaces the whole fault configuration atomically.
func (p *FaultProxy) SetFaults(f LinkFaults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Faults returns the current configuration.
func (p *FaultProxy) Faults() LinkFaults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// SetDrop sets only the drop probability.
func (p *FaultProxy) SetDrop(prob float64) {
	p.mu.Lock()
	p.faults.Drop = prob
	p.mu.Unlock()
}

// SetDelay sets only the per-chunk delay.
func (p *FaultProxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.faults.Delay = d
	p.mu.Unlock()
}

// SetBandwidth sets only the per-connection byte-rate clamp.
func (p *FaultProxy) SetBandwidth(bps int64) {
	p.mu.Lock()
	p.faults.BandwidthBps = bps
	p.mu.Unlock()
}

// Partition blackholes the link: in-flight traffic stalls (no FIN, no RST)
// and new connections are accepted but not bridged. The twin of
// netsim.Faults.Partition — silent discard, not explicit refusal — so
// clients discover it only through their own deadlines.
func (p *FaultProxy) Partition() {
	p.mu.Lock()
	p.faults.Partitioned = true
	p.mu.Unlock()
}

// Heal clears a partition; stalled traffic resumes.
func (p *FaultProxy) Heal() {
	p.mu.Lock()
	p.faults.Partitioned = false
	p.mu.Unlock()
}

// KillAll abruptly closes (RST) every active bridged connection: the
// real-socket form of netsim's node-down event, and the fault a process
// crash inflicts on its peers.
func (p *FaultProxy) KillAll() {
	p.mu.Lock()
	pipes := make([]*proxyPipe, 0, len(p.pipes))
	for pp := range p.pipes {
		pipes = append(pipes, pp)
	}
	p.mu.Unlock()
	for _, pp := range pipes {
		pp.kill(&p.stats.killed)
	}
}

// Stats snapshots the proxy's counters.
func (p *FaultProxy) Stats() FaultProxyStats {
	return FaultProxyStats{
		Accepted:           p.stats.accepted.Load(),
		Bridged:            p.stats.bridged.Load(),
		KilledByDrop:       p.stats.killedByDrop.Load(),
		Killed:             p.stats.killed.Load(),
		Chunks:             p.stats.chunks.Load(),
		Bytes:              p.stats.bytes.Load(),
		DelayedChunks:      p.stats.delayedChunks.Load(),
		PartitionedStalls:  p.stats.partitionedStalls.Load(),
		PartitionedAccepts: p.stats.partitionedAccepts.Load(),
	}
}

// Close stops accepting and kills every active connection.
func (p *FaultProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillAll()
	return err
}

func (p *FaultProxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *FaultProxy) chance(prob float64) bool {
	if prob <= 0 {
		return false
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Float64() < prob
}

func (p *FaultProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.stats.accepted.Add(1)
		go p.bridge(c)
	}
}

// bridge dials upstream for one accepted client connection and starts the
// two pump directions. During a partition the accepted connection is held
// open but un-bridged — the SYN "crossed the wire" before the partition
// could drop the stream's bytes, which is as close as TCP gets to the
// fabric's drop-the-message semantics.
func (p *FaultProxy) bridge(client net.Conn) {
	if p.Faults().Partitioned {
		p.stats.partitionedAccepts.Add(1)
		for p.Faults().Partitioned {
			if p.isClosed() {
				client.Close()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	up, err := net.DialTimeout("tcp", p.upstream, 2*time.Second)
	if err != nil {
		client.Close()
		return
	}
	pp := &proxyPipe{client: client, upstream: up}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pp.kill(nil)
		return
	}
	p.pipes[pp] = struct{}{}
	p.mu.Unlock()
	p.stats.bridged.Add(1)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(pp, client, up) }()
	go func() { defer wg.Done(); p.pump(pp, up, client) }()
	wg.Wait()
	p.mu.Lock()
	delete(p.pipes, pp)
	p.mu.Unlock()
}

// pump forwards src -> dst chunk by chunk, consulting the fault config
// before each forward, like the fabric consults Faults.apply per message.
func (p *FaultProxy) pump(pp *proxyPipe, src, dst net.Conn) {
	buf := make([]byte, 16<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			f := p.Faults()
			if p.chance(f.Drop) {
				pp.kill(&p.stats.killedByDrop)
				return
			}
			if f.Delay > 0 {
				p.stats.delayedChunks.Add(1)
				time.Sleep(f.Delay)
			}
			if f.BandwidthBps > 0 {
				time.Sleep(time.Duration(int64(n) * int64(time.Second) / f.BandwidthBps))
			}
			if p.Faults().Partitioned {
				p.stats.partitionedStalls.Add(1)
				for p.Faults().Partitioned {
					if pp.killed() || p.isClosed() {
						pp.kill(nil)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				pp.kill(nil)
				return
			}
			p.stats.chunks.Add(1)
			p.stats.bytes.Add(int64(n))
		}
		if rerr != nil {
			// Propagate a clean FIN as a clean FIN so graceful shutdown
			// still looks graceful through the proxy; errors tear down.
			if tcp, ok := dst.(*net.TCPConn); ok && errors.Is(rerr, io.EOF) {
				tcp.CloseWrite()
			} else {
				pp.shutdown()
			}
			return
		}
	}
}

// proxyPipe is one bridged client<->upstream connection pair.
type proxyPipe struct {
	client   net.Conn
	upstream net.Conn
	mu       sync.Mutex
	dead     bool
}

func (pp *proxyPipe) killed() bool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.dead
}

// kill abruptly closes both sides with SO_LINGER=0 so the peers see RST,
// not FIN — the "connection vanished" failure mode. The call that does it
// bumps counter (when non-nil) before either socket closes, so a peer that
// sees the dead connection also sees it counted in Stats.
func (pp *proxyPipe) kill(counter *atomic.Int64) {
	pp.mu.Lock()
	if pp.dead {
		pp.mu.Unlock()
		return
	}
	pp.dead = true
	if counter != nil {
		counter.Add(1)
	}
	pp.mu.Unlock()
	for _, c := range []net.Conn{pp.client, pp.upstream} {
		if tcp, ok := c.(*net.TCPConn); ok {
			tcp.SetLinger(0)
		}
		c.Close()
	}
}

// shutdown closes both sides normally (FIN) for graceful teardown.
func (pp *proxyPipe) shutdown() {
	pp.mu.Lock()
	if pp.dead {
		pp.mu.Unlock()
		return
	}
	pp.dead = true
	pp.mu.Unlock()
	pp.client.Close()
	pp.upstream.Close()
}
