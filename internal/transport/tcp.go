package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"leed/internal/rpcproto"
	"leed/internal/runtime"
)

// The TCP backend carries frames over real sockets. Socket syscalls cannot
// run under the execution contract (a blocked read would stall every task),
// so each connection owns two plain goroutines — a reader and a writer —
// and bridges into the runtime world through env.After(0, ...), which both
// backends define as "run this in scheduler context". In practice TCP is
// used with the wallclock backend: under sim there is no real wire, and the
// sim kernel's virtual clock has no relation to socket readiness.
//
// Pipelining and coalescing: the reader delivers frames as fast as the
// stream yields them, so any number of requests from one client can be in
// flight; Send appends to a per-connection buffer that the writer drains
// with single large writes, so a burst of pipelined responses costs one
// syscall, not one per response.

// inbox hands deliveries from a raw goroutine to a runtime queue. The reader
// appends to a mutex-guarded slice and schedules a single drain per burst,
// so a run of frames costs one After(0) — one pass through the runtime lock
// — rather than one each; the drain moves everything in arrival order. On
// the wallclock backend After(0) from a raw goroutine takes the runtime lock
// if it is idle and runs the drain on the reader goroutine itself; otherwise
// the current holder runs it when it releases the lock.
type inbox struct {
	env     runtime.Env
	q       runtime.Queue
	drainFn func() // bound once; After(0, b.drain) would allocate per call

	mu        sync.Mutex
	pending   []any
	spare     []any // previous drained slice, recycled to keep put alloc-free
	scheduled bool
}

func newInbox(env runtime.Env) *inbox {
	b := &inbox{env: env, q: env.MakeQueue()}
	b.drainFn = b.drain
	return b
}

// put delivers v; safe from any goroutine.
func (b *inbox) put(v any) {
	b.mu.Lock()
	b.pending = append(b.pending, v)
	sched := b.scheduled
	b.scheduled = true
	b.mu.Unlock()
	if !sched {
		b.env.After(0, b.drainFn)
	}
}

// drain runs in scheduler context.
func (b *inbox) drain() {
	b.mu.Lock()
	items := b.pending
	b.pending = b.spare
	b.spare = nil
	b.scheduled = false
	b.mu.Unlock()
	for i, v := range items {
		b.q.Put(v)
		items[i] = nil
	}
	b.mu.Lock()
	if b.spare == nil {
		b.spare = items[:0]
	}
	b.mu.Unlock()
}

// ErrIdleTimeout reports a connection torn down by its read-idle deadline:
// no bytes arrived (or a frame stalled mid-read) for longer than the
// configured TCPOptions.ReadIdleTimeout. For a server this is the idle-reap
// signal; for a client it means the peer silently disappeared.
var ErrIdleTimeout = errors.New("transport: connection idle timeout")

// TCPOptions bounds a TCP connection's patience. The zero value preserves
// the historical behavior (block forever), but production servers should
// set both: without a read deadline a peer that vanishes mid-frame — a
// kill -9'd client, a blackholed route — parks the reader goroutine on that
// socket forever, and without a write deadline a peer that stops reading
// can park the writer the same way.
type TCPOptions struct {
	// ReadIdleTimeout tears the connection down when no bytes arrive for
	// this long, whether between frames (idle reaping) or mid-frame (a
	// half-dead peer). Recv then reports ErrIdleTimeout. 0 = never.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each coalesced socket write. A peer that stops
	// draining its receive window fails the write instead of wedging the
	// writer goroutine. 0 = never.
	WriteTimeout time.Duration
}

// TCPListener is the TCP transport's Listener.
type TCPListener struct {
	env     runtime.Env
	ln      net.Listener
	inbox   *inbox
	closeMu sync.Mutex
	closed  bool
}

// ListenTCP binds addr (e.g. ":9090" or "127.0.0.1:0") and starts
// accepting. Wallclock backend only; see the package comment.
func ListenTCP(env runtime.Env, addr string) (*TCPListener, error) {
	return ListenTCPOpts(env, addr, TCPOptions{})
}

// ListenTCPOpts is ListenTCP with connection options applied to every
// accepted connection.
func ListenTCPOpts(env runtime.Env, addr string, opts TCPOptions) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &TCPListener{env: env, ln: ln, inbox: newInbox(env)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				l.inbox.put(eofItem{err: err})
				return
			}
			l.inbox.put(newTCPConn(env, c, opts))
		}
	}()
	return l, nil
}

// Accept implements Listener.
func (l *TCPListener) Accept(t runtime.Task) (Conn, error) {
	v := l.inbox.q.Get(t)
	if _, eof := v.(eofItem); eof {
		l.inbox.q.Put(eofItem{})
		return nil, ErrClosed
	}
	return v.(Conn), nil
}

// Addr implements Listener: the bound host:port, useful with ":0".
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Close implements Listener; safe from any goroutine, idempotent.
func (l *TCPListener) Close() error {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.ln.Close() // accept goroutine injects the eofItem
}

// TCPConn is one TCP connection speaking length-prefixed rpcproto frames.
type TCPConn struct {
	env  runtime.Env
	c    net.Conn
	name string
	rx   *inbox
	opts TCPOptions

	wmu     sync.Mutex
	wcond   *sync.Cond
	wbuf    []byte
	wspare  []byte // last written buffer, recycled so Send stays alloc-free
	werr    error
	wclosed bool

	closeOnce sync.Once
}

// DialTCP connects to a LEED server at addr. Wallclock backend only.
func DialTCP(env runtime.Env, addr string) (*TCPConn, error) {
	return DialTCPOpts(env, addr, TCPOptions{})
}

// DialTCPOpts is DialTCP with connection options.
func DialTCPOpts(env runtime.Env, addr string, opts TCPOptions) (*TCPConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(env, c, opts), nil
}

func newTCPConn(env runtime.Env, c net.Conn, opts TCPOptions) *TCPConn {
	tc := &TCPConn{
		env:  env,
		c:    c,
		name: fmt.Sprintf("tcp-%s", c.RemoteAddr()),
		rx:   newInbox(env),
		opts: opts,
	}
	tc.wcond = sync.NewCond(&tc.wmu)
	go tc.readLoop()
	go tc.writeLoop()
	return tc
}

// readLoop reads one frame at a time off the stream and delivers it. The
// length prefix is validated (rpcproto.FrameLen) before the frame buffer is
// sized, so a garbage prefix costs an error, never an allocation. With a
// ReadIdleTimeout configured the deadline is re-armed before every read, so
// a peer that vanishes mid-frame (no FIN, no RST — just silence) bounds this
// goroutine's lifetime instead of leaking it.
func (tc *TCPConn) readLoop() {
	br := bufio.NewReaderSize(tc.c, 64<<10)
	var hdr [4]byte
	for {
		tc.armReadDeadline()
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			tc.readFailed(err)
			return
		}
		total, err := rpcproto.FrameLen(hdr[:])
		if err != nil {
			tc.rx.put(eofItem{err: err})
			tc.c.Close() // poisoned stream: no resync point past a bad prefix
			return
		}
		// Rent the frame from the pool; its eventual Recv caller owns and
		// releases it. Box the slice so the queue hop carries a pointer.
		frame := rpcproto.GetBufLen(total)
		copy(frame, hdr[:])
		tc.armReadDeadline()
		if _, err := io.ReadFull(br, frame[4:]); err != nil {
			rpcproto.PutBuf(frame)
			tc.readFailed(err)
			return
		}
		fb := boxPool.Get().(*frameBox)
		fb.data = frame
		tc.rx.put(fb)
	}
}

func (tc *TCPConn) armReadDeadline() {
	if tc.opts.ReadIdleTimeout > 0 {
		tc.c.SetReadDeadline(time.Now().Add(tc.opts.ReadIdleTimeout))
	}
}

// readFailed delivers the reader's terminal error. A deadline expiry is
// translated to ErrIdleTimeout and — unlike a clean peer FIN, where queued
// responses may still be deliverable — tears the whole connection down:
// the peer is presumed dead, so parking the writer to flush to it would
// just trade a reader leak for a writer leak.
func (tc *TCPConn) readFailed(err error) {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		err = ErrIdleTimeout
		tc.Close()
	}
	tc.rx.put(eofItem{err: err})
}

// writeLoop drains the coalescing buffer: everything Send accumulated since
// the last wakeup goes out in one Write call.
func (tc *TCPConn) writeLoop() {
	tc.wmu.Lock()
	for {
		for len(tc.wbuf) == 0 && !tc.wclosed && tc.werr == nil {
			tc.wcond.Wait()
		}
		if tc.werr != nil || (tc.wclosed && len(tc.wbuf) == 0) {
			break
		}
		buf := tc.wbuf
		tc.wbuf = tc.wspare[:0]
		tc.wspare = nil
		tc.wmu.Unlock()
		if tc.opts.WriteTimeout > 0 {
			tc.c.SetWriteDeadline(time.Now().Add(tc.opts.WriteTimeout))
		}
		_, err := tc.c.Write(buf)
		tc.wmu.Lock()
		if err != nil && tc.werr == nil {
			tc.werr = err
		}
		// Recycle the written buffer (capacity-bounded) so the two buffers
		// ping-pong between Send and the writer without reallocating.
		if cap(buf) <= 1<<20 {
			tc.wspare = buf[:0]
		}
	}
	tc.wmu.Unlock()
	// The writer owns the socket teardown so queued responses flush before
	// FIN; this is what lets a draining server close cleanly.
	tc.c.Close()
}

// Send implements Conn: append to the coalescing buffer and wake the
// writer. Never blocks on the socket.
func (tc *TCPConn) Send(t runtime.Task, frame []byte) error {
	tc.wmu.Lock()
	defer tc.wmu.Unlock()
	if tc.wclosed {
		return ErrClosed
	}
	if tc.werr != nil {
		return tc.werr
	}
	tc.wbuf = append(tc.wbuf, frame...)
	tc.wcond.Signal()
	// The frame is fully copied into the coalescing buffer; this conn's
	// ownership ends here and the buffer goes back to the pool.
	rpcproto.PutBuf(frame)
	return nil
}

// Recv implements Conn. The caller owns the returned frame buffer.
func (tc *TCPConn) Recv(t runtime.Task) ([]byte, error) {
	v := tc.rx.q.Get(t)
	if fb, ok := v.(*frameBox); ok {
		data := fb.data
		fb.data = nil
		boxPool.Put(fb)
		return data, nil
	}
	eof := v.(eofItem)
	tc.rx.q.Put(eofItem{err: eof.err})
	if eof.err != nil && eof.err != io.EOF {
		return nil, eof.err
	}
	return nil, ErrClosed
}

// Close implements Conn: queued outbound frames flush, then the socket
// closes, which unblocks the peer and the local reader. Safe from any
// goroutine; idempotent.
func (tc *TCPConn) Close() error {
	tc.closeOnce.Do(func() {
		tc.wmu.Lock()
		tc.wclosed = true
		tc.wcond.Signal()
		tc.wmu.Unlock()
	})
	return nil
}

func (tc *TCPConn) String() string { return tc.name }

var (
	_ Listener = (*TCPListener)(nil)
	_ Conn     = (*TCPConn)(nil)
)
