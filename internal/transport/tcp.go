package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"leed/internal/rpcproto"
	"leed/internal/runtime"
)

// The TCP backend carries frames over real sockets, and a connection runs
// to completion on the task that owns it: no goroutine is parked on a
// socket on the connection's behalf.
//
//   - Recv reads the socket on the calling task, through Task.Blocking, into
//     a per-connection buffer, and returns frames that are already buffered
//     without a syscall. The socket is read only when its owner asks for the
//     next frame, so a server that stops calling Recv (its pipeline window
//     is full) stops draining the socket and TCP flow control pushes back
//     on the peer. Accept blocks the same way.
//   - Send appends to a per-connection coalescing buffer and, once per
//     burst, arms an Env.AfterIdle hook. The hook runs when the runtime goes
//     quiet, outside the runtime lock, on whichever goroutine released it
//     into quiet, and issues one non-blocking write for everything every
//     task queued since. Only the tail of a short write (the socket buffer
//     filled) is handed to a goroutine that may block under WriteTimeout,
//     as is the flush on Close. Bytes leave in Send order on both paths.
//
// TCP is used with the wallclock backend: under sim there is no real wire,
// and the sim kernel's virtual clock has no relation to socket readiness.

// ErrIdleTimeout reports a connection torn down by its read-idle deadline:
// no bytes arrived (or a frame stalled mid-read) for longer than the
// configured TCPOptions.ReadIdleTimeout. For a server this is the idle-reap
// signal; for a client it means the peer silently disappeared.
var ErrIdleTimeout = errors.New("transport: connection idle timeout")

// TCPOptions bounds a TCP connection's patience. The zero value preserves
// the historical behavior (block forever), but production servers should
// set both: without a read deadline a peer that vanishes mid-frame — a
// kill -9'd client, a blackholed route — parks the reading task on that
// socket forever, and without a write deadline a peer that stops reading
// can park the tail writer the same way.
type TCPOptions struct {
	// ReadIdleTimeout tears the connection down when no bytes arrive for
	// this long, whether between frames (idle reaping) or mid-frame (a
	// half-dead peer). Recv then reports ErrIdleTimeout. 0 = never.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each blocking write of a short-write tail or the
	// close flush. A peer that stops draining its receive window fails the
	// write instead of wedging the writer. 0 = never.
	WriteTimeout time.Duration
}

// TCPListener is the TCP transport's Listener.
type TCPListener struct {
	env     runtime.Env
	ln      net.Listener
	opts    TCPOptions
	closeMu sync.Mutex
	closed  bool
}

// ListenTCP binds addr (e.g. ":9090" or "127.0.0.1:0"). Wallclock backend
// only; see the package comment.
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
	return &TCPListener{env: env, ln: ln, opts: opts}, nil
}

// Accept implements Listener: the calling task blocks in accept(2) with the
// runtime released.
func (l *TCPListener) Accept(t runtime.Task) (Conn, error) {
	var c net.Conn
	var err error
	t.Blocking(func() { c, err = l.ln.Accept() })
	if err != nil {
		return nil, ErrClosed
	}
	tc, err := newTCPConn(l.env, c, l.opts)
	if err != nil {
		return nil, err
	}
	return tc, nil
}

// Addr implements Listener: the bound host:port, useful with ":0".
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Close implements Listener; safe from any goroutine, idempotent. A task
// blocked in Accept returns ErrClosed.
func (l *TCPListener) Close() error {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.ln.Close()
}

// readBufSize is the per-connection receive buffer: one read(2) pulls in
// every frame a pipelined peer has queued, up to this many bytes. A frame
// larger than the buffer grows it.
const readBufSize = 64 << 10

// TCPConn is one TCP connection speaking length-prefixed rpcproto frames.
type TCPConn struct {
	env  runtime.Env
	c    net.Conn
	raw  syscall.RawConn
	name string
	opts TCPOptions

	// Read side, guarded by the execution contract. rbuf[rpos:rend] holds
	// received bytes not yet returned as frames; rerr is the sticky
	// terminal error. reading marks a task inside the blocking read; other
	// Recv callers park on rwait until it is back. readFn is tc.read bound
	// once, so a Recv that goes to the socket allocates no closure; rn and
	// rxerr carry its result.
	rbuf       []byte
	rpos, rend int
	rerr       error
	reading    bool
	rwait      []runtime.Ticket
	readFn     func()
	rn         int
	rxerr      error

	// Write side, guarded by wmu. wbuf accumulates Sends; wspare is the
	// last written buffer, recycled so Send stays alloc-free. armed means
	// an idle flush is registered. wbusy means a flush or the tail writer
	// owns the socket's write side; whoever holds it re-checks wbuf before
	// giving it up, so bytes queued meanwhile are never stranded and never
	// overtake an unwritten tail.
	wmu     sync.Mutex
	wbuf    []byte
	wspare  []byte
	armed   bool
	wbusy   bool
	werr    error
	wclosed bool

	// flushFn is tc.flush bound once: arming a hook must not allocate.
	// rawWriteFn is tc.rawWrite bound once for RawConn.Write; wout, wn and
	// wsysErr are its argument and results, touched only by the wbusy
	// owner.
	flushFn    func()
	rawWriteFn func(fd uintptr) bool
	wout       []byte
	wn         int
	wsysErr    error

	sockOnce sync.Once
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
	return newTCPConn(env, c, opts)
}

func newTCPConn(env runtime.Env, c net.Conn, opts TCPOptions) (*TCPConn, error) {
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		c.Close()
		return nil, err
	}
	tc := &TCPConn{
		env:  env,
		c:    c,
		raw:  raw,
		name: fmt.Sprintf("tcp-%s", c.RemoteAddr()),
		opts: opts,
		rbuf: make([]byte, readBufSize),
	}
	tc.readFn = tc.read
	tc.flushFn = tc.flush
	tc.rawWriteFn = tc.rawWrite
	return tc, nil
}

// Recv implements Conn. The caller owns the returned frame buffer. A
// buffered frame is returned without a syscall; otherwise the task reads
// the socket with the runtime released, and a second caller meanwhile
// waits for that read instead of issuing its own. The length prefix is
// validated (rpcproto.FrameLen) before a frame buffer is sized, so a
// garbage prefix costs an error, never an allocation. With a
// ReadIdleTimeout the deadline is re-armed before every read, so a peer
// that vanishes mid-frame (no FIN, no RST) bounds the wait instead of
// parking the task forever.
func (tc *TCPConn) Recv(t runtime.Task) ([]byte, error) {
	for {
		need := 4
		if avail := tc.rbuf[tc.rpos:tc.rend]; len(avail) >= need {
			total, err := rpcproto.FrameLen(avail)
			if err != nil {
				// A poisoned stream has no resync point past a bad prefix;
				// the prefix stays put, so every later Recv fails too.
				tc.closeSocket()
				return nil, err
			}
			if len(avail) >= total {
				frame := rpcproto.GetBufLen(total)
				copy(frame, avail)
				tc.rpos += total
				return frame, nil
			}
			need = total
		}
		if tc.rerr != nil {
			return nil, tc.rerr
		}
		if tc.reading {
			tc.rwait = append(tc.rwait, t.Prepare())
			t.Park()
			continue
		}
		// Only the reader moves rpos/rend back or touches rbuf[rend:].
		tc.makeRoom(need)
		tc.reading = true
		t.Blocking(tc.readFn)
		tc.reading = false
		tc.rend += tc.rn
		if tc.rxerr != nil && tc.rn == 0 {
			tc.readFailed(tc.rxerr)
		}
		for i, tk := range tc.rwait {
			tk.Wake()
			tc.rwait[i] = nil
		}
		tc.rwait = tc.rwait[:0]
	}
}

// makeRoom ensures the buffer can hold a need-byte frame starting at rpos:
// an empty buffer starts over at the front, a partial frame that would run
// off the end slides there, and a frame larger than the buffer grows it.
func (tc *TCPConn) makeRoom(need int) {
	if tc.rpos == tc.rend {
		tc.rpos, tc.rend = 0, 0
	}
	if tc.rpos+need <= len(tc.rbuf) {
		return
	}
	n := copy(tc.rbuf, tc.rbuf[tc.rpos:tc.rend])
	if need > len(tc.rbuf) {
		grown := make([]byte, need)
		copy(grown, tc.rbuf[:n])
		tc.rbuf = grown
	}
	tc.rpos, tc.rend = 0, n
}

// read is the blocking half of Recv, run through Task.Blocking: one read(2)
// into the free tail of the buffer.
func (tc *TCPConn) read() {
	if tc.opts.ReadIdleTimeout > 0 {
		tc.c.SetReadDeadline(time.Now().Add(tc.opts.ReadIdleTimeout))
	}
	tc.rn, tc.rxerr = tc.c.Read(tc.rbuf[tc.rend:])
}

// readFailed records the read side's terminal error. A deadline expiry is
// translated to ErrIdleTimeout and tears the whole connection down: the
// peer is presumed dead. A FIN from the peer or a local close reads as
// ErrClosed.
func (tc *TCPConn) readFailed(err error) {
	var nerr net.Error
	switch {
	case errors.As(err, &nerr) && nerr.Timeout():
		err = ErrIdleTimeout
		tc.Close()
	case err == io.EOF || errors.Is(err, net.ErrClosed):
		err = ErrClosed
	}
	tc.rerr = err
}

// Send implements Conn: append to the coalescing buffer and, if nothing is
// scheduled to move it, arm one idle flush for the burst. Never blocks on
// the socket and never allocates in steady state.
func (tc *TCPConn) Send(t runtime.Task, frame []byte) error {
	tc.wmu.Lock()
	if tc.wclosed {
		tc.wmu.Unlock()
		return ErrClosed
	}
	if err := tc.werr; err != nil {
		tc.wmu.Unlock()
		return err
	}
	tc.wbuf = append(tc.wbuf, frame...)
	arm := !tc.armed && !tc.wbusy
	tc.armed = tc.armed || arm
	tc.wmu.Unlock()
	// The frame is fully copied into the coalescing buffer; this conn's
	// ownership ends here and the buffer goes back to the pool.
	rpcproto.PutBuf(frame)
	if arm {
		tc.env.AfterIdle(tc.flushFn)
	}
	return nil
}

// takeBuf swaps the coalescing buffer for the spare. Caller holds wmu.
func (tc *TCPConn) takeBuf() []byte {
	buf := tc.wbuf
	tc.wbuf = tc.wspare[:0]
	tc.wspare = nil
	return buf
}

// recycle keeps a written buffer (capacity-bounded) as the spare, so the
// two buffers ping-pong between Send and the writers. Caller holds wmu.
func (tc *TCPConn) recycle(buf []byte) {
	if tc.wspare == nil && cap(buf) <= 1<<20 {
		tc.wspare = buf[:0]
	}
}

// fail records a write-side error and drops the socket, which also ends a
// Recv blocked on it. Caller holds wmu.
func (tc *TCPConn) fail(err error) {
	if tc.werr == nil {
		tc.werr = err
	}
	tc.closeSocket()
}

// flush is the idle hook: it runs outside the runtime lock on the goroutine
// that released it into quiet and writes the coalescing buffer with
// non-blocking writes until it is empty. A short write hands the unwritten
// tail, and with it the write side, to writeTail.
func (tc *TCPConn) flush() {
	tc.wmu.Lock()
	tc.armed = false
	if tc.wbusy {
		tc.wmu.Unlock() // the owner re-checks wbuf before letting go
		return
	}
	tc.wbusy = true
	for tc.werr == nil && len(tc.wbuf) > 0 {
		buf := tc.takeBuf()
		tc.wmu.Unlock()
		n, err := tc.writeNow(buf)
		tc.wmu.Lock()
		if err != nil {
			tc.recycle(buf)
			tc.fail(err)
			break
		}
		if n < len(buf) {
			tc.wmu.Unlock()
			go tc.writeTail(buf, n)
			return
		}
		tc.recycle(buf)
	}
	tc.release()
}

// writeNow issues one non-blocking write(2) of buf and reports how much of
// it the socket took. EAGAIN is a short write of zero bytes.
func (tc *TCPConn) writeNow(buf []byte) (int, error) {
	tc.wout, tc.wn = buf, 0
	err := tc.raw.Write(tc.rawWriteFn)
	tc.wout = nil
	if err == nil {
		err = tc.wsysErr
	}
	if err == syscall.EAGAIN {
		err = nil
	}
	return tc.wn, err
}

// rawWrite is the RawConn.Write callback. Returning true tells the runtime
// poller not to wait for writability: a full socket buffer is writeTail's
// business.
func (tc *TCPConn) rawWrite(fd uintptr) bool {
	for {
		n, err := syscall.Write(int(fd), tc.wout)
		if err == syscall.EINTR {
			continue
		}
		tc.wn, tc.wsysErr = max(n, 0), err
		return true
	}
}

// writeTail owns the write side after a short write: it writes buf[off:]
// with blocking writes under WriteTimeout, then everything queued behind
// it, then gives the write side back.
func (tc *TCPConn) writeTail(buf []byte, off int) {
	for {
		if tc.opts.WriteTimeout > 0 {
			tc.c.SetWriteDeadline(time.Now().Add(tc.opts.WriteTimeout))
		}
		_, err := tc.c.Write(buf[off:])
		if tc.opts.WriteTimeout > 0 {
			// A deadline left armed would fail the next non-blocking write
			// at once with i/o timeout once it has passed.
			tc.c.SetWriteDeadline(time.Time{})
		}
		tc.wmu.Lock()
		tc.recycle(buf)
		if err != nil {
			tc.fail(err)
		}
		if tc.werr != nil || len(tc.wbuf) == 0 {
			tc.release()
			return
		}
		buf, off = tc.takeBuf(), 0
		tc.wmu.Unlock()
	}
}

// release gives up the write side and unlocks wmu. After Close the last
// owner closes the socket: queued frames have flushed before the FIN.
func (tc *TCPConn) release() {
	tc.wbusy = false
	closing := tc.wclosed
	tc.wmu.Unlock()
	if closing {
		tc.closeSocket()
	}
}

func (tc *TCPConn) closeSocket() { tc.sockOnce.Do(func() { tc.c.Close() }) }

// Close implements Conn: queued outbound frames flush, then the socket
// closes, which unblocks the peer and a local Recv. Safe from any
// goroutine; idempotent.
func (tc *TCPConn) Close() error {
	tc.wmu.Lock()
	if tc.wclosed {
		tc.wmu.Unlock()
		return nil
	}
	tc.wclosed = true
	if tc.wbusy {
		tc.wmu.Unlock() // the current owner closes the socket when done
		return nil
	}
	if len(tc.wbuf) == 0 || tc.werr != nil {
		tc.release()
		return nil
	}
	tc.wbusy = true
	buf := tc.takeBuf()
	tc.wmu.Unlock()
	go tc.writeTail(buf, 0)
	return nil
}

func (tc *TCPConn) String() string { return tc.name }

var (
	_ Listener = (*TCPListener)(nil)
	_ Conn     = (*TCPConn)(nil)
)
