package transport

import (
	"encoding/binary"
	"io"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
)

// rawPeer listens on a plain socket and hands the first accepted
// connection to fn on its own goroutine; the returned channel closes when
// fn returns.
func rawPeer(t *testing.T, fn func(c net.Conn)) (addr string, done <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("raw listen: %v", err)
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fn(c)
	}()
	return ln.Addr().String(), ch
}

// readFrame reads one length-prefixed frame off a raw socket.
func readFrame(c net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil, err
	}
	f := make([]byte, 4+int(binary.LittleEndian.Uint32(hdr[:])))
	copy(f, hdr[:])
	_, err := io.ReadFull(c, f[4:])
	return f, err
}

func getFrame(id uint64, val []byte) []byte {
	return rpcproto.AppendRequestFrame(nil, &rpcproto.Request{
		ID: id, Op: rpcproto.OpPut, Key: []byte("k"), Value: val})
}

// TestTCPShortWriteThenIdle pins the tail writer's deadline hygiene. A burst
// larger than the socket buffers while the peer is not reading forces a
// short non-blocking write, so the tail goes to the blocking writer, which
// arms WriteTimeout. The peer then drains, the connection idles past that
// deadline, and the next round trip must still go through: a deadline left
// armed would fail the next non-blocking write at once with i/o timeout.
func TestTCPShortWriteThenIdle(t *testing.T) {
	const frames, valLen = 128, 64 << 10
	want := frames * len(getFrame(1, make([]byte, valLen)))
	addr, peerDone := rawPeer(t, func(c net.Conn) {
		time.Sleep(10 * time.Millisecond) // let the sender's buffer fill
		if _, err := io.CopyN(io.Discard, c, int64(want)); err != nil {
			t.Errorf("peer drain: %v", err)
			return
		}
		req, err := readFrame(c)
		if err != nil {
			t.Errorf("peer read request: %v", err)
			return
		}
		_, payload, _, _ := rpcproto.DecodeFrame(req)
		r, _, _ := rpcproto.DecodeRequest(payload)
		c.Write(rpcproto.AppendResponseFrame(nil, &rpcproto.Response{ID: r.ID, Status: rpcproto.StatusOK}))
	})
	env := wallclock.New()
	var rtErr error
	env.Spawn("client", func(p runtime.Task) {
		conn, err := DialTCPOpts(env, addr, TCPOptions{WriteTimeout: 50 * time.Millisecond})
		if err != nil {
			rtErr = err
			return
		}
		defer conn.Close()
		val := make([]byte, valLen)
		for i := 0; i < frames; i++ {
			if rtErr = conn.Send(p, getFrame(uint64(i), val)); rtErr != nil {
				return
			}
		}
		p.Sleep(150 * runtime.Millisecond) // tail written, then idle past its deadline
		if rtErr = conn.Send(p, getFrame(999, nil)); rtErr != nil {
			return
		}
		f, err := conn.Recv(p)
		if err != nil {
			rtErr = err
			return
		}
		_, payload, _, _ := rpcproto.DecodeFrame(f)
		if r, _, err := rpcproto.DecodeResponse(payload); err != nil || r.ID != 999 {
			t.Errorf("response: id %d err %v, want id 999", r.ID, err)
		}
	})
	env.Wait()
	<-peerDone
	if rtErr != nil {
		t.Fatalf("round trip after a short write and an idle period: %v", rtErr)
	}
}

// TestTCPBurstLeavesInOneWrite: eight tasks that each Send one frame in the
// same burst share one idle flush, so a peer already blocked in read(2)
// receives all eight frames from a single Read. Each sender works for 2 ms
// after its Send while the next one is runnable: a flush that did not wait
// for quiet would put its frame on the wire alone and give the peer time
// to read it.
func TestTCPBurstLeavesInOneWrite(t *testing.T) {
	const senders = 8
	one := len(getFrame(1, nil))
	got := make(chan int, 1)
	addr, peerDone := rawPeer(t, func(c net.Conn) {
		buf := make([]byte, 64<<10)
		n, _ := c.Read(buf)
		got <- n
		io.Copy(io.Discard, c)
	})
	env := wallclock.New()
	env.Spawn("client", func(p runtime.Task) {
		conn, err := DialTCP(env, addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			got <- -1
			return
		}
		p.Sleep(20 * runtime.Millisecond) // the peer is now parked in Read
		for i := 0; i < senders; i++ {
			env.Spawn("sender", func(q runtime.Task) {
				conn.Send(q, getFrame(uint64(i), nil))
				time.Sleep(2 * time.Millisecond) // holding the runtime lock
			})
		}
		// Close only well after the burst: Close flushes on its own, which
		// would merge the frames whether or not the idle flush did.
		p.Sleep(20 * runtime.Millisecond)
		conn.Close()
	})
	env.Wait()
	<-peerDone
	if n := <-got; n != senders*one {
		t.Fatalf("first Read returned %d bytes, want all %d frames (%d bytes)", n, senders, senders*one)
	}
}

// TestTCPIdleConnOwnsNoGoroutine: a connection that has done a round trip
// and sits idle, with no task in Recv, costs no goroutine at either end.
func TestTCPIdleConnOwnsNoGoroutine(t *testing.T) {
	const conns = 4
	before := goruntime.NumGoroutine()
	env := wallclock.New()
	l, err := ListenTCP(env, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var keep []Conn
	env.Spawn("server", func(p runtime.Task) {
		for i := 0; i < conns; i++ {
			c, err := l.Accept(p)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			keep = append(keep, c)
			f, err := c.Recv(p)
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			c.Send(p, f)
		}
	})
	env.Spawn("client", func(p runtime.Task) {
		for i := 0; i < conns; i++ {
			c, err := DialTCP(env, l.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			keep = append(keep, c)
			if err := oneEcho(p, c, uint64(i)); err != nil {
				t.Errorf("round trip %d: %v", i, err)
			}
		}
	})
	env.Wait()
	if len(keep) != 2*conns {
		t.Fatalf("set up %d of %d connection ends", len(keep), 2*conns)
	}
	// Every task has returned; 2*conns healthy connections are still open.
	waitGoroutines(t, before)
	for _, c := range keep {
		c.Close()
	}
	l.Close()
}

// TestTCPCloseFlushesBeforeFIN: frames queued in the same step as Close
// (their idle flush not yet run) still reach the peer before end of stream.
func TestTCPCloseFlushesBeforeFIN(t *testing.T) {
	const frames = 200
	val := make([]byte, 4<<10)
	want := frames * len(getFrame(1, val))
	got := make(chan int64, 1)
	addr, peerDone := rawPeer(t, func(c net.Conn) {
		n, _ := io.Copy(io.Discard, c)
		got <- n
	})
	env := wallclock.New()
	env.Spawn("client", func(p runtime.Task) {
		conn, err := DialTCP(env, addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			got <- -1
			return
		}
		for i := 0; i < frames; i++ {
			conn.Send(p, getFrame(uint64(i), val))
		}
		conn.Close()
		if err := conn.Send(p, getFrame(frames, val)); err != ErrClosed {
			t.Errorf("Send after Close: %v, want ErrClosed", err)
		}
	})
	env.Wait()
	<-peerDone
	if n := <-got; n != int64(want) {
		t.Fatalf("peer read %d bytes before EOF, want %d", n, want)
	}
}

// TestTCPConcurrentRecv: two tasks in Recv on one connection share the
// socket — one reads, the other waits for that read — and between them
// get every frame exactly once, intact.
func TestTCPConcurrentRecv(t *testing.T) {
	const frames = 500
	addr, peerDone := rawPeer(t, func(c net.Conn) {
		for i := 0; i < frames; i++ {
			c.Write(rpcproto.AppendResponseFrame(nil, &rpcproto.Response{
				ID: uint64(i), Status: rpcproto.StatusOK, Value: make([]byte, i%300)}))
		}
	})
	env := wallclock.New()
	seen := make(map[uint64]bool)
	env.Spawn("client", func(p runtime.Task) {
		conn, err := DialTCP(env, addr)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		recv := func(q runtime.Task) {
			for {
				f, err := conn.Recv(q)
				if err != nil {
					return
				}
				_, payload, _, _ := rpcproto.DecodeFrame(f)
				r, _, err := rpcproto.DecodeResponse(payload)
				if err != nil || len(r.Value) != int(r.ID%300) || seen[r.ID] {
					t.Errorf("frame id %d: err %v, value %d bytes, dup %v", r.ID, err, len(r.Value), seen[r.ID])
					return
				}
				seen[r.ID] = true
			}
		}
		env.Spawn("recv", recv)
		recv(p)
		conn.Close()
	})
	env.Wait()
	<-peerDone
	if len(seen) != frames {
		t.Fatalf("received %d distinct frames, want %d", len(seen), frames)
	}
}
