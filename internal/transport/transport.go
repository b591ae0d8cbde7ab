// Package transport is the seam between LEED's request path and the wire.
// A server accepts Conns from a Listener and exchanges rpcproto frames over
// them; everything above this interface (routing, admission, execution,
// response generation) is identical whether the peer is a goroutine in the
// same process or a remote process on a TCP socket.
//
// Two backends implement the seam:
//
//   - inproc: channel-style queue pairs on the runtime seam. Runs under both
//     the sim kernel and the wallclock backend, and can be routed through a
//     netsim.Fabric so the chaos fault layer (delay, jitter, partitions)
//     applies to served traffic.
//   - tcp: a real net.Listener. Frames are length-prefixed on the stream
//     (rpcproto's frame layer) and requests pipeline freely per connection.
//     A connection runs on the task that owns it: Recv reads the socket on
//     that task (Task.Blocking), and what every task Sends in a burst leaves
//     in one write once the runtime goes quiet (Env.AfterIdle). No
//     goroutine is parked on an idle connection.
//
// All Conn and Listener methods that can block take a runtime.Task and
// follow the execution contract, so server code stays backend-agnostic.
// Frames passed through Send/Recv are complete encoded frames, length
// prefix included — exactly what rpcproto.DecodeFrame consumes.
//
// Frame buffers follow rpcproto's single-owner pool contract: Send takes
// ownership of the frame it is handed (the caller must not touch it after
// Send returns), and the caller of Recv owns the returned frame — it should
// rpcproto.PutBuf it once decoded values are no longer needed. The TCP
// backend copies outbound frames into its coalescing write buffer and
// releases them immediately; the inproc backend passes the buffer itself to
// the peer, whose Recv caller releases it. Fabric-routed frames are held by
// the modeled network and simply fall to the GC (the pool is best-effort).
package transport

import (
	"errors"

	"leed/internal/runtime"
)

// ErrClosed reports an operation on a closed Conn or Listener, including a
// Recv that drained the peer's final frame and found the stream ended.
var ErrClosed = errors.New("transport: closed")

// Conn is one bidirectional frame stream between a client and a server.
type Conn interface {
	// Send queues one encoded frame for the peer and returns without
	// waiting for delivery. The frame must be a complete rpcproto frame
	// (length prefix included); the transport may batch queued frames into
	// one wire write. Send must be called in task context. Send takes
	// OWNERSHIP of the frame buffer: the caller must not read, reuse, or
	// release it after Send returns (see the package comment).
	Send(t Task, frame []byte) error
	// Recv blocks until the next frame arrives and returns it. It returns
	// ErrClosed when the connection is closed (locally or by the peer) and
	// no frames remain. The caller owns the returned frame and should
	// release it with rpcproto.PutBuf when done with its bytes.
	Recv(t Task) ([]byte, error)
	// Close tears the connection down; pending Recvs unblock with
	// ErrClosed once queued frames drain. Close must be called in task or
	// scheduler context on the inproc backend; the TCP backend accepts it
	// from any goroutine. Close is idempotent.
	Close() error
	// String names the connection for logs and metric labels.
	String() string
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks until a new connection arrives. It returns ErrClosed
	// once the listener is closed.
	Accept(t Task) (Conn, error)
	// Addr returns the bound address ("inproc" for the in-process backend,
	// host:port for TCP).
	Addr() string
	// Close stops accepting. Established connections are unaffected.
	// Same context rules as Conn.Close. Idempotent.
	Close() error
}

// Task aliases runtime.Task: every blocking transport method runs in task
// context under the execution contract.
type Task = runtime.Task

// eofItem is the in-queue sentinel marking end of stream.
type eofItem struct{ err error }
