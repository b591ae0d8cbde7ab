package server

import (
	"errors"
	"math/rand"

	"leed/internal/core"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/transport"
)

// ErrBreakerOpen reports a call refused locally because the endpoint's
// circuit breaker is open: recent consecutive failures crossed the
// threshold, so the client fails fast instead of feeding a dead or drowning
// server more work. The request was never sent — retrying anything is safe
// once the breaker lets traffic through again.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ReliableConfig describes a ReliableClient.
type ReliableConfig struct {
	Env runtime.Env
	// Dial establishes one transport connection; called from task context
	// on first use and on every reconnect.
	Dial func(t runtime.Task) (transport.Conn, error)
	// Depth is the pipeline window per connection (Client depth).
	Depth int64

	// Deadline bounds each attempt's wait (slot + round trip). Default 2s.
	Deadline runtime.Time
	// MaxAttempts bounds tries per call, first included. Default 4.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the exponential backoff between
	// attempts: attempt n sleeps ~base<<(n-1), jittered to [d/2, d],
	// clamped to cap. Defaults 10ms / 500ms.
	BackoffBase runtime.Time
	BackoffCap  runtime.Time
	// Seed drives the jitter; fixed seed = reproducible schedule.
	Seed int64

	// BreakerThreshold is how many consecutive failures open the circuit
	// breaker. Default 5. BreakerCooloff is how long it stays open before
	// letting a single half-open probe through. Default 1s.
	BreakerThreshold int
	BreakerCooloff   runtime.Time

	// ChainFwd frames every request as FrameChainFwd peer traffic instead
	// of a client FrameRequest. Cluster nodes set it on the per-peer
	// clients that carry hop-to-hop chain forwards; plain KV servers refuse
	// the peer kind, handler-mode servers accept it.
	ChainFwd bool

	// Obs and Tracer are optional.
	Obs    *obs.Registry
	Tracer *obs.Tracer
}

// Breaker states, exported via the leed_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// ReliableClient wraps the pipelined Client with the client half of the
// fault-tolerant RPC path: per-request deadlines, transparent reconnect
// with seeded exponential backoff, an idempotency-aware retry policy, and a
// half-open circuit breaker. All state is mutated only in task context —
// the execution contract is the lock — so any number of issuer tasks may
// share one ReliableClient.
//
// The retry policy is the load-bearing part. An error is retried only when
// doing so cannot apply a write twice:
//
//   - OverloadFrame NACK and drain NACK (ErrorFrame/StatusNack): the server
//     explicitly rejected before execution — ANY op retries safely.
//   - Dial failure, breaker fast-fail: the request never left this process
//     — any op retries safely.
//   - Deadline expiry, connection death after send: the server may or may
//     not have executed the request. GET retries (idempotent); PUT/DEL do
//     not — the ambiguity surfaces to the caller, who owns the
//     read-back-or-reissue decision (the chaos drills track exactly this
//     as dup-risk).
type ReliableClient struct {
	cfg ReliableConfig
	env runtime.Env
	rng *rand.Rand

	cl         *Client
	dials      int64         // successful dials, the first included
	connecting runtime.Event // non-nil while a dial is in flight: single-flight gate

	// Circuit breaker.
	bstate   int
	bfails   int
	bopened  runtime.Time
	bprobing bool

	o relObs
	s ReliableStats
}

// ReliableStats counts what the reliability layer did.
type ReliableStats struct {
	Attempts   int64 // attempts issued (first tries included)
	Retries    int64 // attempts beyond the first
	Timeouts   int64 // attempts that hit the per-request deadline
	Overloads  int64 // overload NACKs received
	Reconnects int64 // successful dials after the first
	FastFails  int64 // calls refused by an open breaker
}

type relObs struct {
	retries    *obs.Counter
	timeouts   *obs.Counter
	overloads  *obs.Counter
	reconnects *obs.Counter
	fastFails  *obs.Counter
	state      *obs.Gauge
}

// NewReliableClient builds the client; no connection is made until the
// first call.
func NewReliableClient(cfg ReliableConfig) *ReliableClient {
	if cfg.Deadline == 0 {
		cfg.Deadline = 2 * runtime.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 10 * runtime.Millisecond
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 500 * runtime.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooloff == 0 {
		cfg.BreakerCooloff = runtime.Second
	}
	rc := &ReliableClient{
		cfg: cfg,
		env: cfg.Env,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		o: relObs{
			retries:    cfg.Obs.Counter("leed_client_retries_total"),
			timeouts:   cfg.Obs.Counter("leed_client_timeouts_total"),
			overloads:  cfg.Obs.Counter("leed_client_overloads_total"),
			reconnects: cfg.Obs.Counter("leed_client_reconnects_total"),
			fastFails:  cfg.Obs.Counter("leed_client_breaker_fastfails_total"),
			state:      cfg.Obs.Gauge("leed_breaker_state"),
		},
	}
	return rc
}

// retrySafe reports whether err may be retried for op without risking a
// duplicate write. See the type comment for the matrix.
func retrySafe(op rpcproto.Op, err error) bool {
	var of *rpcproto.OverloadFrame
	if errors.As(err, &of) {
		return true // admission rejected before execution
	}
	var ef *rpcproto.ErrorFrame
	if errors.As(err, &ef) {
		return ef.Code == rpcproto.StatusNack // drain/view NACK: not executed
	}
	// Everything else — deadline, connection death, transport teardown —
	// is ambiguous: the request may have executed. Only idempotent ops go
	// again.
	return op == rpcproto.OpGet
}

// Do issues req with deadlines, retries, and reconnects per the config.
// Task context. req.Epoch is the caller's: it carries a cluster view epoch
// end to end (nodes validate it and NACK with their newer epoch on
// mismatch, §3.8.1). A response cannot cross a reconnect, because each
// reconnect builds a fresh pipelined Client with its own ID demux.
func (rc *ReliableClient) Do(t runtime.Task, req *rpcproto.Request) (*rpcproto.Response, error) {
	var lastErr error
	var hint runtime.Time
	for attempt := 1; attempt <= rc.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			rc.s.Retries++
			rc.o.retries.Inc()
			t.Sleep(rc.backoff(attempt, hint))
			hint = 0
		}
		rc.s.Attempts++
		if err := rc.breakerAllow(t); err != nil {
			// Fail fast — no backoff loop against a breaker that will not
			// close for a while; surface immediately.
			return nil, err
		}
		cl, err := rc.ensureConn(t)
		if err != nil {
			rc.breakerRecord(t, false)
			lastErr = err
			continue // dial failed: nothing sent, always safe to retry
		}
		resp, err := cl.DoDeadline(t, req, rc.cfg.Deadline)
		if err == nil {
			rc.breakerRecord(t, true)
			return resp, nil
		}
		lastErr = err
		rc.classifyFailure(t, cl, err, &hint)
		// The breaker tracks endpoint health, not admission pushback: a
		// NACK is a complete round trip from a live server, so it counts
		// as contact, while dial failures, deadlines, and connection
		// deaths count toward opening.
		rc.breakerRecord(t, isNack(err))
		if !retrySafe(req.Op, err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// WriteNotExecuted reports whether err, returned from a failed Put or Del,
// proves the write never executed: breaker fast-fails happen before
// anything is sent, and NACK frames are explicit pre-execution rejections.
// Drivers use this to distinguish "definitely didn't happen" from
// "ambiguous — the key's state is now unknown". Conservative: a dial
// failure surfaced after exhausted attempts reads as ambiguous even though
// nothing was sent, because its error type is indistinguishable from a
// mid-request connection death.
func WriteNotExecuted(err error) bool {
	if errors.Is(err, ErrBreakerOpen) {
		return true
	}
	return retrySafe(rpcproto.OpPut, err)
}

// isNack reports whether err is a server-issued rejection frame — proof of
// a live, responding endpoint.
func isNack(err error) bool {
	var of *rpcproto.OverloadFrame
	var ef *rpcproto.ErrorFrame
	return errors.As(err, &of) || errors.As(err, &ef)
}

// classifyFailure counts the failure and decides the connection's fate:
// deadline expiries and transport errors drop the connection (the next
// attempt redials — a deadline on a healthy-looking conn is how a
// partition presents); server NACKs keep it (the server answered, the
// connection is fine).
func (rc *ReliableClient) classifyFailure(t runtime.Task, cl *Client, err error, hint *runtime.Time) {
	var of *rpcproto.OverloadFrame
	if errors.As(err, &of) {
		rc.s.Overloads++
		rc.o.overloads.Inc()
		*hint = runtime.Time(of.RetryAfterNS)
		return
	}
	var ef *rpcproto.ErrorFrame
	if errors.As(err, &ef) {
		return
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		rc.s.Timeouts++
		rc.o.timeouts.Inc()
	}
	rc.dropConn(cl)
}

// backoff returns the jittered exponential delay before the given attempt
// (attempt >= 2), at least the server's overload hint when one was given.
func (rc *ReliableClient) backoff(attempt int, hint runtime.Time) runtime.Time {
	d := rc.cfg.BackoffBase << uint(attempt-2)
	if d > rc.cfg.BackoffCap || d <= 0 {
		d = rc.cfg.BackoffCap
	}
	if hint > d {
		d = hint
	}
	return d/2 + runtime.Time(rc.rng.Int63n(int64(d/2)+1))
}

// ensureConn returns a healthy client, dialing (single-flight) if the
// current one is dead or absent. Task context.
func (rc *ReliableClient) ensureConn(t runtime.Task) (*Client, error) {
	for {
		if rc.cl != nil && rc.cl.Err() == nil {
			return rc.cl, nil
		}
		if rc.connecting != nil {
			// Another task is dialing; piggyback on its outcome rather than
			// racing it with a second dial.
			t.Wait(rc.connecting)
			continue
		}
		if rc.cl != nil {
			rc.dropConn(rc.cl)
		}
		ev := rc.env.MakeEvent()
		rc.connecting = ev
		conn, err := rc.cfg.Dial(t)
		rc.connecting = nil
		if err != nil {
			ev.Fire(nil)
			return nil, err
		}
		rc.dials++
		if rc.dials > 1 {
			rc.s.Reconnects++
			rc.o.reconnects.Inc()
		}
		rc.cl = NewClientTraced(rc.env, conn, rc.cfg.Depth, rc.cfg.Tracer)
		rc.cl.SetChainFwd(rc.cfg.ChainFwd)
		ev.Fire(nil)
		return rc.cl, nil
	}
}

// dropConn retires a dead connection so the next attempt redials.
func (rc *ReliableClient) dropConn(cl *Client) {
	if rc.cl == cl {
		rc.cl = nil
	}
	cl.Close()
}

// breakerAllow gates one attempt through the circuit breaker.
func (rc *ReliableClient) breakerAllow(t runtime.Task) error {
	switch rc.bstate {
	case breakerClosed:
		return nil
	case breakerOpen:
		if t.Now()-rc.bopened < rc.cfg.BreakerCooloff {
			rc.s.FastFails++
			rc.o.fastFails.Inc()
			return ErrBreakerOpen
		}
		// Cooled off: half-open, admit this attempt as the probe.
		rc.bstate = breakerHalfOpen
		rc.bprobing = true
		rc.o.state.Set(breakerHalfOpen)
		return nil
	default: // half-open
		if rc.bprobing {
			rc.s.FastFails++
			rc.o.fastFails.Inc()
			return ErrBreakerOpen // one probe at a time
		}
		rc.bprobing = true
		return nil
	}
}

// breakerRecord feeds one attempt's outcome back into the breaker.
func (rc *ReliableClient) breakerRecord(t runtime.Task, ok bool) {
	rc.bprobing = false
	if ok {
		rc.bfails = 0
		if rc.bstate != breakerClosed {
			rc.bstate = breakerClosed
			rc.o.state.Set(breakerClosed)
		}
		return
	}
	rc.bfails++
	if rc.bstate == breakerHalfOpen || rc.bfails >= rc.cfg.BreakerThreshold {
		rc.bstate = breakerOpen
		rc.bopened = t.Now()
		rc.o.state.Set(breakerOpen)
	}
}

// BreakerState reports the current breaker state (0 closed, 1 open, 2
// half-open). Task context.
func (rc *ReliableClient) BreakerState() int { return rc.bstate }

// Stats snapshots the reliability counters. Task context.
func (rc *ReliableClient) Stats() ReliableStats { return rc.s }

// Get fetches key, retrying freely (GET is idempotent). A missing key is
// core.ErrNotFound.
func (rc *ReliableClient) Get(t runtime.Task, key []byte) ([]byte, error) {
	resp, err := rc.Do(t, &rpcproto.Request{Op: rpcproto.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case rpcproto.StatusOK:
		return resp.Value, nil
	case rpcproto.StatusNotFound:
		return nil, core.ErrNotFound
	}
	return nil, errStatus("GET", resp.Status)
}

// Put stores key=val, retrying only failures that provably precede
// execution; an ambiguous failure (deadline, dead connection) is returned
// to the caller.
func (rc *ReliableClient) Put(t runtime.Task, key, val []byte) error {
	resp, err := rc.Do(t, &rpcproto.Request{Op: rpcproto.OpPut, Key: key, Value: val})
	if err != nil {
		return err
	}
	if resp.Status != rpcproto.StatusOK {
		return errStatus("PUT", resp.Status)
	}
	return nil
}

// Del removes key under the same write-retry policy as Put. Deleting a
// missing key is core.ErrNotFound.
func (rc *ReliableClient) Del(t runtime.Task, key []byte) error {
	resp, err := rc.Do(t, &rpcproto.Request{Op: rpcproto.OpDel, Key: key})
	if err != nil {
		return err
	}
	switch resp.Status {
	case rpcproto.StatusOK:
		return nil
	case rpcproto.StatusNotFound:
		return core.ErrNotFound
	}
	return errStatus("DEL", resp.Status)
}

// Close tears down the current connection, if any. Task context.
func (rc *ReliableClient) Close() error {
	if rc.cl != nil {
		rc.dropConn(rc.cl)
	}
	return nil
}

type statusError struct {
	op     string
	status rpcproto.Status
}

func (e *statusError) Error() string { return "client: " + e.op + " " + e.status.String() }

func errStatus(op string, st rpcproto.Status) error { return &statusError{op: op, status: st} }
