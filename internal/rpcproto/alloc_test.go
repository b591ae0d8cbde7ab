package rpcproto

import (
	"testing"
)

// The steady-state allocation contract: with reused destination buffers and
// borrow decodes, a full encode/decode round trip of every hot-path frame
// kind allocates nothing. These pin the contract at the unit level; the
// end-to-end budget over the full serve stack is pinned by
// TestServeGetAllocBudget in internal/server (DESIGN.md §13).

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, got)
	}
}

func TestRequestRoundTripAllocFree(t *testing.T) {
	req := &Request{ID: 7, Op: OpPut, Epoch: 3, Key: []byte("alloc-key"), Value: []byte("alloc-value")}
	frame := AppendRequestFrame(nil, req)
	buf := make([]byte, 0, len(frame))
	var dec Request
	assertZeroAllocs(t, "request encode+borrow-decode", func() {
		buf = AppendRequestFrame(buf[:0], req)
		_, payload, _, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeBorrow(payload); err != nil {
			t.Fatal(err)
		}
	})
	if string(dec.Key) != "alloc-key" || string(dec.Value) != "alloc-value" {
		t.Fatalf("decode corrupted: %q %q", dec.Key, dec.Value)
	}
}

func TestResponseRoundTripAllocFree(t *testing.T) {
	resp := &Response{ID: 9, Status: StatusOK, Tokens: 12, Value: []byte("resp-value")}
	frame := AppendResponseFrame(nil, resp)
	buf := make([]byte, 0, len(frame))
	var dec Response
	assertZeroAllocs(t, "response encode+borrow-decode", func() {
		buf = AppendResponseFrame(buf[:0], resp)
		_, payload, _, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeBorrow(payload); err != nil {
			t.Fatal(err)
		}
	})
	if string(dec.Value) != "resp-value" || dec.Tokens != 12 {
		t.Fatalf("decode corrupted: %q %d", dec.Value, dec.Tokens)
	}
}

func TestBatchRoundTripAllocFree(t *testing.T) {
	keys := [][]byte{[]byte("k1"), []byte("k2"), []byte("k3")}
	vals := [][]byte{[]byte("v1"), []byte("v2"), []byte("v3")}
	frame := AppendBatchReqFrame(nil, 5, OpPut, keys, vals)
	buf := make([]byte, 0, len(frame))
	items := make([]BatchItem, 0, len(keys))
	assertZeroAllocs(t, "batch req encode+decode", func() {
		buf = AppendBatchReqFrame(buf[:0], 5, OpPut, keys, vals)
		_, payload, _, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		_, _, items, derr = DecodeBatchReq(payload, items[:0])
		if derr != nil {
			t.Fatal(derr)
		}
	})
	if len(items) != 3 || string(items[2].Value) != "v3" {
		t.Fatalf("decode corrupted: %+v", items)
	}

	sts := []Status{StatusOK, StatusNotFound}
	rvals := [][]byte{[]byte("rv"), nil}
	rframe := AppendBatchRespFrame(nil, 6, sts, rvals)
	rbuf := make([]byte, 0, len(rframe))
	ritems := make([]BatchRespItem, 0, len(sts))
	assertZeroAllocs(t, "batch resp encode+decode", func() {
		rbuf = AppendBatchRespFrame(rbuf[:0], 6, sts, rvals)
		_, payload, _, err := DecodeFrame(rbuf)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		_, ritems, derr = DecodeBatchResp(payload, ritems[:0])
		if derr != nil {
			t.Fatal(derr)
		}
	})
	if len(ritems) != 2 || string(ritems[0].Value) != "rv" {
		t.Fatalf("decode corrupted: %+v", ritems)
	}
}

func TestTracedRequestRoundTripAllocFree(t *testing.T) {
	// The trace-context section must add zero allocations on the borrow-
	// decode path: the context is fixed-size fields, no slices.
	req := &Request{ID: 7, Op: OpGet, Epoch: 3, Key: []byte("traced-key"),
		TraceID: 0xfeedbeef, TraceFlags: TraceSampled}
	frame := AppendRequestFrame(nil, req)
	buf := make([]byte, 0, len(frame))
	var dec Request
	assertZeroAllocs(t, "traced request encode+borrow-decode", func() {
		buf = AppendRequestFrame(buf[:0], req)
		_, payload, _, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeBorrow(payload); err != nil {
			t.Fatal(err)
		}
	})
	if dec.TraceID != 0xfeedbeef || dec.TraceFlags != TraceSampled || string(dec.Key) != "traced-key" {
		t.Fatalf("decode corrupted: %+v", dec)
	}
}

func TestSpanPiggybackRoundTripAllocFree(t *testing.T) {
	// The span section must decode allocation-free once the destination
	// response's Spans slice is warm (pooled call objects keep capacity).
	resp := &Response{ID: 9, Status: StatusOK, Value: []byte("v"), Spans: []PSpan{
		{Stage: StageNode, Hop: 1, QueueNS: 100, ServiceNS: 200},
		{Stage: StageEngine, Hop: 1, ServiceNS: 300},
		{Stage: StageFwd, Hop: 1, ServiceNS: 50},
		{Stage: StageNode, Hop: 2, QueueNS: 10, ServiceNS: 20},
	}}
	frame := AppendResponseFrame(nil, resp)
	buf := make([]byte, 0, len(frame))
	dec := Response{Spans: make([]PSpan, 0, len(resp.Spans))}
	assertZeroAllocs(t, "span piggyback encode+borrow-decode", func() {
		buf = AppendResponseFrame(buf[:0], resp)
		_, payload, _, err := DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeBorrow(payload); err != nil {
			t.Fatal(err)
		}
	})
	if len(dec.Spans) != 4 || dec.Spans[3] != resp.Spans[3] || string(dec.Value) != "v" {
		t.Fatalf("decode corrupted: %+v", dec)
	}
}

func TestBufPoolAllocFree(t *testing.T) {
	// Warm one buffer into the pool, then rent/return must never allocate.
	PutBuf(make([]byte, 0, 1024))
	assertZeroAllocs(t, "GetBuf/PutBuf cycle", func() {
		b := GetBuf()
		b = append(b, "some frame bytes"...)
		PutBuf(b)
	})
}
