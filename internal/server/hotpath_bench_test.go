package server_test

import "testing"

// The serve-path benchmarks: the full stack (client, inproc transport,
// rpcproto, server, engine, store, in-memory device with sync reads)
// measured end to end on the same rig as the allocs/op gates in
// alloc_test.go; see DESIGN.md §13 for the budgets and the pooling contract
// behind them.

func BenchmarkServeGet(b *testing.B) { benchServe(b, servedGet()) }

func BenchmarkServePut(b *testing.B) { benchServe(b, servedPut()) }

func benchServe(b *testing.B, op servedOp) {
	serveRig(b, op, func(call func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			call()
		}
		b.StopTimer()
	})
}
