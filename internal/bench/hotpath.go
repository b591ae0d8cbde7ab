// Hotpath: the allocs/op measurement of the single-op serve path, and the
// budget gate CI enforces over it. The harness runs the full stack —
// client, inproc transport, rpcproto, server, engine, store, in-memory
// device with synchronous reads — on the wallclock backend and measures
// end-to-end allocations per operation with the testing package's
// allocation accounting. The same harness backs `go test -bench=Serve`
// (internal/server) and `leedctl hotpath`, which writes BENCH_hotpath.json
// and exits non-zero when GET or PUT exceeds its pinned budget (DESIGN.md
// §13).
package bench

import (
	"encoding/json"
	"fmt"
	"testing"

	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// GetAllocBudget is the pinned end-to-end allocs/op ceiling for a served
// GET over the inproc transport. CI fails when a run exceeds it; lowering
// it is a ratchet, raising it needs a written justification.
const GetAllocBudget = 2

// PutAllocBudget is the same ceiling for a served PUT: the measured 24
// allocs/op (value-entry and segment images, parsed buckets, completion
// events, the group-commit fan-out) rounded up. The write path is not yet
// pooled down to the GET budget; this keeps it from growing back.
const PutAllocBudget = 30

// BenchServe drives b.N single ops of kind op through a freshly built
// full-stack rig: wallclock env, in-memory devices with synchronous reads
// (so a cached GET never parks in the async completion path), inproc
// transport, no tracer. Setup, preload, and a pool-warming spin happen
// before the timer resets, so the measurement sees only steady state.
func BenchServe(b *testing.B, op rpcproto.Op) {
	env := wallclock.New()
	const devCap = 8 << 20
	mk := func() flashsim.Device {
		d := flashsim.NewMemDevice(env, devCap)
		d.SetSyncReads(true)
		return d
	}
	eng := engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{mk(), mk()},
		PartitionsPerSSD: 2,
		Geometry:         core.PlanPartition(2<<20, 16, 256, core.PlanOpts{}),
		PartitionBytes:   2 << 20,
	})
	srv := server.New(server.Config{Env: env, Engine: eng})
	inp := transport.NewInproc(env, transport.InprocOptions{})
	srv.Serve(inp)

	env.Spawn("hotpath-bench", func(t runtime.Task) {
		conn, err := inp.Dial(t)
		if err != nil {
			b.Errorf("dial: %v", err)
			srv.Close()
			return
		}
		cl := server.NewClient(env, conn, 16)
		defer func() {
			cl.Close()
			srv.Close()
		}()

		const nkeys = 64
		keys := make([][]byte, nkeys)
		val := make([]byte, 128)
		for i := range val {
			val[i] = byte(i * 13)
		}
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("hotpath-key-%04d", i))
			if err := cl.Put(t, keys[i], val); err != nil {
				b.Errorf("preload put %d: %v", i, err)
				return
			}
		}

		oneOp := func(i int, dst []byte) ([]byte, error) {
			if op == rpcproto.OpGet {
				return cl.GetInto(t, keys[i%nkeys], dst[:0])
			}
			return dst, cl.Put(t, keys[i%nkeys], val)
		}

		// Warm every pool and free list — frame buffers, call structs,
		// server work items, store segment buffers, the GET value scratch —
		// to steady-state capacity before anything is counted.
		dst := make([]byte, 0, 256)
		for i := 0; i < 2000; i++ {
			if dst, err = oneOp(i, dst); err != nil {
				b.Errorf("warmup op %d: %v", i, err)
				return
			}
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dst, err = oneOp(i, dst); err != nil {
				b.Errorf("op %d: %v", i, err)
				return
			}
		}
		b.StopTimer()
	})
	env.Wait()
}

// HotpathRes is one benchmarked op kind's steady-state cost.
type HotpathRes struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	Ops      int64   `json:"ops"`
}

// HotpathDoc is the recorded output of the hotpath measurement
// (BENCH_hotpath.json): allocs/op and ns/op for a served GET and PUT over
// the inproc transport, plus the enforced budgets.
type HotpathDoc struct {
	Transport string     `json:"transport"`
	Get       HotpathRes `json:"get"`
	Put       HotpathRes `json:"put"`
	GetBudget int64      `json:"get_allocs_budget"`
	PutBudget int64      `json:"put_allocs_budget"`
}

func hotpathRes(r testing.BenchmarkResult) HotpathRes {
	return HotpathRes{
		NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
		Ops:      int64(r.N),
	}
}

// MeasureHotpath runs the GET and PUT serve benchmarks in-process and
// returns the doc. It does not enforce the budget — see (*HotpathDoc).Gate.
func MeasureHotpath() *HotpathDoc {
	get := testing.Benchmark(func(b *testing.B) { BenchServe(b, rpcproto.OpGet) })
	put := testing.Benchmark(func(b *testing.B) { BenchServe(b, rpcproto.OpPut) })
	return &HotpathDoc{
		Transport: "inproc",
		Get:       hotpathRes(get),
		Put:       hotpathRes(put),
		GetBudget: GetAllocBudget,
		PutBudget: PutAllocBudget,
	}
}

// Gate returns an error when the measured GET or PUT allocs/op exceeds its
// pinned budget.
func (d *HotpathDoc) Gate() error {
	if d.Get.AllocsOp > d.GetBudget {
		return fmt.Errorf("hotpath: GET %d allocs/op exceeds the pinned budget of %d",
			d.Get.AllocsOp, d.GetBudget)
	}
	if d.Put.AllocsOp > d.PutBudget {
		return fmt.Errorf("hotpath: PUT %d allocs/op exceeds the pinned budget of %d",
			d.Put.AllocsOp, d.PutBudget)
	}
	return nil
}

// JSON renders the doc, indented, with a trailing newline.
func (d *HotpathDoc) JSON() string {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		panic(err) // plain struct of scalars always marshals
	}
	return string(b) + "\n"
}

// String renders the measurement as a two-row table.
func (d *HotpathDoc) String() string {
	t := &Table{
		Title: fmt.Sprintf("hotpath serve path over %s (budgets: GET ≤ %d, PUT ≤ %d allocs/op)",
			d.Transport, d.GetBudget, d.PutBudget),
		Columns: []string{"op", "ns/op", "allocs/op", "B/op", "ops"},
	}
	t.Add("GET", fmt.Sprintf("%.0f", d.Get.NsOp), fmt.Sprintf("%d", d.Get.AllocsOp),
		fmt.Sprintf("%d", d.Get.BytesOp), fmt.Sprintf("%d", d.Get.Ops))
	t.Add("PUT", fmt.Sprintf("%.0f", d.Put.NsOp), fmt.Sprintf("%d", d.Put.AllocsOp),
		fmt.Sprintf("%d", d.Put.BytesOp), fmt.Sprintf("%d", d.Put.Ops))
	return t.String()
}
