package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryLookupIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("leed_test_total", "node", "n1")
	b := reg.Counter("leed_test_total", "node", "n1")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	a.Inc()
	if got := b.Load(); got != 1 {
		t.Fatalf("shared counter = %d, want 1", got)
	}
	if reg.Counter("leed_test_total", "node", "n2") == a {
		t.Fatal("different labels returned the same counter")
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	reg := NewRegistry()
	a := reg.Gauge("leed_test_depth", "dev", "ssd0", "node", "n1")
	b := reg.Gauge("leed_test_depth", "node", "n1", "dev", "ssd0")
	if a != b {
		t.Fatal("label order produced distinct series; labels should sort")
	}
	a.Set(7)
	snap := reg.Snapshot()
	const want = `leed_test_depth{dev="ssd0",node="n1"}`
	if snap.Gauges[want] != 7 {
		t.Fatalf("snapshot keys = %v, want %q = 7", snap.Gauges, want)
	}
}

func TestNilRegistryHandsBackWorkingInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("leed_test_total")
	g := reg.Gauge("leed_test_depth")
	h := reg.Hist("leed_test_ns")
	c.Inc()
	g.Set(3)
	h.Record(100)
	if c.Load() != 1 || g.Load() != 3 || h.Dump().N != 1 {
		t.Fatalf("nil-registry instruments dropped writes: c=%d g=%d h=%d",
			c.Load(), g.Load(), h.Dump().N)
	}
	// And nil instruments themselves are no-ops, not panics.
	var nc *Counter
	var ng *Gauge
	var nh *Hist
	nc.Inc()
	ng.Add(1)
	nh.Record(1)
	if reg.Snapshot().Counters == nil {
		t.Fatal("nil registry snapshot should have non-nil (empty) maps")
	}
}

// TestRegistryConcurrentAccess hammers one registry from many goroutines —
// lookups of hot and cold series, increments, histogram records — while
// other goroutines snapshot and scrape it. Run under -race this is the
// registry's thread-safety proof (the wallclock backend does exactly this:
// task goroutines write while the HTTP scrape goroutine reads).
func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 4, 32)
	const writers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"a", "b", "c"}
			dev := tr.Bind("device")
			for i := 0; i < iters; i++ {
				n := names[i%len(names)]
				reg.Counter("leed_test_ops_total", "w", n).Inc()
				reg.Gauge("leed_test_depth", "w", n).Set(int64(i))
				reg.Hist("leed_test_lat_ns", "w", n).Record(Time(i))
				dev.Observe(Time(i), Time(2*i))
				if i%64 == 0 {
					trc := tr.Begin("get", Time(i))
					trc.Span("node", 1, 2)
					trc.Span("engine", 3, 4)
					tr.End(trc)
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = reg.Snapshot()
				reg.Raw().WritePrometheus(new(bytes.Buffer))
				_ = tr.Attribution()
				_ = tr.Samples()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	snap := reg.Snapshot()
	var total int64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "leed_test_ops_total") {
			total += v
		}
	}
	if want := int64(writers * iters); total != want {
		t.Fatalf("lost increments: counted %d, want %d", total, want)
	}
	dev := snap.Hists[`leed_stage_queue_ns{stage="device"}`]
	if want := int64(writers * iters); dev.Count != want {
		t.Fatalf("tracer lost observations: %d, want %d", dev.Count, want)
	}
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		// Insert in scrambled order; output must not care.
		reg.Counter("leed_z_total").Add(3)
		reg.Counter("leed_a_total", "node", "n2").Add(1)
		reg.Counter("leed_a_total", "node", "n1").Add(2)
		reg.Gauge("leed_depth").Set(5)
		h := reg.Hist("leed_lat_ns", "dev", "ssd0")
		for i := 1; i <= 100; i++ {
			h.Record(Time(i * 1000))
		}
		return reg
	}
	r1, r2 := build(), build()
	var j1, j2 bytes.Buffer
	if err := r1.Snapshot().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Snapshot().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatalf("snapshot JSON differs across identical registries:\n%s\n---\n%s", j1.String(), j2.String())
	}
	if r1.Snapshot().String() != r2.Snapshot().String() {
		t.Fatal("snapshot String differs across identical registries")
	}
	var p1, p2 bytes.Buffer
	r1.Raw().WritePrometheus(&p1)
	r2.Raw().WritePrometheus(&p2)
	if p1.String() != p2.String() {
		t.Fatal("Prometheus pages differ across identical registries")
	}
	// Sanity on the exposition format itself.
	page := p1.String()
	for _, want := range []string{
		"# TYPE leed_a_total counter",
		`leed_a_total{node="n1"} 2`,
		"# TYPE leed_lat_ns summary",
		`leed_lat_ns{dev="ssd0",quantile="0.5"}`,
		`leed_lat_ns_count{dev="ssd0"} 100`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("prometheus page missing %q:\n%s", want, page)
		}
	}
}

func TestAttributionOrderAndJSON(t *testing.T) {
	tr := NewTracer(nil, 0, 0)
	// Observe out of pipeline order plus one unknown stage.
	tr.Bind("device").Observe(10, 20)
	tr.Bind("client").Observe(1, 2)
	tr.Bind("zeta").Observe(5, 5)
	tr.Bind("engine").Observe(3, 4)
	a := tr.Attribution()
	var got []string
	for _, s := range a.Stages {
		got = append(got, s.Stage)
	}
	want := []string{"client", "engine", "device", "zeta"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("stage order = %v, want %v", got, want)
	}
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "[") {
		t.Fatalf("attribution JSON should be a plain stage array, got %s", b)
	}
	if a.String() == "" || !strings.Contains(a.String(), "queue.p99") {
		t.Fatalf("attribution table missing header:\n%s", a.String())
	}
}

func TestTracerSamplingRing(t *testing.T) {
	tr := NewTracer(nil, 2, 3)
	for i := 0; i < 10; i++ {
		trc := tr.Begin("op", Time(i))
		trc.Span("node", Time(i), Time(i))
		tr.End(trc)
	}
	s := tr.Samples()
	if len(s) != 3 {
		t.Fatalf("ring kept %d traces, want cap 3", len(s))
	}
	// Every 2nd of 10 traces sampled → 2,4,6,8,10th; ring keeps the last 3
	// (starts 5, 7, 9 by zero-based index).
	if s[0].Start != 5 || s[2].Start != 9 {
		t.Fatalf("ring contents = %v, want oldest Start=5 newest Start=9", s)
	}
}
