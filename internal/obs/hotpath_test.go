package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestHistConcurrentRecord hammers one Hist from many goroutines while a
// reader snapshots it, under -race in CI. Exactness: every sample must land
// somewhere (primary or an overflow stripe) and be visible once the dust
// settles.
func TestHistConcurrentRecord(t *testing.T) {
	h := NewHist()
	const (
		writers = 8
		perW    = 5000
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent reader: snapshots must never tear or deadlock
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := HistFromDump(h.Dump()); err != nil {
					t.Error(err) // a torn dump fails validation
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				h.Record(Time(w*perW + i))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()

	m, err := HistFromDump(h.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Count(); got != writers*perW {
		t.Fatalf("count = %d, want %d", got, writers*perW)
	}
	if cum := m.CumBuckets(); cum[len(cum)-1] > m.Count() {
		t.Fatalf("cum buckets inconsistent: last=%d total=%d", cum[len(cum)-1], m.Count())
	}
}

// TestHistStripesMergeDeterministic checks a striped histogram summarizes
// identically to an unstriped one fed the same samples: diverting a sample
// to a stripe must never change what readers see.
func TestHistStripesMergeDeterministic(t *testing.T) {
	a, b := NewHist(), NewHist()
	for i := 0; i < 1000; i++ {
		a.Record(Time(i * 17))
	}
	// Force b's samples through the overflow stripes by holding the
	// primary mutex.
	b.mu.Lock()
	for i := 0; i < 1000; i++ {
		b.Record(Time(i * 17))
	}
	b.mu.Unlock()
	if da, db := a.Dump(), b.Dump(); !reflect.DeepEqual(da, db) {
		t.Fatalf("striped dump %+v differs from unstriped %+v", db, da)
	}
}

// TestTracePoolLifecycle checks End recycles traces without corrupting
// previously sampled ring entries, and that a recycled trace comes back
// clean from Begin.
func TestTracePoolLifecycle(t *testing.T) {
	tr := NewTracer(nil, 1, 8) // sample every trace
	for i := 0; i < 32; i++ {
		trc := tr.Begin("get", Time(i))
		trc.Span("node", Time(i), Time(2*i))
		trc.Span("engine", 1, 2)
		if len(trc.Spans) != 2 {
			t.Fatalf("begin returned a dirty trace: %d spans", len(trc.Spans))
		}
		tr.End(trc)
	}
	samples := tr.Samples()
	if len(samples) != 8 {
		t.Fatalf("ring holds %d, want 8", len(samples))
	}
	for i, s := range samples {
		want := Time(24 + i) // oldest retained is the 25th trace (index 24)
		if s.Start != want || len(s.Spans) != 2 {
			t.Fatalf("sample %d: start=%v spans=%d, want start=%v spans=2", i, s.Start, len(s.Spans), want)
		}
		if s.Spans[0].Queue != want || s.Spans[0].Service != 2*want {
			t.Fatalf("sample %d spans corrupted by pooling: %+v", i, s.Spans[0])
		}
	}
}

// TestTraceLifecycleAllocFree pins the pooled trace contract: a full
// Begin/Span/End cycle of an unsampled trace allocates nothing once the
// pool and span capacity are warm, and a pre-bound StageBind observation
// is likewise free.
func TestTraceLifecycleAllocFree(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1<<30, 8) // sampling effectively off past the first trace
	for i := 0; i < 8; i++ {       // warm the pool, span capacity, and stage hists
		trc := tr.Begin("get", Time(i))
		trc.Span("node", 1, 2)
		trc.Span("engine", 3, 4)
		tr.End(trc)
	}
	if got := testing.AllocsPerRun(200, func() {
		trc := tr.Begin("get", 1)
		trc.Span("node", 1, 2)
		trc.Span("engine", 3, 4)
		tr.End(trc)
	}); got != 0 {
		t.Errorf("trace lifecycle: %.1f allocs/op, want 0", got)
	}

	b := tr.Bind("node")
	if got := testing.AllocsPerRun(200, func() { b.Observe(5, 10) }); got != 0 {
		t.Errorf("StageBind.Observe: %.1f allocs/op, want 0", got)
	}
}

// TestStageBindObserve checks two binds of one stage feed the same
// histograms, a bind creates them only on its first observation (so binding leaves snapshots and the attribution table as
// they were), and tolerates nil.
func TestStageBindObserve(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 0, 0)
	b := tr.Bind("node")
	if n := len(reg.Snapshot().Hists); n != 0 || len(tr.Attribution().Stages) != 0 {
		t.Fatalf("Bind created series before any observation: %d hists, table:\n%s", n, tr.Attribution())
	}
	b.Observe(5, 10)
	tr.Bind("node").Observe(7, 14)
	if got := reg.Hist("leed_stage_queue_ns", "stage", "node").Dump().N; got != 2 {
		t.Fatalf("queue count = %d, want 2 (both binds share a series)", got)
	}
	var nilB *StageBind
	nilB.Observe(1, 2) // must not panic
	var nilT *Tracer
	if nilT.Bind("x") != nil {
		t.Fatal("nil tracer must bind nil")
	}
}
