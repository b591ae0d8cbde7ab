package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Span is one stage of a request's journey through the stack, split into
// the time the work sat queued (waiting for a NIC slot, a token, a device
// channel) and the time it was actually being serviced. This is the same
// decomposition LEED's evaluation uses to explain where each request's
// microseconds go.
type Span struct {
	Stage   string `json:"stage"`
	Queue   Time   `json:"queue"`
	Service Time   `json:"service"`
	// Hop is the chain position the span was recorded on for traces that
	// cross process boundaries: 0 = the issuing client, 1 = the head node,
	// rising along the chain. Single-process spans leave it 0, and the JSON
	// form omits it, so pre-cluster traces are unchanged.
	Hop int `json:"hop,omitempty"`
}

// Trace is the ordered list of spans one request accumulated. Traces are
// created by Tracer.Begin on the issuing task and handed from layer to
// layer; each layer appends its span with Trace.Span. Methods are nil-safe
// so un-traced paths (nil tracer, or a non-sampled request) cost one nil
// check per layer.
type Trace struct {
	Op    string `json:"op"`
	Start Time   `json:"start"`
	Spans []Span `json:"spans"`
}

// Span appends one stage record.
func (tr *Trace) Span(stage string, queue, service Time) {
	if tr == nil {
		return
	}
	if queue < 0 {
		queue = 0
	}
	if service < 0 {
		service = 0
	}
	tr.Spans = append(tr.Spans, Span{Stage: stage, Queue: queue, Service: service})
}

// SpanHop appends one stage record tagged with its chain hop — the form
// cross-process trace reassembly uses when replaying piggybacked remote
// spans into the issuer's trace.
func (tr *Trace) SpanHop(stage string, hop int, queue, service Time) {
	if tr == nil {
		return
	}
	if queue < 0 {
		queue = 0
	}
	if service < 0 {
		service = 0
	}
	tr.Spans = append(tr.Spans, Span{Stage: stage, Queue: queue, Service: service, Hop: hop})
}

// stageOrder fixes the pipeline order stages appear in attribution tables:
// the request path from the paper's Figure — client admission, network,
// node RPC handling, engine admission, store CPU, store SSD wait, device.
// Unknown stages sort alphabetically after the known ones.
var stageOrder = map[string]int{
	"client": 0,
	"net":    1,
	"node":   2,
	"engine": 3,
	"cpu":    4,
	"ssd":    5,
	"device": 6,
	"fwd":    7,
}

type stageHists struct {
	queue   *Hist
	service *Hist
}

// Tracer aggregates spans per stage (into registry histograms named
// leed_stage_queue_ns{stage=...} / leed_stage_service_ns{stage=...}) and
// keeps a bounded ring of sampled full traces for the /traces endpoint.
// Every finished span is aggregated; only every sampleEvery-th trace is
// retained whole. All methods are safe on a nil receiver.
type Tracer struct {
	reg *Registry

	mu      sync.Mutex
	stages  map[string]stageHists
	n       int64
	every   int64
	ring    []Trace
	ringCap int
}

// NewTracer returns a tracer aggregating into reg (nil: into a private
// registry, which its Attribution still reads). Every
// sampleEvery-th trace is kept whole, up to ringCap retained traces
// (oldest evicted first). sampleEvery <= 0 disables whole-trace sampling.
func NewTracer(reg *Registry, sampleEvery, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = 64
	}
	if reg == nil {
		reg = NewRegistry()
	}
	return &Tracer{
		reg:     reg,
		stages:  make(map[string]stageHists),
		every:   int64(sampleEvery),
		ringCap: ringCap,
	}
}

// tracePool recycles Trace objects between Begin and End. Abandoned traces
// (an attempt that timed out and was never finished) simply fall to the GC;
// the pool is best-effort.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// Begin starts a trace for one request. Returns nil on a nil tracer. The
// trace comes from a pool; hand it to End exactly once (or drop it), and
// never touch it after End.
func (t *Tracer) Begin(op string, now Time) *Trace {
	if t == nil {
		return nil
	}
	tr := tracePool.Get().(*Trace)
	tr.Op = op
	tr.Start = now
	tr.Spans = tr.Spans[:0]
	return tr
}

func (t *Tracer) stage(name string) stageHists {
	if sh, ok := t.stages[name]; ok {
		return sh
	}
	// The map caches the registry lookup, which renders the label string.
	sh := stageHists{
		queue:   t.reg.Hist("leed_stage_queue_ns", "stage", name),
		service: t.reg.Hist("leed_stage_service_ns", "stage", name),
	}
	t.stages[name] = sh
	return sh
}

// StageBind is a pre-bound handle on one stage's aggregation histograms —
// how code outside a trace (a device completing an op, the engine's
// untraced executions) records a stage observation. A hot path binds its
// stage once at setup and records through the handle for the cost of an
// atomic load and two histogram records. The histograms are resolved on
// the first observation, not at Bind, so binding a stage that never fires
// adds no series to the registry or row to the attribution table.
// Nil-safe, like every other instrument.
type StageBind struct {
	t     *Tracer
	stage string
	sh    atomic.Pointer[stageHists]
}

// Bind returns a handle on the stage. Returns nil on a nil tracer, which
// Observe tolerates.
func (t *Tracer) Bind(stage string) *StageBind {
	if t == nil {
		return nil
	}
	return &StageBind{t: t, stage: stage}
}

// Observe records one observation pair on the bound stage.
func (b *StageBind) Observe(queue, service Time) {
	if b == nil {
		return
	}
	if queue < 0 {
		queue = 0
	}
	if service < 0 {
		service = 0
	}
	sh := b.sh.Load()
	if sh == nil {
		// Racing first observers resolve the same pinned histograms.
		b.t.mu.Lock()
		h := b.t.stage(b.stage)
		b.t.mu.Unlock()
		sh = &h
		b.sh.Store(sh)
	}
	sh.queue.Record(queue)
	sh.service.Record(service)
}

// End finishes a trace: every span is aggregated into the per-stage
// histograms, and the whole trace is retained if it falls on the sampling
// cadence. End recycles tr — the caller must not touch it afterwards. A
// sampled trace's spans are deep-copied into the ring before the recycle.
func (t *Tracer) End(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	t.mu.Lock()
	for _, sp := range tr.Spans {
		sh := t.stage(sp.Stage)
		sh.queue.Record(sp.Queue)
		sh.service.Record(sp.Service)
	}
	t.n++
	if t.every > 0 && t.n%t.every == 0 {
		if len(t.ring) >= t.ringCap {
			t.ring = t.ring[1:]
		}
		kept := *tr
		kept.Spans = append([]Span(nil), tr.Spans...)
		t.ring = append(t.ring, kept)
	}
	t.mu.Unlock()
	tr.Spans = tr.Spans[:0]
	tracePool.Put(tr)
}

// Samples returns a copy of the retained traces, oldest first.
func (t *Tracer) Samples() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.ring))
	copy(out, t.ring)
	return out
}

// StageLat is one row of the latency-attribution table. Times are
// nanoseconds in the JSON form; the String form uses adaptive units.
type StageLat struct {
	Stage      string `json:"stage"`
	Count      int64  `json:"count"`
	QueueP50   int64  `json:"queue_p50"`
	QueueP99   int64  `json:"queue_p99"`
	ServiceP50 int64  `json:"service_p50"`
	ServiceP99 int64  `json:"service_p99"`
	QueueMean  int64  `json:"queue_mean"`
	SvcMean    int64  `json:"service_mean"`
}

// Attribution is the paper-style latency-attribution table: per pipeline
// stage, queue-wait vs service-time quantiles. Rows follow the pipeline
// order (client, net, node, engine, cpu, ssd, device), then any extra
// stages alphabetically.
type Attribution struct {
	Stages []StageLat `json:"stages"`
}

// Attribution summarizes the per-stage histograms collected so far in the
// tracer's registry.
func (t *Tracer) Attribution() Attribution {
	if t == nil {
		return Attribution{}
	}
	return t.reg.Raw().Attribution()
}

// Attribution builds the table from the snapshot's leed_stage_queue_ns /
// leed_stage_service_ns histograms. On one process's registry that is its
// tracer's table; on a fleet merge it is the cluster-wide table, each stage
// summed over every process the traced requests crossed.
func (s RawSnapshot) Attribution() Attribution {
	type pair struct{ queue, service HistSnap }
	stages := map[string]*pair{}
	for key := range s.Hists {
		name, labels := splitKey(key)
		if name != "leed_stage_queue_ns" && name != "leed_stage_service_ns" {
			continue
		}
		stage := labelValue(labels, "stage")
		h, ok := s.hist(key)
		if stage == "" || !ok {
			continue
		}
		p := stages[stage]
		if p == nil {
			p = &pair{}
			stages[stage] = p
		}
		if name == "leed_stage_queue_ns" {
			p.queue = h.Snap()
		} else {
			p.service = h.Snap()
		}
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := stageOrder[names[i]]
		oj, jok := stageOrder[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	var a Attribution
	for _, name := range names {
		q, sv := stages[name].queue, stages[name].service
		a.Stages = append(a.Stages, StageLat{
			Stage:      name,
			Count:      sv.Count,
			QueueP50:   q.P50,
			QueueP99:   q.P99,
			ServiceP50: sv.P50,
			ServiceP99: sv.P99,
			QueueMean:  q.Mean,
			SvcMean:    sv.Mean,
		})
	}
	return a
}

// labelValue extracts one label's value from a rendered label string.
func labelValue(labels, key string) string {
	for _, part := range strings.Split(labels, ",") {
		if rest, ok := strings.CutPrefix(part, key+"="); ok {
			if v, err := strconv.Unquote(rest); err == nil {
				return v
			}
		}
	}
	return ""
}

// String renders the attribution as a fixed-width table. Deterministic for
// deterministic inputs (sim virtual time), so seeded runs can be compared
// byte-for-byte.
func (a Attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %12s %12s %12s %12s\n",
		"stage", "count", "queue.p50", "queue.p99", "svc.p50", "svc.p99")
	for _, s := range a.Stages {
		fmt.Fprintf(&b, "%-8s %10d %12v %12v %12v %12v\n",
			s.Stage, s.Count, Time(s.QueueP50), Time(s.QueueP99),
			Time(s.ServiceP50), Time(s.ServiceP99))
	}
	return b.String()
}

// MarshalJSON keeps the table a plain stage array.
func (a Attribution) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.Stages)
}
