package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Counters are atomic so they
// can be incremented from task context and read from an HTTP scrape
// goroutine on the wallclock backend without races. All methods are safe on
// a nil receiver (no-op / zero), so components can hold counters from an
// optional registry without guarding every increment.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histShards is the overflow-stripe count for Hist. Small and fixed: a
// stripe only absorbs the samples that arrive while the primary mutex is
// held, so a handful is enough to keep writers from convoying.
const histShards = 8

// histShard is one lazily-materialized overflow stripe.
type histShard struct {
	mu sync.Mutex
	h  *Histogram
}

// Hist is a registry-owned histogram. The common case is one uncontended
// mutex around the primary Histogram; when Record finds that mutex held
// (wallclock scrape in flight, or a parallel recorder on another OS
// thread), the sample lands in one of a few overflow stripes instead of
// queueing on the lock. Readers merge primary and stripes under the primary
// mutex, so every snapshot is complete and self-consistent. Under the sim
// backend execution is serial, TryLock always succeeds, and the stripes
// stay nil — merged output is byte-identical to the unstriped histogram,
// which the golden-snapshot tests rely on.
type Hist struct {
	mu sync.Mutex
	h  Histogram

	next   atomic.Uint32 // round-robin stripe pick under contention
	shards [histShards]histShard
}

// NewHist returns an empty standalone Hist (not registered anywhere).
func NewHist() *Hist { return &Hist{h: Histogram{min: int64(^uint64(0) >> 1)}} }

// Record adds one observation. Never blocks behind a reader: contended
// samples divert to an overflow stripe.
func (x *Hist) Record(d Time) {
	if x == nil {
		return
	}
	if x.mu.TryLock() {
		x.h.Record(d)
		x.mu.Unlock()
		return
	}
	sh := &x.shards[x.next.Add(1)%histShards]
	sh.mu.Lock()
	if sh.h == nil {
		sh.h = NewHistogram()
	}
	sh.h.Record(d)
	sh.mu.Unlock()
}

// Dump exports the raw mergeable form: the primary histogram with the
// overflow stripes folded in, all under the primary mutex.
func (x *Hist) Dump() HistDump {
	if x == nil {
		return HistDump{}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	m := x.h
	for i := range x.shards {
		sh := &x.shards[i]
		sh.mu.Lock()
		if sh.h != nil {
			m.Merge(sh.h)
		}
		sh.mu.Unlock()
	}
	return m.Dump()
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHist
)

type series struct {
	name   string // base metric name, e.g. leed_node_gets_total
	labels string // rendered label set, e.g. `node="101"` ("" if none)
	kind   seriesKind
	c      *Counter
	g      *Gauge
	h      *Hist
}

// key is the full series identity, e.g. `leed_node_gets_total{node="101"}`.
func (s *series) key() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// Registry holds a set of named metric series. Lookups are idempotent: the
// same (name, labels) always returns the same instrument, so two components
// naming the same series share a counter. All methods are safe on a nil
// receiver — they hand back working but unregistered instruments — which
// lets every component treat its registry as optional.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// renderLabels turns variadic k1,v1,k2,v2 pairs into a canonical (sorted)
// label string. Odd trailing elements are ignored.
func renderLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// lookup finds or publishes the series. The instrument is allocated before
// the series becomes visible to other goroutines — publishing first and
// filling in the instrument lazily would race two first-users of a series.
func (r *Registry) lookup(name string, kind seriesKind, labels []string) *series {
	s := &series{name: name, labels: renderLabels(labels), kind: kind}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHist:
		s.h = NewHist()
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.series[s.key()]; ok && got.kind == kind {
		return got
	}
	r.series[s.key()] = s
	return s
}

// Counter returns the counter named name with the given label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, kindCounter, labels).c
}

// Gauge returns the gauge named name with the given label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, kindGauge, labels).g
}

// Hist returns the histogram named name with the given label pairs.
func (r *Registry) Hist(name string, labels ...string) *Hist {
	return r.lookup(name, kindHist, labels).h
}

// Snapshot is the quantile-summary form of a RawSnapshot. Encoded as JSON
// it is deterministic: map keys sort, values are plain integers
// (nanoseconds for histogram summaries), so two seeded sim runs produce
// byte-identical snapshots.
type Snapshot struct {
	Counters map[string]int64    `json:"counters"`
	Gauges   map[string]int64    `json:"gauges"`
	Hists    map[string]HistSnap `json:"hists"`
}

// Snapshot summarizes every series.
func (r *Registry) Snapshot() Snapshot { return r.Raw().Summary() }

// RawSnapshot is a point-in-time copy of every series in mergeable form:
// histograms appear as raw bucket dumps, so snapshots from many processes
// combine exactly (Fleet.Raw). It is the one thing every metrics page is
// rendered from — the Prometheus text, the JSON summary, the attribution
// table — and what /metrics.raw.json serves. Keys are the rendered series
// identities (`name{label="v",...}`).
type RawSnapshot struct {
	Counters map[string]int64    `json:"counters"`
	Gauges   map[string]int64    `json:"gauges"`
	Hists    map[string]HistDump `json:"hists"`
}

// Raw copies out every series in mergeable form. It is the only reader of
// live instruments: each histogram is dumped under one lock acquisition,
// so every page rendered from the result is self-consistent.
func (r *Registry) Raw() RawSnapshot {
	raw := RawSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistDump{},
	}
	if r == nil {
		return raw
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()
	for _, s := range all {
		switch s.kind {
		case kindCounter:
			raw.Counters[s.key()] = s.c.Load()
		case kindGauge:
			raw.Gauges[s.key()] = s.g.Load()
		case kindHist:
			raw.Hists[s.key()] = s.h.Dump()
		}
	}
	return raw
}

// hist rebuilds the histogram behind key's dump; a dump that fails
// validation (possible only for one decoded from another process) is
// skipped by every renderer.
func (s RawSnapshot) hist(key string) (*Histogram, bool) {
	h, err := HistFromDump(s.Hists[key])
	return h, err == nil
}

// Summary renders the histograms as quantile summaries. Counters and gauges
// are shared with s, not copied.
func (s RawSnapshot) Summary() Snapshot {
	snap := Snapshot{Counters: s.Counters, Gauges: s.Gauges, Hists: make(map[string]HistSnap, len(s.Hists))}
	for key := range s.Hists {
		if h, ok := s.hist(key); ok {
			snap.Hists[key] = h.Snap()
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders the snapshot as a sorted human-readable listing: one line
// per counter/gauge, one summary line per histogram. The output is
// deterministic for a deterministic snapshot.
func (s Snapshot) String() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v, ok := s.Counters[k]; ok {
			fmt.Fprintf(&b, "%-52s %d\n", k, v)
		} else {
			fmt.Fprintf(&b, "%-52s %d\n", k, s.Gauges[k])
		}
	}
	hkeys := make([]string, 0, len(s.Hists))
	for k := range s.Hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := s.Hists[k]
		fmt.Fprintf(&b, "%-52s n=%d mean=%v p50=%v p99=%v max=%v\n",
			k, h.Count, Time(h.Mean), Time(h.P50), Time(h.P99), Time(h.Max))
	}
	return b.String()
}

// splitKey splits a rendered series key into base name and label string.
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// promKey merges extra label pairs (e.g. quantile="0.5") into a rendered
// series key.
func promKey(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus writes every series in Prometheus text exposition format.
// Counters and gauges emit one sample; histograms emit a summary (quantile
// samples plus _sum and _count) followed by cumulative _bucket samples at
// the fixed HistPromEdges bounds with an explicit le="+Inf" — the histogram
// form histogram_quantile can aggregate across instances, which the
// pre-computed quantiles cannot. le values are nanoseconds, matching every
// other time on the page. A histogram's quantiles, _count and buckets all
// come from one dump, so _count always equals the le="+Inf" bucket. Output
// is sorted, so identical snapshots produce identical pages.
func (s RawSnapshot) WritePrometheus(w io.Writer) {
	all := make([]series, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	add := func(key string, kind seriesKind) {
		name, labels := splitKey(key)
		all = append(all, series{name: name, labels: labels, kind: kind})
	}
	for k := range s.Counters {
		add(k, kindCounter)
	}
	for k := range s.Gauges {
		add(k, kindGauge)
	}
	for k := range s.Hists {
		add(k, kindHist)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].labels < all[j].labels
	})
	lastType := ""
	typeLine := func(name, typ string) {
		if name != lastType {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
			lastType = name
		}
	}
	for _, e := range all {
		switch e.kind {
		case kindCounter:
			typeLine(e.name, "counter")
			fmt.Fprintf(w, "%s %d\n", e.key(), s.Counters[e.key()])
		case kindGauge:
			typeLine(e.name, "gauge")
			fmt.Fprintf(w, "%s %d\n", e.key(), s.Gauges[e.key()])
		case kindHist:
			h, ok := s.hist(e.key())
			if !ok {
				continue
			}
			typeLine(e.name, "summary")
			hs := h.Snap()
			for _, q := range [...]struct {
				l string
				v int64
			}{{"0.5", hs.P50}, {"0.99", hs.P99}, {"0.999", hs.P999}} {
				fmt.Fprintf(w, "%s %d\n", promKey(e.name, e.labels, `quantile=`+fmt.Sprintf("%q", q.l)), q.v)
			}
			fmt.Fprintf(w, "%s %d\n", promKey(e.name+"_sum", e.labels, ""), hs.Sum)
			fmt.Fprintf(w, "%s %d\n", promKey(e.name+"_count", e.labels, ""), hs.Count)
			for i, c := range h.CumBuckets() {
				fmt.Fprintf(w, "%s %d\n", promKey(e.name+"_bucket", e.labels, fmt.Sprintf(`le="%d"`, HistPromEdges[i])), c)
			}
			fmt.Fprintf(w, "%s %d\n", promKey(e.name+"_bucket", e.labels, `le="+Inf"`), hs.Count)
		}
	}
}
