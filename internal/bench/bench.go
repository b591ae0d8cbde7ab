// Package bench regenerates every table and figure from the paper's
// evaluation (§4 and Appendix A): it assembles the three systems
// (SmartNIC-LEED, Server-KVell, Embedded-FAWN), drives YCSB workloads in
// closed- or open-loop, and reports throughput, latency distributions, and
// requests per Joule. One exported function per experiment id; see
// DESIGN.md's per-experiment index.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"leed/internal/obs"
	"leed/internal/power"
	"leed/internal/sim"
	"leed/internal/ycsb"
)

// Scale bounds an experiment's size so the same drivers serve both smoke
// tests and full reproduction runs.
type Scale struct {
	Records  int64    // preloaded objects
	Ops      int64    // measured closed-loop operations
	Clients  int      // concurrent closed-loop clients
	Duration sim.Time // measured open-loop window
	Points   int      // sweep points (rates, skews) per curve
}

// Quick is sized for unit tests and -quick CLI runs.
var Quick = Scale{Records: 1500, Ops: 3000, Clients: 32, Duration: 80 * sim.Millisecond, Points: 3}

// Full is sized for the recorded EXPERIMENTS.md runs.
var Full = Scale{Records: 8000, Ops: 20000, Clients: 64, Duration: 250 * sim.Millisecond, Points: 5}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string

	// Attribution is the per-stage latency breakdown of the experiment's
	// instrumented system (LEED), when it collected one. Included in the
	// JSON rendering, omitted from the text table.
	Attribution *obs.Attribution
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DoOp executes one YCSB operation against a system and returns the
// client-observed latency.
type DoOp func(p *sim.Proc, op ycsb.Op) (sim.Time, error)

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	Clients int
	Ops     int64 // closed-loop measured ops (Rate == 0)

	Rate     float64  // open-loop arrivals/sec; 0 selects closed loop
	Duration sim.Time // open-loop measured window

	WarmupOps int64
	Seed      int64
	// MaxSimTime aborts runaway runs. Default 600s of virtual time.
	MaxSimTime sim.Time
	// MaxOutstanding caps open-loop in-flight ops (past saturation the
	// queue would otherwise grow without bound). Default 4096.
	MaxOutstanding int

	// Tracer, when set, stamps the run's per-stage latency attribution into
	// RunResult.Attr (cumulative over the tracer's lifetime).
	Tracer *obs.Tracer
}

// RunResult is one measurement.
type RunResult struct {
	Ops     int64
	Errs    int64
	Dropped int64 // open-loop arrivals shed at the outstanding cap
	Elapsed sim.Time
	Thr     float64 // ops/sec
	Lat     *obs.Histogram
	Joules  float64
	QPerJ   float64 // ops per Joule (the paper's energy-efficiency metric)

	// Attr is the per-stage latency attribution (set when RunConfig.Tracer
	// was provided).
	Attr *obs.Attribution
}

func (r RunResult) String() string {
	return fmt.Sprintf("thr=%.0f op/s lat{%v} J=%.2f q/J=%.0f errs=%d",
		r.Thr, r.Lat, r.Joules, r.QPerJ, r.Errs)
}

// Run drives a workload against a system and measures it. Preload the
// keyspace first (Preload); Run issues the op mix only.
func Run(k sim.Runner, do DoOp, w ycsb.Workload, records int64, valLen int, meters []*power.Meter, rc RunConfig) RunResult {
	if rc.MaxSimTime == 0 {
		rc.MaxSimTime = 600 * sim.Second
	}
	if rc.MaxOutstanding == 0 {
		rc.MaxOutstanding = 4096
	}
	if rc.Clients == 0 {
		rc.Clients = 32
	}
	gen := ycsb.NewGenerator(w, records, valLen, rc.Seed+1)
	res := RunResult{Lat: obs.NewHistogram()}

	var (
		issued    int64
		completed int64
		measuring bool
		startT    sim.Time
		snaps     []power.Snapshot
		finished  bool
		endT      sim.Time
	)
	maybeStartMeasuring := func() {
		if !measuring && completed >= rc.WarmupOps {
			measuring = true
			startT = k.Now()
			snaps = snaps[:0]
			for _, m := range meters {
				snaps = append(snaps, m.Snap())
			}
		}
	}
	finish := func() {
		if finished {
			return
		}
		if !measuring {
			measuring = true
			startT = k.Now()
			for _, m := range meters {
				snaps = append(snaps, m.Snap())
			}
		}
		finished = true
		endT = k.Now()
		for i, m := range meters {
			j, _ := m.Since(snaps[i])
			res.Joules += j
		}
	}

	oneOp := func(p *sim.Proc, op ycsb.Op) {
		t0 := k.Now()
		_, err := do(p, op)
		lat := k.Now() - t0
		completed++
		if measuring && !finished {
			res.Ops++
			res.Lat.Record(lat)
			if err != nil {
				res.Errs++
			}
		}
		maybeStartMeasuring()
	}

	if rc.Rate == 0 {
		// Closed loop: Clients procs share the generator. The run finishes
		// the instant the last measured op completes, so elapsed time and
		// the energy window are exact.
		total := rc.Ops + rc.WarmupOps
		for c := 0; c < rc.Clients; c++ {
			k.Go("load", func(p *sim.Proc) {
				for issued < total {
					issued++
					op := gen.Next()
					op.Value = append([]byte(nil), op.Value...)
					oneOp(p, op)
					if completed >= total {
						finish()
					}
				}
			})
		}
		deadline := k.Now() + rc.MaxSimTime
		for completed < total && k.Now() < deadline && !k.Idle() {
			k.Run(k.Now() + 20*sim.Millisecond)
		}
		maybeStartMeasuring()
		finish()
	} else {
		// Open loop: deterministic arrivals at the target rate.
		interval := sim.Time(float64(sim.Second) / rc.Rate)
		if interval < 1 {
			interval = 1
		}
		warmup := rc.Duration / 4
		stopAt := k.Now() + warmup + rc.Duration
		outstanding := 0
		var arrivals func()
		arrivals = func() {
			if k.Now() >= stopAt {
				return
			}
			if outstanding >= rc.MaxOutstanding {
				res.Dropped++
			} else {
				op := gen.Next()
				op.Value = append([]byte(nil), op.Value...)
				outstanding++
				k.Go("op", func(p *sim.Proc) {
					oneOp(p, op)
					outstanding--
				})
			}
			k.After(interval, arrivals)
		}
		// Warmup switches to measuring by time, not op count.
		rc.WarmupOps = 0
		measuring = false
		k.After(warmup, func() {
			measuring = true
			startT = k.Now()
			for _, m := range meters {
				snaps = append(snaps, m.Snap())
			}
		})
		k.At(stopAt, finish)
		k.After(0, arrivals)
		drainUntil := stopAt + 200*sim.Millisecond
		for k.Now() < stopAt || (outstanding > 0 && k.Now() < drainUntil) {
			k.Run(k.Now() + 20*sim.Millisecond)
		}
		finish()
	}

	res.Elapsed = endT - startT
	if res.Elapsed > 0 {
		res.Thr = float64(res.Ops) / res.Elapsed.Seconds()
	}
	if res.Joules > 0 {
		res.QPerJ = float64(res.Ops) / res.Joules
	}
	if rc.Tracer != nil {
		a := rc.Tracer.Attribution()
		res.Attr = &a
	}
	return res
}

// Preload inserts records objects through the system with bounded
// parallelism, then lets background activity settle.
func Preload(k sim.Runner, do DoOp, records int64, valLen int, parallel int) {
	if parallel <= 0 {
		parallel = 16
	}
	var next int64
	done := 0
	val := make([]byte, valLen)
	for i := range val {
		val[i] = byte(i * 7)
	}
	for c := 0; c < parallel; c++ {
		k.Go("preload", func(p *sim.Proc) {
			for next < records {
				i := next
				next++
				op := ycsb.Op{Type: ycsb.OpInsert, Key: ycsb.KeyAt(i), Value: val}
				do(p, op)
				done++
			}
		})
	}
	deadline := k.Now() + 600*sim.Second
	for int64(done) < records && k.Now() < deadline && !k.Idle() {
		k.Run(k.Now() + 20*sim.Millisecond)
	}
}

func kqps(thr float64) string { return fmt.Sprintf("%.1f", thr/1000) }
func us(t sim.Time) string    { return fmt.Sprintf("%.1f", float64(t)/float64(sim.Microsecond)) }
func f2(v float64) string     { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string    { return fmt.Sprintf("%.1f%%", 100*v) }

// JSON renders the table as one JSON object per experiment — title, column
// names, and the same cells as the text rendering (throughput, p50/p99
// latency, requests per Joule — whatever the experiment reports) — for
// machine consumption.
func (t *Table) JSON() string {
	type doc struct {
		Title       string           `json:"title"`
		Columns     []string         `json:"columns"`
		Rows        [][]string       `json:"rows"`
		Attribution *obs.Attribution `json:"attribution,omitempty"`
	}
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	b, err := json.MarshalIndent(doc{t.Title, t.Columns, rows, t.Attribution}, "", "  ")
	if err != nil {
		panic(err) // tables of strings always marshal
	}
	return string(b) + "\n"
}

// CSV renders the table as comma-separated values (header row first) for
// external plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
