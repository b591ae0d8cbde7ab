// Command benchmark is the LEED repository's ruler: one command that builds
// each system under test, preloads it, drives it closed-loop through a
// latency phase and a saturation phase, verifies every reply, and prints
// every metric by name with its unit. See README.md in this directory.
//
//	go run ./benchmark --workload tcp-single-b --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs all four workloads in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"leed/internal/ycsb"
)

type sutKind int

const (
	kindStore sutKind = iota
	kindTCP
	kindChain
)

// spec is one workload. Names are final: later issues cite them.
type spec struct {
	name    string
	why     string
	kind    sutKind
	mix     ycsb.Workload
	records int64
	batch   int // >1: MultiGet/MultiPut frames of this many ops
}

// Record counts are what one set-up (start, preload, read-back) can do in
// about two seconds on a 2-core box: the driver's time cap leaves each run
// some thirty seconds, three set-ups included.
func allSpecs() []*spec {
	return []*spec{
		{name: "store-a", kind: kindStore, mix: ycsb.WorkloadA, records: 40_000,
			why: "engine embedded in the benchmark process, YCSB-A: core/engine/flashsim do all the work, no rpcproto/transport/server; half the ops are PUTs so group commit and compaction run throughout"},
		{name: "tcp-single-b", kind: kindTCP, mix: ycsb.WorkloadB, records: 30_000,
			why: "one server process over TCP loopback, single-op RPCs, YCSB-B: per-message layers (client demux, rpcproto, transport syscalls, server admission, wallclock hand-offs) are most of the cost"},
		{name: "tcp-batch32-b", kind: kindTCP, mix: ycsb.WorkloadB, records: 30_000, batch: 32,
			why: "same server, data and mix as MultiGet/MultiPut frames of 32: framing amortised 32x, so engine/core/flashsim dominate and a per-message optimisation should not move it"},
		{name: "chain3-a", kind: kindChain, mix: ycsb.WorkloadA, records: 10_000,
			why: "manager + 3 node processes, R=3, YCSB-A through proc.Client: the only workload where cluster/proc runs; a PUT is 3 executions + 2 forwards, a GET one hop"},
	}
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	setups  int
}

func lanes() int { return min(runtime.NumCPU(), 4) }

func main() {
	// Children get Pdeathsig, which follows the thread that forked them:
	// keep main on the process's first thread and spawn only from main.
	runtime.LockOSThread()

	var (
		role     = flag.String("role", "", "internal: run as a child process (server|manager|node)")
		image    = flag.String("image", "", "internal: server role's image path")
		traced   = flag.Bool("traced", false, "internal: server role installs the device and connection decorators")
		handler  = flag.Bool("handler", false, "internal: server role installs the server.Handler decorator")
		nodeID   = flag.Uint64("id", 0, "internal: node role's ID")
		manager  = flag.String("manager", "", "internal: node role's manager address")
		workload = flag.String("workload", "all", "store-a | tcp-single-b | tcp-batch32-b | chain3-a | all")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same generated inputs")
		seconds  = flag.Float64("seconds", 24, "seconds of load per run: 40% latency phase, 50% saturation phase, 5% warm-up before each")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and the self-time table")
		quick    = flag.Bool("quick", false, "smoke scale: 5k records, one set-up")
	)
	flag.Parse()

	if *role != "" {
		var err error
		switch *role {
		case "server":
			err = serverRole(*image, *traced, *handler)
		case "manager":
			err = managerRole()
		case "node":
			err = nodeRole(*nodeID, *manager)
		default:
			err = fmt.Errorf("unknown role %q", *role)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", *role, err)
			os.Exit(1)
		}
		return
	}

	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, setups: 3}
	if o.quick {
		o.setups = 1
	}
	if o.seconds < 1 {
		fatalf("-seconds %v: need at least 1", o.seconds)
	}
	var todo []*spec
	for _, sp := range allSpecs() {
		if *workload == "all" || *workload == sp.name {
			if o.quick {
				sp.records = 5_000
			}
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		fatalf("unknown -workload %q", *workload)
	}
	installSignals()

	firstSpin := 0.0
	for _, sp := range todo {
		res := runGuarded(sp, o)
		// Noise guard, when several workloads share one invocation: a host
		// that got slower since the first workload would bias the later
		// ones, so such a workload is measured once more.
		if firstSpin == 0 {
			firstSpin = res.spinMS
		} else if d := res.spinMS/firstSpin - 1; d > 0.15 || d < -0.15 {
			fmt.Printf("noise guard: %s: host spin %.2f ms vs %.2f ms at the first workload; running it again\n",
				sp.name, res.spinMS, firstSpin)
			res = runGuarded(sp, o)
		}
		fmt.Print(res.text)
		fmt.Println(res.json)
	}
	exit(0)
}

// result is what one workload run prints.
type result struct {
	text   string
	json   string
	spinMS float64
}

func runGuarded(sp *spec, o options) result {
	wd := watchdog(150*time.Second, sp.name)
	defer wd.Stop()
	if o.trace {
		return runTraced(sp, o)
	}
	return runPlain(sp, o)
}

// plan splits a run's seconds into its phases; each measured phase is
// preceded by a warm-up of length warm.
type plan struct{ warm, lat, sat time.Duration }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measurement is one SUT's life: set-up, phases, final read-back.
type measurement struct {
	sp       *spec
	setupS   float64
	lat, sat *phaseResult
	first    boundary // before the measured phases
	last     boundary // after them
	// Decorator sums per traced phase: SUT side and client-connection side.
	latSUT, satSUT   traceSums
	latConn, satConn traceSums
	attempted        int64
	failed           int64
	failure          string
}

func buildSUT(sp *spec, traced bool) (sut, error) {
	switch sp.kind {
	case kindStore:
		return buildStoreSUT(sp.records, traced)
	case kindTCP:
		return buildTCPSUT(lanes(), traced, traced && sp.batch <= 1)
	default:
		return buildChainSUT()
	}
}

// setUp builds the SUT and preloads it; the time it takes is setup_s.
func setUp(sp *spec, traced bool, seed int64) (sut, *runner, float64) {
	t0 := time.Now()
	s, err := buildSUT(sp, traced)
	if err != nil {
		fatalf("%s: set-up: start: %v", sp.name, err)
	}
	r := newRunner(sp, s, lanes(), seed)
	if err := r.preload(); err != nil {
		fatalf("%s: set-up: %v", sp.name, err)
	}
	return s, r, time.Since(t0).Seconds()
}

func tearDown(s sut) {
	s.close()
	theHarness.stopChildren()
	// The embedded store lives in this process: hand its memory back so the
	// next SUT's peak RSS is its own.
	debug.FreeOSMemory()
}

func measure(sp *spec, traced bool, pl plan, seed int64, traceFile string) *measurement {
	m := &measurement{sp: sp}
	s, r, setupS := setUp(sp, traced, seed)
	m.setupS = setupS
	step := func(name string, err error) {
		if err != nil {
			fatalf("%s: %s: %v", sp.name, name, err)
		}
	}
	tracedPhase := func(ph phase, file string) (*phaseResult, traceSums, traceSums) {
		step(ph.name+": trace reset", s.traceReset())
		pr, err := r.runPhase(ph)
		step(ph.name, err)
		sums, conn, err := s.traceDump(file)
		step(ph.name+": trace dump", err)
		return pr, sums, conn
	}
	warmUp := func() {
		_, err := r.runPhase(phase{name: "warm-up", perLane: satWindow, dur: pl.warm})
		step("warm-up", err)
	}
	var err error
	m.first, err = r.mark()
	step("snapshot", err)
	if pl.lat > 0 {
		// One call in flight, generator and SUT on one CPU with one P each
		// (affinity.go says why); the sat phase gets every CPU back.
		step("confining the lat phase to one CPU", theHarness.confine(true))
		warmUp()
		m.lat, m.latSUT, m.latConn = tracedPhase(phase{name: "lat", lanes: 1, perLane: 1, dur: pl.lat}, traceFile)
		step("giving the sat phase every CPU", theHarness.confine(false))
	}
	warmUp()
	m.sat, m.satSUT, m.satConn = tracedPhase(phase{name: "sat", perLane: satWindow, dur: pl.sat}, "")
	m.last, err = r.mark()
	step("snapshot", err)
	step("final read-back", r.readBack("final read-back", 1024, true))
	m.attempted, m.failed, m.failure = r.attempted, r.failed, r.firstFailure
	tearDown(s)
	return m
}

// ---- the untraced run: end-to-end metrics --------------------------------

func runPlain(sp *spec, o options) result {
	spin := spinMS()
	pl := plan{warm: secs(o.seconds * 0.05), lat: secs(o.seconds * 0.40), sat: secs(o.seconds * 0.50)}

	// Set-up is timed several times and reported as the median; the last
	// SUT set up is the one measured.
	var setups []float64
	for i := 1; i < o.setups; i++ {
		s, _, t := setUp(sp, false, o.seed)
		setups = append(setups, t)
		tearDown(s)
	}
	m := measure(sp, false, pl, o.seed, "")
	setups = append(setups, m.setupS)

	ms := metricSet{}
	ms.put("setup_s", median(setups), len(setups))
	endToEndMetrics(ms, m)
	ms.put("ok_ratio", ratio(float64(m.attempted-m.failed), float64(m.attempted)), int(m.attempted))
	deviceAmplification(ms, m)
	ms.put("host.spin_ms", spin, 0)
	ms.put("host.steal_share", stealShare(m), 0)

	text := fmt.Sprintf("== %s  seed %d  %.0f s of load (lat phase: 1 lane x1 outstanding on one CPU; sat phase: %d lanes x%d on every CPU)\n   %s\n",
		sp.name, o.seed, o.seconds, lanes(), satWindow, sp.why)
	text += ms.table("end-to-end (untraced)", endToEnd)
	text += ms.table("also measured (not in the JSON line)", alsoPrinted)
	if m.failed > 0 {
		text += fmt.Sprintf("FIRST FAILURE: %s\n", m.failure)
	}
	return result{text: text, json: resultLine(ms, endToEnd, m), spinMS: spin}
}

// metricDef names one metric of BENCHMARK.json: its unit and which direction
// is better.
type metricDef struct{ name, unit, better string }

// endToEnd is what a user of the system would see; every workload reports
// all of it in its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"}, {"ops_per_s", "1/s", "higher"},
	{"get_p50_us", "us", "lower"}, {"get_p99_us", "us", "lower"},
	{"put_p50_us", "us", "lower"}, {"put_p95_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"}, {"req_per_joule", "1/J", "higher"}, {"rss_mb", "MB", "lower"},
}

// alsoPrinted follows the end-to-end table of an untraced run; the JSON
// line cannot carry these (see README, "Departures").
var alsoPrinted = []metricDef{
	{"ok_ratio", "ratio", "higher"}, {"write_amp", "ratio", "lower"}, {"dev_reads_per_op", "1/op", "lower"},
	{"host.spin_ms", "ms", "lower"}, {"host.steal_share", "ratio", "lower"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, alsoPrinted, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// perWindow evaluates f on each window of a phase (given the snapshots at
// its two edges) and returns the values.
func perWindow(pr *phaseResult, f func(w *window, a, b *boundary) float64) []float64 {
	out := make([]float64, len(pr.wins))
	for i := range pr.wins {
		out[i] = f(&pr.wins[i], &pr.marks[i], &pr.marks[i+1])
	}
	return out
}

func latencyUS(pr *phaseResult, op int, q float64) (float64, int) {
	n := 0
	v := perWindow(pr, func(w *window, _, _ *boundary) float64 {
		n += len(w.lat[op])
		return percentile(w.lat[op], q) / 1e3
	})
	return median(v), n
}

func endToEndMetrics(ms metricSet, m *measurement) {
	ms.put("ops_per_s", median(satOpsPerS(m)), windows)
	for _, q := range []struct {
		name string
		op   int
		q    float64
	}{{"get_p50_us", opGet, 0.50}, {"get_p99_us", opGet, 0.99}, {"put_p50_us", opPut, 0.50}, {"put_p95_us", opPut, 0.95}} {
		v, n := latencyUS(m.lat, q.op, q.q)
		ms.put(q.name, v, n)
	}
	cpu := perWindow(m.sat, func(w *window, a, b *boundary) float64 {
		return ratio(float64(b.total.CPUUS-a.total.CPUUS), float64(w.ops))
	})
	ms.put("cpu_us_per_op", median(cpu), len(cpu))
	rpj := perWindow(m.sat, func(w *window, a, b *boundary) float64 {
		return ratio(float64(w.ops), float64(b.total.MJ-a.total.MJ)/1e3)
	})
	ms.put("req_per_joule", median(rpj), len(rpj))
	ms.put("rss_mb", float64(m.last.total.MaxRSSKB)/1024, 0)
}

// deviceAmplification adds write_amp and dev_reads_per_op where the
// devices are visible from outside the SUT. Whole windows only on both sides
// of each ratio: device counters between a phase's first and last window
// boundary over the ops of those windows.
func deviceAmplification(ms metricSet, m *measurement) {
	if m.sp.kind == kindChain {
		const why = "proc.Node builds its devices privately and never registers them"
		ms.na("write_amp", why)
		ms.na("dev_reads_per_op", why)
		return
	}
	lat, sat := totals(m.lat), totals(m.sat)
	written := lat.b.total.DevBytesWritten - lat.a.total.DevBytesWritten +
		sat.b.total.DevBytesWritten - sat.a.total.DevBytesWritten
	puts := lat.puts + sat.puts
	ms.put("write_amp", ratio(float64(written), float64(puts*(keyLen+valLen))), int(puts))
	ms.put("dev_reads_per_op", ratio(float64(sat.b.total.DevReads-sat.a.total.DevReads), float64(sat.ops)), int(sat.ops))
}

func stealShare(m *measurement) float64 {
	return ratio(float64(m.last.steal-m.first.steal), float64(m.last.host-m.first.host))
}

// resultLine renders the run's last line: the JSON object the driver reads.
func resultLine(ms metricSet, defs []metricDef, runs ...*measurement) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Metrics: map[string]val{}}
	for _, m := range runs {
		out.Attempted += m.attempted
		out.Failed += m.failed
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok {
			fatalf("internal: metric %s was never computed", d.name)
		}
		out.Metrics[d.name] = val{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("internal: result line: %v", err)
	}
	return string(b)
}

// traceDir is where a traced run leaves its spans and tables.
func traceDir() (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	return dir, os.MkdirAll(dir, 0o755)
}
