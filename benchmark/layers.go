package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The traced run: the same workload twice — once short and untraced, for
// the baseline the tracing overhead is measured against, once with the
// decorators of trace.go installed — then the per-layer rigs. It reports
// only per-layer metrics; end-to-end metrics always come from runPlain.

// perLayer is every per-layer metric with its unit and the direction that
// is better, in the order BENCHMARK.json lists them. A workload that cannot
// measure one reports it as n/a (0 in the JSON line).
var perLayer = []metricDef{
	{"client.sat_get_p99_us", "us", "lower"}, {"client.sat_put_p99_us", "us", "lower"},
	{"client.gen_cpu_us_per_op", "us", "lower"}, {"client.window_spread", "ratio", "lower"},
	{"rpcproto.single_codec_ns", "ns", "lower"}, {"rpcproto.batch32_codec_ns_per_item", "ns", "lower"},
	{"rpcproto.allocs_per_op", "1/op", "lower"},
	{"transport.inproc_rtt_us", "us", "lower"}, {"transport.tcp_rtt_us", "us", "lower"},
	{"transport.syscalls_per_op", "1/op", "lower"}, {"transport.wire_us", "us", "lower"},
	{"server.residency_us", "us", "lower"}, {"server.self_us", "us", "lower"}, {"server.noop_ops_per_s", "1/s", "higher"},
	{"wallclock.handoff_ns", "ns", "lower"}, {"wallclock.par_speedup", "ratio", "higher"},
	{"engine.self_us", "us", "lower"}, {"engine.exec_get_us", "us", "lower"}, {"engine.exec_put_us", "us", "lower"},
	{"engine.compactions", "count", "lower"}, {"engine.swapped_puts", "count", "lower"},
	{"core.get_ns", "ns", "lower"}, {"core.put_ns", "ns", "lower"},
	{"core.get_allocs", "1/op", "lower"}, {"core.put_allocs", "1/op", "lower"},
	{"core.group_commit_size", "1/write", "higher"}, {"core.val_compactions", "count", "lower"},
	{"core.key_compactions", "count", "lower"}, {"core.relocated_per_put", "1/put", "lower"},
	{"core.segment_full", "count", "lower"}, {"core.space_amp", "ratio", "lower"},
	{"flashsim.write_amp", "ratio", "lower"}, {"flashsim.dev_reads_per_op", "1/op", "lower"},
	{"flashsim.dev_us_per_op", "us", "lower"}, {"flashsim.writes_per_put", "1/put", "lower"},
	{"flashsim.reads_per_get", "1/get", "lower"}, {"flashsim.write_bytes_per_put", "B/put", "lower"},
	{"flashsim.flushes_per_s", "1/s", "lower"}, {"flashsim.coalesced_ratio", "ratio", "higher"},
	{"flashsim.batch_size", "1/batch", "higher"}, {"flashsim.max_queue", "count", "lower"},
	{"cluster.put_hop_us", "us", "lower"}, {"cluster.forwards_per_put", "1/put", "lower"},
	{"cluster.nacks_per_kop", "1/kop", "lower"}, {"cluster.get_share_max", "ratio", "lower"},
	{"cluster.view_epochs", "count", "lower"}, {"cluster.mgr_cpu_share", "ratio", "lower"},
	{"power.cpu_joule_share", "ratio", "lower"}, {"power.idle_joule_share", "ratio", "lower"},
	{"power.dev_joule_share", "ratio", "lower"}, {"power.avg_watts", "W", "lower"},
	{"obs.trace_overhead", "ratio", "lower"}, {"host.steal_share", "ratio", "lower"}, {"host.spin_ms", "ms", "lower"},
}

func runTraced(sp *spec, o options) result {
	spin := spinMS()
	// Of the run's seconds: a fifth for the untraced baseline, three fifths
	// for the traced SUT; the rigs take the rest.
	base := plan{warm: secs(o.seconds * 0.05), sat: secs(o.seconds * 0.15)}
	tr := plan{warm: secs(o.seconds * 0.025), lat: secs(o.seconds * 0.25), sat: secs(o.seconds * 0.25)}

	dir, err := traceDir()
	if err != nil {
		fatalf("%s: trace directory: %v", sp.name, err)
	}
	spanFile := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", sp.name, o.seed))
	_ = os.Remove(spanFile)

	untraced := measure(sp, false, base, o.seed, "")
	traced := measure(sp, true, tr, o.seed, spanFile)

	ms := metricSet{}
	layerMetrics(ms, sp, traced)
	ms.put("obs.trace_overhead", 1-ratio(median(satOpsPerS(traced)), median(satOpsPerS(untraced))), 0)
	ms.put("host.steal_share", stealShare(traced), 0)
	ms.put("host.spin_ms", spin, 0)
	div := 1
	if o.quick {
		div = 10
	}
	if err := runRigs(ms, div); err != nil {
		fatalf("%s: rigs: %v", sp.name, err)
	}

	table := selfTimeTable(sp, traced)
	text := fmt.Sprintf("== %s  seed %d  traced (%d lanes)\n", sp.name, o.seed, lanes())
	text += ms.table("per-layer (traced run)", perLayer) + table
	if traced.failed+untraced.failed > 0 {
		text += fmt.Sprintf("FIRST FAILURE: %s%s\n", untraced.failure, traced.failure)
	}
	tableFile := filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", sp.name, o.seed))
	if err := os.WriteFile(tableFile, []byte(text), 0o644); err != nil {
		fatalf("%s: writing %s: %v", sp.name, tableFile, err)
	}
	text += fmt.Sprintf("spans: %s   tables: %s\n", spanFile, tableFile)
	return result{text: text, json: resultLine(ms, perLayer, untraced, traced), spinMS: spin}
}

// satOpsPerS is the sat phase's completed ops per second, window by window.
func satOpsPerS(m *measurement) []float64 {
	winS := m.sat.winLen.Seconds()
	return perWindow(m.sat, func(w *window, _, _ *boundary) float64 { return float64(w.ops) / winS })
}

// phaseTotals sums a phase's whole windows and keeps the snapshots at its
// first and last window boundary.
type phaseTotals struct {
	ops, gets, puts int64
	seconds         float64
	a, b            *boundary
}

func totals(pr *phaseResult) phaseTotals {
	t := phaseTotals{a: &pr.marks[0], b: &pr.marks[windows], seconds: (pr.winLen * windows).Seconds()}
	for i := range pr.wins {
		t.ops += pr.wins[i].ops
		t.gets += pr.wins[i].gets
		t.puts += pr.wins[i].puts
	}
	return t
}

func mean(sum, n int64) float64 { return ratio(float64(sum), float64(n)) }

// layerMetrics fills every per-layer metric that comes from the traced
// workload run (the rigs add theirs afterwards).
func layerMetrics(ms metricSet, sp *spec, m *measurement) {
	sat, lat := totals(m.sat), totals(m.lat)
	a, b := sat.a.total, sat.b.total
	both := func(f func(s snap) int64) int64 { // counter delta over lat + sat
		return f(lat.b.total) - f(lat.a.total) + f(b) - f(a)
	}
	puts := lat.puts + sat.puts

	// client
	for _, q := range []struct {
		name string
		op   int
	}{{"client.sat_get_p99_us", opGet}, {"client.sat_put_p99_us", opPut}} {
		v, n := latencyUS(m.sat, q.op, 0.99)
		ms.put(q.name, v, n)
	}
	if sp.kind == kindStore {
		ms.na("client.gen_cpu_us_per_op", "the generator and the store share one process")
	} else {
		ms.put("client.gen_cpu_us_per_op", median(perWindow(m.sat, func(w *window, a, b *boundary) float64 {
			return ratio(float64(b.self-a.self), float64(w.ops))
		})), windows)
	}
	ms.put("client.window_spread", spread(satOpsPerS(m)), windows)

	// transport, server, engine: what the decorators saw in the lat phase
	const (
		noSockets = "no socket in this workload"
		noSeam    = "no public seam: chain nodes are built inside proc.StartNode"
		batchSeam = "a server with a Handler refuses batch frames"
	)
	if sp.kind == kindStore {
		ms.na("transport.syscalls_per_op", noSockets)
	} else {
		ms.put("transport.syscalls_per_op", ratio(float64(b.SysR+b.SysW-a.SysR-a.SysW), float64(sat.ops)), int(sat.ops))
	}
	reqs := m.latSUT.Requests[opGet] + m.latSUT.Requests[opPut]
	resid := m.latSUT.ResidencyNS[opGet] + m.latSUT.ResidencyNS[opPut]
	connReqs := m.latConn.Requests[opGet] + m.latConn.Requests[opPut]
	connNS := m.latConn.ResidencyNS[opGet] + m.latConn.ResidencyNS[opPut]
	handled := m.latSUT.Handled[opGet] + m.latSUT.Handled[opPut]
	handlerNS := m.latSUT.HandlerNS[opGet] + m.latSUT.HandlerNS[opPut]
	devWait := m.latSUT.DevWaitNS[opGet] + m.latSUT.DevWaitNS[opPut]
	switch sp.kind {
	case kindTCP:
		ms.put("transport.wire_us", (mean(connNS, connReqs)-mean(resid, reqs))/1e3, int(reqs))
		ms.put("server.residency_us", mean(resid, reqs)/1e3, int(reqs))
	case kindStore:
		ms.na("transport.wire_us", noSockets)
		ms.na("server.residency_us", noSockets)
	default:
		ms.na("transport.wire_us", noSeam)
		ms.na("server.residency_us", noSeam)
	}
	switch {
	case sp.kind == kindTCP && sp.batch <= 1:
		ms.put("server.self_us", (mean(resid, reqs)-mean(handlerNS, handled))/1e3, int(handled))
		ms.put("engine.self_us", (mean(handlerNS, handled)-mean(devWait, handled))/1e3, int(handled))
		ms.put("engine.exec_get_us", mean(m.latSUT.HandlerNS[opGet], m.latSUT.Handled[opGet])/1e3, int(m.latSUT.Handled[opGet]))
		ms.put("engine.exec_put_us", mean(m.latSUT.HandlerNS[opPut], m.latSUT.Handled[opPut])/1e3, int(m.latSUT.Handled[opPut]))
	case sp.kind == kindStore:
		ms.na("server.self_us", noSockets)
		calls, callNS := m.lat.calls[opGet]+m.lat.calls[opPut], m.lat.callNS[opGet]+m.lat.callNS[opPut]
		ms.put("engine.self_us", (mean(callNS, calls)-mean(devWait, handled))/1e3, int(calls))
		ms.put("engine.exec_get_us", mean(m.lat.callNS[opGet], m.lat.calls[opGet])/1e3, int(m.lat.calls[opGet]))
		ms.put("engine.exec_put_us", mean(m.lat.callNS[opPut], m.lat.calls[opPut])/1e3, int(m.lat.calls[opPut]))
	default:
		why := noSeam
		if sp.kind == kindTCP {
			why = batchSeam
		}
		for _, name := range []string{"server.self_us", "engine.self_us", "engine.exec_get_us", "engine.exec_put_us"} {
			ms.na(name, why)
		}
	}
	ms.put("engine.compactions", float64(both(func(s snap) int64 { return s.EngCompactions })), 0)
	ms.put("engine.swapped_puts", float64(both(func(s snap) int64 { return s.EngSwapped })), 0)

	// core and flashsim: Stats() of the store and the device
	if sp.kind == kindChain {
		const why = "proc.Node builds its engine and devices privately"
		for _, name := range []string{"core.group_commit_size", "core.val_compactions", "core.key_compactions",
			"core.relocated_per_put", "core.segment_full", "core.space_amp", "flashsim.write_amp", "flashsim.dev_reads_per_op",
			"flashsim.dev_us_per_op", "flashsim.writes_per_put", "flashsim.reads_per_get", "flashsim.write_bytes_per_put",
			"flashsim.flushes_per_s", "flashsim.coalesced_ratio", "flashsim.batch_size", "flashsim.max_queue"} {
			ms.na(name, why)
		}
	} else {
		// Appends per device write: how many log appends one write carries.
		ms.put("core.group_commit_size", ratio(float64(both(func(s snap) int64 { return s.LogAppends })),
			float64(both(func(s snap) int64 { return s.DevWrites }))), 0)
		ms.put("core.val_compactions", float64(both(func(s snap) int64 { return s.ValCompactions })), 0)
		ms.put("core.key_compactions", float64(both(func(s snap) int64 { return s.KeyCompactions })), 0)
		ms.put("core.relocated_per_put", ratio(float64(both(func(s snap) int64 { return s.RelocatedItems })), float64(puts)), int(puts))
		ms.put("core.segment_full", float64(both(func(s snap) int64 { return s.SegmentFull })), 0)
		ms.put("core.space_amp", ratio(float64(b.KeyLogUsed+b.ValLogUsed), float64(b.LiveValBytes)), 0)

		deviceAmplification(ms, m)
		ms["flashsim.write_amp"] = ms["write_amp"]
		ms["flashsim.dev_reads_per_op"] = ms["dev_reads_per_op"]
		ms.put("flashsim.dev_us_per_op", ratio(float64(m.satSUT.DevBusyNS)/1e3, float64(m.sat.calls[opGet]+m.sat.calls[opPut])*float64(max(sp.batch, 1))), int(m.satSUT.DevOps))
		ms.put("flashsim.writes_per_put", ratio(float64(b.DevWrites-a.DevWrites), float64(sat.puts)), int(sat.puts))
		ms.put("flashsim.reads_per_get", ratio(float64(b.DevReads-a.DevReads), float64(sat.gets)), int(sat.gets))
		ms.put("flashsim.write_bytes_per_put", ratio(float64(b.DevBytesWritten-a.DevBytesWritten), float64(sat.puts)), int(sat.puts))
		ms.put("flashsim.flushes_per_s", float64(b.DevFlushes-a.DevFlushes)/sat.seconds, 0)
		ms.put("flashsim.coalesced_ratio", ratio(float64(b.DevCoalesced-a.DevCoalesced), float64(b.DevWrites-a.DevWrites)), 0)
		ms.put("flashsim.batch_size", ratio(float64(b.DevWrites+b.DevFlushes-a.DevWrites-a.DevFlushes), float64(b.DevBatches-a.DevBatches)), 0)
		ms.put("flashsim.max_queue", float64(b.DevMaxQueue), 0)
	}

	// cluster.proc
	if sp.kind != kindChain {
		for _, name := range []string{"cluster.put_hop_us", "cluster.forwards_per_put", "cluster.nacks_per_kop",
			"cluster.get_share_max", "cluster.view_epochs", "cluster.mgr_cpu_share"} {
			ms.na(name, "no cluster in this workload")
		}
	} else {
		get50, _ := latencyUS(m.lat, opGet, 0.50)
		put50, n := latencyUS(m.lat, opPut, 0.50)
		ms.put("cluster.put_hop_us", (put50-get50)/2, n)
		ms.put("cluster.forwards_per_put", ratio(float64(both(func(s snap) int64 { return s.NodeForwards })), float64(puts)), int(puts))
		ms.put("cluster.nacks_per_kop", 1e3*ratio(float64(both(func(s snap) int64 { return s.NodeNacks })), float64(lat.ops+sat.ops)), 0)
		var most, all int64
		for i := 1; i < len(sat.a.parts); i++ { // parts[0] is the manager
			g := sat.b.parts[i].NodeGets - sat.a.parts[i].NodeGets
			most, all = max(most, g), all+g
		}
		ms.put("cluster.get_share_max", ratio(float64(most), float64(all)), int(all))
		ms.put("cluster.view_epochs", float64(m.last.total.Epoch-m.first.total.Epoch), 0)
		ms.put("cluster.mgr_cpu_share", ratio(float64(sat.b.parts[0].CPUUS-sat.a.parts[0].CPUUS), float64(b.CPUUS-a.CPUUS)), 0)
	}

	// power: where the sat phase's Joules went
	mj := float64(b.MJ - a.MJ)
	ms.put("power.cpu_joule_share", ratio(float64(b.CPUMJ-a.CPUMJ), mj), 0)
	ms.put("power.idle_joule_share", ratio(float64(b.IdleMJ-a.IdleMJ), mj), 0)
	ms.put("power.dev_joule_share", ratio(float64(b.ReadMJ+b.WriteMJ-a.ReadMJ-a.WriteMJ), mj), 0)
	ms.put("power.avg_watts", mj/1e3/sat.seconds, 0)
}

// selfTimeTable splits the mean client call of the traced lat phase into
// the self time of each layer it passed through. Each row's self time is its
// span minus its child's span, so the rows add up to the client's call.
func selfTimeTable(sp *spec, m *measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "self-time table (traced lat phase, mean per client call)\n")
	if sp.kind == kindChain {
		fmt.Fprintf(&b, "  %s: no span below the client — chain nodes are built inside proc.StartNode and expose no seam;\n", sp.name)
		fmt.Fprintf(&b, "  client call mean: GET %.1f us (n=%d), PUT %.1f us (n=%d)\n",
			mean(m.lat.callNS[opGet], m.lat.calls[opGet])/1e3, m.lat.calls[opGet],
			mean(m.lat.callNS[opPut], m.lat.calls[opPut])/1e3, m.lat.calls[opPut])
		return b.String()
	}
	for op := range opNames {
		calls := m.lat.calls[op]
		if calls == 0 {
			continue
		}
		call := mean(m.lat.callNS[op], calls)
		// Span means, outermost first; a layer without a seam on this
		// workload has no span and its time stays with its parent.
		conn := mean(m.latConn.ResidencyNS[op], m.latConn.Requests[op])
		resid := mean(m.latSUT.ResidencyNS[op], m.latSUT.Requests[op])
		handler := mean(m.latSUT.HandlerNS[op], m.latSUT.Handled[op])
		dev := mean(m.latSUT.DevWaitNS[op], m.latSUT.Handled[op])
		if sp.kind == kindStore {
			conn, resid, handler = call, call, call
		}
		if sp.batch > 1 {
			// No handler seam on batch frames: the server row keeps
			// everything from frame received to response sent.
			handler, dev = 0, 0
		}
		rows := []struct {
			layer string
			self  float64
		}{{"client", call - conn}, {"wire", conn - resid}, {"server", resid - handler}, {"engine", handler - dev}, {"device", dev}}
		unit := "call"
		if sp.batch > 1 {
			unit = fmt.Sprintf("one Multi%s call per batch of %d generated ops", opNames[op][:1]+strings.ToLower(opNames[op][1:]), sp.batch)
		}
		fmt.Fprintf(&b, "  %s  (%s; client calls %d, conn spans %d, server spans %d, engine spans %d)\n",
			opNames[op], unit, calls, m.latConn.Requests[op], m.latSUT.Requests[op], m.latSUT.Handled[op])
		sum := 0.0
		for _, r := range rows {
			sum += r.self
			fmt.Fprintf(&b, "    %-8s %10.2f us  %6.1f%%\n", r.layer, r.self/1e3, 100*ratio(r.self, call))
		}
		fmt.Fprintf(&b, "    %-8s %10.2f us  (client-measured call %.2f us; sum/call = %.4f)\n", "sum", sum/1e3, call/1e3, ratio(sum, call))
	}
	return b.String()
}
