package proc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"leed/internal/obs"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
)

// startObsProcCluster spawns a manager (aggregating) and n nodes, every
// process exporting metrics, and returns the manager heartbeat address, the
// metrics addresses (manager first, then node 1..n), and the children
// (manager first).
func startObsProcCluster(t *testing.T, n int) (string, []string, []*procChild) {
	t.Helper()
	mgrAddr := freeTestAddr(t)
	metrics := []string{freeTestAddr(t)}
	children := []*procChild{spawnProc(t, "manager",
		[]string{"manager", "-listen", mgrAddr, "-hb-timeout", "600ms",
			"-metrics-addr", metrics[0], "-metrics-poll", "100ms"})}
	awaitTCP(t, mgrAddr, 15*time.Second)
	for i := 1; i <= n; i++ {
		metrics = append(metrics, freeTestAddr(t))
		children = append(children, spawnProc(t, fmt.Sprintf("node %d", i),
			[]string{"node",
				"-id", fmt.Sprint(i),
				"-listen", freeTestAddr(t),
				"-manager", mgrAddr,
				"-hb-interval", "25ms",
				"-metrics-addr", metrics[i]}))
	}
	return mgrAddr, metrics, children
}

// httpGet fetches a URL body with a short timeout ("" on any failure).
func httpGet(url string) string {
	cl := http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return ""
	}
	return string(b)
}

// TestClusterObservabilityEndToEnd is the observability tentpole's
// integration gate, all three pillars over real processes and sockets:
//
//  1. cross-process trace propagation — a traced client demands a reassembled
//     trace whose piggybacked spans cover the whole write chain (node spans
//     at hop 1, 2, AND 3 for R=3), client/net measured locally at hop 0;
//  2. fleet aggregation — the manager's /metrics must converge to the
//     cluster-wide merge (member nodes present, node series summed in);
//  3. energy accounting — the aggregated page must show cluster-summed
//     leed_power energy counters strictly rising.
func TestClusterObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process observability integration skipped in -short mode")
	}
	mgrAddr, metrics, children := startObsProcCluster(t, 3)
	mgrMetrics := metrics[0]

	env := wallclock.New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 1, 128) // sample every op: the test asserts on whole traces
	client := NewClient(ClientConfig{Env: env, Manager: mgrAddr, Tracer: tr})
	var taskErrs []string
	done := make(chan struct{})
	env.Spawn("obs-driver", func(p runtime.Task) {
		defer close(done)
		if !awaitRunningView(p, client, 3, 30*time.Second) {
			taskErrs = append(taskErrs, "cluster never reached 3 RUNNING members")
			return
		}
		for i := 0; i < 32; i++ {
			key := []byte(fmt.Sprintf("obs-%04d", i))
			if err := client.Put(p, key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
				taskErrs = append(taskErrs, fmt.Sprintf("put %d: %v", i, err))
				return
			}
			if _, err := client.Get(p, key); err != nil {
				taskErrs = append(taskErrs, fmt.Sprintf("get %d: %v", i, err))
				return
			}
		}
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("obs driver did not finish")
	}
	for _, e := range taskErrs {
		t.Fatal(e)
	}

	// Pillar 1: trace reassembly. With R=3 over 3 nodes every PUT crosses the
	// full chain, so some sampled trace must carry node spans from three
	// distinct server processes plus the client-side spans.
	samples := tr.Samples()
	if len(samples) == 0 {
		t.Fatal("tracer retained no samples")
	}
	bestHops := map[int]bool{}
	stages := map[string]bool{}
	for _, trace := range samples {
		hops := map[int]bool{}
		for _, sp := range trace.Spans {
			stages[sp.Stage] = true
			if sp.Stage == "node" {
				hops[sp.Hop] = true
			}
		}
		if len(hops) > len(bestHops) {
			bestHops = hops
		}
	}
	for hop := 1; hop <= 3; hop++ {
		if !bestHops[hop] {
			t.Errorf("no sampled trace carries a node span at hop %d (deepest: %v) — chain propagation broken", hop, bestHops)
		}
	}
	for _, want := range []string{"client", "net", "node", "engine"} {
		if !stages[want] {
			t.Errorf("no sampled trace carries stage %q; saw %v", want, stages)
		}
	}
	attr := tr.Attribution()
	if len(attr.Stages) < 4 {
		t.Errorf("client-side attribution has %d stages, want ≥ 4:\n%s", len(attr.Stages), attr)
	}

	// Pillars 2+3: the manager's aggregated page. Convergence needs a scrape
	// cycle (100ms poll) and a power sample (500ms tick) per node, so poll.
	metricsURL := "http://" + mgrMetrics + "/metrics"
	var page string
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		page = httpGet(metricsURL)
		// Gauges are instance-keyed in the merge, so the member count rides
		// under the aggregator's own instance.
		if strings.Contains(page, `leed_fleet_members{instance="manager"} 3`) &&
			strings.Contains(page, "leed_node_puts_total") &&
			powerRising(page) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if !strings.Contains(page, `leed_fleet_members{instance="manager"} 3`) {
		t.Errorf("aggregated /metrics never showed 3 fleet members:\n%s", page)
	}
	for _, series := range []string{
		"leed_node_puts_total",
		"leed_node_gets_total",
		"leed_power_millijoules_total",
		"leed_power_joules_total",
		"leed_mgr_joins_total",
	} {
		if !strings.Contains(page, series) {
			t.Errorf("aggregated /metrics missing series %q", series)
		}
	}
	if !powerRising(page) {
		t.Error("aggregated leed_power_millijoules_total never rose above zero")
	}
	// The cluster-wide attribution table is served too, fed by the members'
	// own stage histograms (every node traces what it handles). Every node
	// serves the same route over its own registry, and the manager's rows
	// are the nodes' rows summed.
	mgrAttr := fetchAttribution(t, mgrMetrics)
	var nodeCount int64
	for i, addr := range metrics[1:] {
		attr := fetchAttribution(t, addr)
		if attr["node"].Count == 0 || attr["engine"].Count == 0 {
			t.Errorf("node %d /attribution missing node/engine stages: %+v", i+1, attr)
		}
		nodeCount += attr["node"].Count
	}
	if mgrAttr["node"].Count == 0 || mgrAttr["engine"].Count == 0 {
		t.Errorf("manager /attribution missing node/engine stages: %+v", mgrAttr)
	}
	// The fleet merge lags the nodes by up to one scrape, and the driver
	// is done, so the nodes' sum bounds the manager's node row.
	if got := mgrAttr["node"].Count; got > nodeCount {
		t.Errorf("manager node row count %d exceeds the nodes' sum %d", got, nodeCount)
	}

	for i := len(children) - 1; i >= 0; i-- {
		children[i].drain(t)
	}
}

// fetchAttribution reads one process's /attribution table, keyed by stage.
func fetchAttribution(t *testing.T, addr string) map[string]obs.StageLat {
	t.Helper()
	page := httpGet("http://" + addr + "/attribution")
	var rows []obs.StageLat
	if err := json.Unmarshal([]byte(page), &rows); err != nil {
		t.Fatalf("%s/attribution: %v\n%s", addr, err, page)
	}
	byStage := map[string]obs.StageLat{}
	for _, r := range rows {
		byStage[r.Stage] = r
	}
	return byStage
}

// powerRising reports whether the aggregated page shows a strictly positive
// cluster-wide energy total.
func powerRising(page string) bool {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, "leed_power_millijoules_total "); ok {
			return strings.TrimSpace(rest) != "0" && !strings.HasPrefix(strings.TrimSpace(rest), "-")
		}
	}
	return false
}
