package chaos

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// servedConfig shrinks a served drill to a test-friendly size. Real sockets
// and real sleeps mean counters vary run to run; tests assert invariants
// and fault engagement, never exact values.
func servedConfig(sc ServedScenario, seed int64) ServedConfig {
	return ServedConfig{
		Seed:         seed,
		Scenario:     sc,
		Keys:         24,
		Rounds:       2,
		Clients:      2,
		Deadline:     100 * runtime.Millisecond,
		PartitionFor: 400 * time.Millisecond,
		Budget:       60 * time.Second,
	}
}

func runServedScenario(t *testing.T, cfg ServedConfig) *ServedReport {
	t.Helper()
	rep, err := RunServedDrill(cfg)
	if err != nil {
		t.Fatalf("%s served drill: %v", cfg.Scenario, err)
	}
	t.Logf("\n%s", rep)
	if !rep.Pass {
		t.Errorf("%s served drill failed:\n%s", cfg.Scenario, rep)
	}
	return rep
}

// TestServedDrillDrop: the proxy abruptly kills connections mid-stream;
// clients must reconnect and retry through it with zero acked-write loss.
// The drill's registry must carry the server-side series in Prometheus
// text: a request count that moved and the per-partition latency buckets.
func TestServedDrillDrop(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := servedConfig(ServedProxyDrop, 1)
	cfg.Obs = reg
	rep := runServedScenario(t, cfg)
	if rep.WritesAcked == 0 {
		t.Error("no writes were acknowledged under connection drops")
	}
	if rep.Proxy.KilledByDrop == 0 {
		t.Error("drop drill killed no connections; the fault never engaged")
	}

	var page bytes.Buffer
	reg.WritePrometheus(&page)
	var requests int64
	sc := bufio.NewScanner(bytes.NewReader(page.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "leed_server_requests_total") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		requests += n
	}
	if requests <= 0 {
		t.Errorf("leed_server_requests_total = %d, want > 0; page:\n%s", requests, page.String())
	}
	if !bytes.Contains(page.Bytes(), []byte("leed_server_partition_latency_ns_bucket")) {
		t.Errorf("no leed_server_partition_latency_ns_bucket series; page:\n%s", page.String())
	}
}

// TestServedDrillPartition: the wire blackholes, requests stall into their
// deadlines, the breaker opens and bounds the tail, the heal restores
// service and the working set reads back intact.
func TestServedDrillPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode runs the drop scenario only")
	}
	rep := runServedScenario(t, servedConfig(ServedProxyPartition, 1))
	if !rep.BreakerOpened {
		t.Error("partition drill never opened a client breaker")
	}
	if rep.Timeouts == 0 {
		t.Error("partition drill produced no client timeouts")
	}
	if rep.WritesAcked == 0 {
		t.Error("no writes were acknowledged across the partition drill")
	}
}
