package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeMetricsEndpoints(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 16)
	reg.Counter("leed_test_ops_total", "dev", "ssd0").Add(42)
	reg.Hist("leed_test_lat_ns").Record(1000)
	trc := tr.Begin("get", 0)
	trc.Span("device", 100, 200)
	tr.End(trc)

	srv, err := ServeMetrics("127.0.0.1:0", reg.Raw, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(b)
	}

	page := get("/metrics")
	for _, want := range []string{
		`leed_test_ops_total{dev="ssd0"} 42`,
		`leed_test_lat_ns{quantile="0.5"}`,
		`leed_stage_service_ns{stage="device",quantile="0.99"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q:\n%s", want, page)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap.Counters[`leed_test_ops_total{dev="ssd0"}`] != 42 {
		t.Fatalf("/metrics.json counters = %v", snap.Counters)
	}

	var traces struct {
		Traces []Trace `json:"traces"`
	}
	body := get("/traces")
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not valid JSON: %v\n%s", err, body)
	}
	if len(traces.Traces) != 1 || traces.Traces[0].Spans[0].Stage != "device" {
		t.Fatalf("/traces = %s", body)
	}
	if !strings.Contains(body, `"attribution"`) {
		t.Fatalf("/traces missing attribution: %s", body)
	}

	var attr []StageLat
	if err := json.Unmarshal([]byte(get("/attribution")), &attr); err != nil {
		t.Fatalf("/attribution not valid JSON: %v", err)
	}
	if len(attr) != 1 || attr[0].Stage != "device" || attr[0].Count != 1 {
		t.Fatalf("/attribution = %+v, want one device row", attr)
	}

	var raw RawSnapshot
	if err := json.Unmarshal([]byte(get("/metrics.raw.json")), &raw); err != nil {
		t.Fatalf("/metrics.raw.json not valid JSON: %v", err)
	}
	if d := raw.Hists["leed_test_lat_ns"]; d.N != 1 || len(d.Buckets) != 1 {
		t.Fatalf("/metrics.raw.json hist = %+v, want one bucketed sample", d)
	}

	// A blank address serves nothing, and the nil server is safe to use.
	none, err := ServeMetrics("", reg.Raw, tr)
	if none != nil || err != nil {
		t.Fatalf("blank addr = (%v, %v), want (nil, nil)", none, err)
	}
	if none.Addr() != "" || none.Close() != nil {
		t.Fatal("nil server must report no address and close cleanly")
	}
}
