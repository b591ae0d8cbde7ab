package obs

import (
	"reflect"
	"strings"
	"testing"
)

// memberReg builds one fake member registry with a counter, a labeled
// counter, a gauge, and a stage histogram pair holding n observations.
func memberReg(ops int64, epoch int64, lat Time) *Registry {
	r := NewRegistry()
	r.Counter("leed_node_gets_total").Add(ops)
	r.Counter("leed_device_reads_total", "dev", "ssd0").Add(2 * ops)
	r.Gauge("leed_cluster_view_epoch").Set(epoch)
	for i := int64(0); i < ops; i++ {
		r.Hist("leed_stage_queue_ns", "stage", "node").Record(lat / 2)
		r.Hist("leed_stage_service_ns", "stage", "node").Record(lat)
	}
	return r
}

// TestFleetMergeSemantics pins the three merge rules: counters sum across
// members, histograms merge bucket-exactly, gauges re-key per instance.
func TestFleetMergeSemantics(t *testing.T) {
	f := NewFleet(nil)
	f.Update("n1", memberReg(10, 3, 1000).Raw())
	f.Update("n2", memberReg(5, 4, 4000).Raw())

	snap := f.Raw().Summary()
	if got := snap.Counters["leed_node_gets_total"]; got != 15 {
		t.Errorf("merged counter = %d, want 15 (10+5)", got)
	}
	if got := snap.Counters[`leed_device_reads_total{dev="ssd0"}`]; got != 30 {
		t.Errorf("merged labeled counter = %d, want 30", got)
	}
	// Gauges must NOT sum: each member's value survives under its instance.
	if got := snap.Gauges[`leed_cluster_view_epoch{instance="n1"}`]; got != 3 {
		t.Errorf("n1 gauge = %d, want 3; gauges: %v", got, snap.Gauges)
	}
	if got := snap.Gauges[`leed_cluster_view_epoch{instance="n2"}`]; got != 4 {
		t.Errorf("n2 gauge = %d, want 4; gauges: %v", got, snap.Gauges)
	}
	if _, ok := snap.Gauges["leed_cluster_view_epoch"]; ok {
		t.Error("un-instanced gauge leaked into the merge")
	}
	h := snap.Hists[`leed_stage_service_ns{stage="node"}`]
	if h.Count != 15 {
		t.Errorf("merged hist count = %d, want 15", h.Count)
	}

	// A removed member's contribution disappears on the next merge.
	f.Remove("n2")
	snap = f.Raw().Summary()
	if got := snap.Counters["leed_node_gets_total"]; got != 10 {
		t.Errorf("post-remove counter = %d, want 10", got)
	}
}

// TestFleetMergeExactHistogram checks the histogram path is Dump/Merge exact:
// merging two members equals one histogram fed both observation streams.
func TestFleetMergeExactHistogram(t *testing.T) {
	want := NewHistogram()
	ra, rb := NewRegistry(), NewRegistry()
	for i := Time(1); i <= 1000; i *= 3 {
		ra.Hist("leed_test_lat_ns").Record(i)
		want.Record(i)
	}
	for i := Time(2); i <= 5000; i *= 2 {
		rb.Hist("leed_test_lat_ns").Record(i)
		want.Record(i)
	}
	f := NewFleet(nil)
	f.Update("a", ra.Raw())
	f.Update("b", rb.Raw())
	if got := f.Raw().Hists["leed_test_lat_ns"]; !reflect.DeepEqual(got, want.Dump()) {
		t.Errorf("merged hist %+v != direct %+v", got, want.Dump())
	}
}

// TestFleetMergeCountsBadDump checks a member's corrupt histogram dump is
// dropped from the merge and counted, while its other series still merge.
func TestFleetMergeCountsBadDump(t *testing.T) {
	self := NewRegistry()
	f := NewFleet(self)
	bad := memberReg(3, 1, 100).Raw()
	bad.Hists["leed_test_bad_ns"] = HistDump{N: 2, Buckets: [][2]int64{{5, 1}}}
	f.Update("n1", bad)
	merged := f.Raw()
	if _, ok := merged.Hists["leed_test_bad_ns"]; ok {
		t.Error("corrupt dump reached the merge")
	}
	if got := merged.Counters["leed_node_gets_total"]; got != 3 {
		t.Errorf("member counter = %d, want 3", got)
	}
	if got := self.Counter("leed_fleet_merge_errors_total").Load(); got != 1 {
		t.Errorf("merge errors = %d, want 1", got)
	}
}

// TestFleetAttribution builds the cluster-wide attribution table from two
// members' stage histograms and checks rows merge and order correctly.
func TestFleetAttribution(t *testing.T) {
	f := NewFleet(nil)
	f.Update("n1", memberReg(8, 1, 1000).Raw())
	f.Update("n2", memberReg(4, 1, 2000).Raw())
	a := f.Raw().Attribution()
	if len(a.Stages) != 1 {
		t.Fatalf("attribution rows = %d, want 1 (node): %+v", len(a.Stages), a.Stages)
	}
	row := a.Stages[0]
	if row.Stage != "node" || row.Count != 12 {
		t.Errorf("row = %+v, want stage=node count=12", row)
	}
}

// TestFleetSelfAndHealthSeries pins the aggregator's own health series and
// its self-inclusion as instance "manager" — the golden names the CI smoke
// greps on the manager's aggregated /metrics.
func TestFleetSelfAndHealthSeries(t *testing.T) {
	self := NewRegistry()
	self.Counter("leed_mgr_heartbeats_total").Add(7)
	f := NewFleet(self)
	f.Update("n1", memberReg(1, 1, 10).Raw())
	f.ScrapeError()

	var b strings.Builder
	f.Raw().WritePrometheus(&b)
	out := b.String()
	for _, series := range []string{
		"leed_fleet_scrapes_total",
		"leed_fleet_scrape_errors_total",
		"leed_fleet_members",
		"leed_mgr_heartbeats_total",
		"leed_node_gets_total",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("aggregated page missing series %q:\n%s", series, out)
		}
	}
}
