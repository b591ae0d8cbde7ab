package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCumBuckets(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)          // <= 1024 (first edge)
	h.Record(3000)          // <= 4096
	h.Record(3100)          // <= 4096
	h.Record(5 * Second)    // ~5e9, <= 2^33
	h.Record(Time(1) << 62) // beyond every edge: only +Inf sees it
	cum := h.CumBuckets()

	if len(cum) != len(HistPromEdges) {
		t.Fatalf("got %d buckets, want %d", len(cum), len(HistPromEdges))
	}
	at := func(edge int64) int64 {
		for i, e := range HistPromEdges {
			if e == edge {
				return cum[i]
			}
		}
		t.Fatalf("no edge %d", edge)
		return 0
	}
	if got := at(1 << 10); got != 1 {
		t.Errorf("cum(1024) = %d, want 1", got)
	}
	if got := at(1 << 12); got != 3 {
		t.Errorf("cum(4096) = %d, want 3", got)
	}
	if got := at(1 << 33); got != 4 {
		t.Errorf("cum(2^33) = %d, want 4 (the 2^62 outlier is +Inf only)", got)
	}
	prev := int64(0)
	for i, c := range cum {
		if c < prev {
			t.Fatalf("cumulative counts decreased at edge %d: %d < %d", HistPromEdges[i], c, prev)
		}
		prev = c
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
}

func TestPrometheusBucketExport(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Hist("leed_bkt_ns", "dev", "ssd0")
	for i := 0; i < 10; i++ {
		hist.Record(Time(2000 + i))
	}
	var buf bytes.Buffer
	reg.Raw().WritePrometheus(&buf)
	page := buf.String()

	// The summary lines must still be there (pinned by older tests), and
	// every fixed edge plus +Inf must appear exactly once.
	for _, want := range []string{
		`leed_bkt_ns{dev="ssd0",quantile="0.5"}`,
		`leed_bkt_ns_count{dev="ssd0"} 10`,
		`leed_bkt_ns_bucket{dev="ssd0",le="+Inf"} 10`,
		fmt.Sprintf(`leed_bkt_ns_bucket{dev="ssd0",le="%d"} 0`, 1<<10),
		fmt.Sprintf(`leed_bkt_ns_bucket{dev="ssd0",le="%d"} 10`, 1<<12),
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	if got := strings.Count(page, "leed_bkt_ns_bucket{"); got != len(HistPromEdges)+1 {
		t.Errorf("got %d bucket lines, want %d", got, len(HistPromEdges)+1)
	}
}

// TestPrometheusPageConsistentUnderWrites renders pages while writers record
// into the histograms: every histogram on every page must have its _count
// equal to its le="+Inf" bucket, which holds only if a page reads each
// histogram once.
func TestPrometheusPageConsistentUnderWrites(t *testing.T) {
	reg := NewRegistry()
	hists := []*Hist{reg.Hist("leed_a_ns"), reg.Hist("leed_b_ns", "dev", "ssd0")}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				hists[(w+i)%len(hists)].Record(Time(1000 + i%5000))
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for page := 0; page < 300; page++ {
		var buf bytes.Buffer
		reg.Raw().WritePrometheus(&buf)
		count := map[string]string{}
		inf := map[string]string{}
		for _, line := range strings.Split(buf.String(), "\n") {
			key, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			name, labels := splitKey(key)
			switch {
			case strings.HasSuffix(name, "_count"):
				count[strings.TrimSuffix(name, "_count")+"{"+labels+"}"] = val
			case strings.HasSuffix(name, "_bucket") && strings.HasSuffix(labels, `le="+Inf"`):
				labels = strings.TrimSuffix(strings.TrimSuffix(labels, `le="+Inf"`), ",")
				inf[strings.TrimSuffix(name, "_bucket")+"{"+labels+"}"] = val
			}
		}
		if len(count) != len(hists) {
			t.Fatalf("page %d: %d _count lines, want %d:\n%s", page, len(count), len(hists), buf.String())
		}
		for name, c := range count {
			if inf[name] != c {
				t.Fatalf("page %d: %s _count %s != le=\"+Inf\" %s", page, name, c, inf[name])
			}
		}
	}
}
