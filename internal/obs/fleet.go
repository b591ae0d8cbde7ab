package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fleet aggregates the metrics of many processes into one cluster-wide
// view. Each member exports its registry in raw mergeable form
// (/metrics.raw.json); a poll loop feeds the scraped snapshots in through
// Update, and Raw merges them into one snapshot on demand:
//
//   - counters with the same series key sum across members,
//   - histograms with the same key merge bucket-by-bucket via the same
//     deterministic Histogram.Merge the in-process path uses (exact, unlike
//     combining quantile summaries),
//   - gauges are re-keyed with an instance label — a gauge like a view epoch
//     or queue depth has no meaningful cross-process sum.
//
// The aggregator's own registry is folded in as instance "manager", so
// fleet-health series (member count, scrape totals) and control-plane
// metrics appear on the same aggregated page.
type Fleet struct {
	self *Registry

	mu      sync.Mutex
	members map[string]RawSnapshot

	scrapes   *Counter
	scrapeErr *Counter
	mergeErr  *Counter
	memberG   *Gauge
}

// NewFleet returns a fleet folding self in as instance "manager". self may
// be nil (aggregation still works; health series go unregistered).
func NewFleet(self *Registry) *Fleet {
	return &Fleet{
		self:      self,
		members:   map[string]RawSnapshot{},
		scrapes:   self.Counter("leed_fleet_scrapes_total"),
		scrapeErr: self.Counter("leed_fleet_scrape_errors_total"),
		mergeErr:  self.Counter("leed_fleet_merge_errors_total"),
		memberG:   self.Gauge("leed_fleet_members"),
	}
}

// Update replaces instance's snapshot with a fresh scrape.
func (f *Fleet) Update(instance string, snap RawSnapshot) {
	f.mu.Lock()
	f.members[instance] = snap
	n := len(f.members)
	f.mu.Unlock()
	f.scrapes.Inc()
	f.memberG.Set(int64(n))
}

// Remove drops instance (a departed or unreachable member). Its last
// snapshot stops contributing to the merge.
func (f *Fleet) Remove(instance string) {
	f.mu.Lock()
	delete(f.members, instance)
	n := len(f.members)
	f.mu.Unlock()
	f.memberG.Set(int64(n))
}

// ScrapeError counts one failed member scrape.
func (f *Fleet) ScrapeError() { f.scrapeErr.Inc() }

// withInstance adds an instance label to a rendered label string, keeping
// the pair list sorted (the canonical form renderLabels produces).
func withInstance(labels, instance string) string {
	pair := fmt.Sprintf("instance=%q", instance)
	if labels == "" {
		return pair
	}
	parts := strings.Split(labels, ",")
	parts = append(parts, pair)
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Raw merges the latest member snapshots (plus the aggregator's own
// registry as instance "manager") into one cluster-wide snapshot, which
// every RawSnapshot renderer — Prometheus text, JSON summary, attribution
// table, raw dump — then serves unchanged.
func (f *Fleet) Raw() RawSnapshot {
	f.mu.Lock()
	members := make(map[string]RawSnapshot, len(f.members)+1)
	for name, snap := range f.members {
		members[name] = snap
	}
	f.mu.Unlock()
	if f.self != nil {
		members["manager"] = f.self.Raw()
	}

	merged := RawSnapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistDump{},
	}
	hists := map[string]*Histogram{}
	for instance, snap := range members {
		for key, v := range snap.Counters {
			merged.Counters[key] += v
		}
		for key, v := range snap.Gauges {
			name, labels := splitKey(key)
			merged.Gauges[promKey(name, withInstance(labels, instance), "")] = v
		}
		for key, d := range snap.Hists {
			h, err := HistFromDump(d)
			if err != nil {
				f.mergeErr.Inc()
				continue
			}
			if acc, ok := hists[key]; ok {
				acc.Merge(h)
			} else {
				hists[key] = h
			}
		}
	}
	for key, h := range hists {
		merged.Hists[key] = h.Dump()
	}
	return merged
}

// fetchClient bounds how long one member scrape may hang: a wedged member
// must not stall the poll loop past the next tick.
var fetchClient = &http.Client{Timeout: 2 * time.Second}

// FetchRaw scrapes one member's raw snapshot from its /metrics.raw.json URL.
func FetchRaw(url string) (RawSnapshot, error) {
	var snap RawSnapshot
	resp, err := fetchClient.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("obs: scrape %s: status %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("obs: scrape %s: %w", url, err)
	}
	return snap, nil
}
