package power

import (
	"strings"
	"testing"

	"leed/internal/obs"
)

// TestProcessMeterSeriesGolden pins the wallclock energy series names every
// proc role exports — the names the fleet merge sums cluster-wide and the CI
// smoke greps on the manager's aggregated /metrics. Renaming any of these is
// a cross-layer change (CI, DESIGN.md §15, bench docs), so it must fail
// loudly here first.
func TestProcessMeterSeriesGolden(t *testing.T) {
	reg := obs.NewRegistry()
	cpu := 0.0
	m := NewProcessMeter(reg, ProcessConfig{
		Interval: -1, // no sampling goroutine; the test steps explicitly
		ReadCPU:  func() (float64, bool) { return cpu, true },
	})
	cpu = 0.25 // a quarter core-second of busy time since the baseline
	reg.Counter("leed_device_reads_total", "dev", "ssd0").Add(1000)
	reg.Counter("leed_device_writes_total", "dev", "ssd0").Add(500)
	m.Sample()
	m.Close()

	var b strings.Builder
	reg.Raw().WritePrometheus(&b)
	out := b.String()
	for _, series := range []string{
		"leed_power_joules_total",
		"leed_power_millijoules_total",
		"leed_power_cpu_busy_ms_total",
		"leed_power_avg_watts",
		"leed_power_milliwatts",
		`leed_power_component_millijoules_total{comp="idle"}`,
		`leed_power_component_millijoules_total{comp="cpu"}`,
		`leed_power_component_millijoules_total{comp="flash_read"}`,
		`leed_power_component_millijoules_total{comp="flash_write"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("registry missing power series %q:\n%s", series, out)
		}
	}
}

// TestProcessMeterEnergyModel checks the three-term model arithmetic with a
// deterministic CPU source: cpu and device terms are exact (wall time only
// feeds the idle term, which the assertions bracket rather than pin).
func TestProcessMeterEnergyModel(t *testing.T) {
	reg := obs.NewRegistry()
	cpu := 0.0
	m := NewProcessMeter(reg, ProcessConfig{
		IdleW:    2.0,
		CPUW:     4.0,
		ReadJ:    1e-3,
		WriteJ:   2e-3,
		Interval: -1,
		ReadCPU:  func() (float64, bool) { return cpu, true },
	})
	cpu = 2.0                                                     // 2 core-seconds → 4.0·2 = 8 J
	reg.Counter("leed_device_reads_total").Add(3000)              // 3000·1mJ = 3 J
	reg.Counter("leed_device_writes_total", "dev", "s1").Add(500) // 500·2mJ = 1 J
	m.Sample()
	m.Close()

	snap := reg.Snapshot()
	if got := snap.Counters["leed_power_cpu_busy_ms_total"]; got != 2000 {
		t.Errorf("cpu busy ms = %d, want 2000", got)
	}
	if got := snap.Counters[`leed_power_component_millijoules_total{comp="cpu"}`]; got != 8000 {
		t.Errorf("cpu component = %d mJ, want 8000", got)
	}
	if got := snap.Counters[`leed_power_component_millijoules_total{comp="flash_read"}`]; got != 3000 {
		t.Errorf("flash_read component = %d mJ, want 3000", got)
	}
	if got := snap.Counters[`leed_power_component_millijoules_total{comp="flash_write"}`]; got != 1000 {
		t.Errorf("flash_write component = %d mJ, want 1000", got)
	}
	// Total ≥ the deterministic terms; the idle term adds the wall time the
	// test took (tiny but nonzero).
	total := snap.Counters["leed_power_millijoules_total"]
	if total < 12000 {
		t.Errorf("total = %d mJ, want ≥ 12000 (cpu+flash terms)", total)
	}
	idle := snap.Counters[`leed_power_component_millijoules_total{comp="idle"}`]
	if deterministic := total - idle; deterministic != 12000 {
		t.Errorf("total-idle = %d mJ, want exactly 12000", deterministic)
	}
	if got := snap.Counters["leed_power_joules_total"]; got != total/1000 {
		t.Errorf("joules = %d, want mJ/1000 = %d", got, total/1000)
	}
}

// TestProcessMeterNoCPUSource degrades gracefully on platforms without
// /proc: the cpu term reads zero, everything else still accounts.
func TestProcessMeterNoCPUSource(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewProcessMeter(reg, ProcessConfig{
		Interval: -1,
		ReadCPU:  func() (float64, bool) { return 0, false },
	})
	reg.Counter("leed_device_reads_total").Add(100)
	m.Sample()
	m.Close()
	snap := reg.Snapshot()
	if got := snap.Counters[`leed_power_component_millijoules_total{comp="cpu"}`]; got != 0 {
		t.Errorf("cpu component = %d, want 0 without a CPU source", got)
	}
	if got := snap.Counters[`leed_power_component_millijoules_total{comp="flash_read"}`]; got != 3 {
		t.Errorf("flash_read = %d mJ, want 3 (100 · 35µJ)", got)
	}
}
