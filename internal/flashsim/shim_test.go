package flashsim

import (
	"testing"

	"leed/internal/sim"
)

func TestLatencyShimAddsServiceTime(t *testing.T) {
	k := sim.New()
	defer k.Close()
	spec := SamsungDCT983(1 << 20)
	spec.Jitter = 0
	d := NewLatencyShim(k, NewMemDevice(k, 1<<20), spec)
	var lat sim.Time
	var got []byte
	k.Go("io", func(p *sim.Proc) {
		if err := doIO(p, d, OpWrite, 0, []byte("shimmed")); err != nil {
			t.Errorf("write: %v", err)
		}
		t0 := p.Now()
		got = make([]byte, 7)
		if err := doIO(p, d, OpRead, 0, got); err != nil {
			t.Errorf("read: %v", err)
		}
		lat = p.Now() - t0
	})
	k.Run()
	if string(got) != "shimmed" {
		t.Fatalf("data through shim corrupted: %q", got)
	}
	if lat < 40*sim.Microsecond {
		t.Fatalf("shim read latency = %v, want >= ReadBase", lat)
	}
}

func TestLatencyShimBoundsConcurrency(t *testing.T) {
	k := sim.New()
	defer k.Close()
	spec := SamsungDCT983(1 << 20)
	spec.Jitter = 0
	spec.Parallelism = 2
	d := NewLatencyShim(k, NewMemDevice(k, 1<<20), spec)
	const n = 10
	done := 0
	for i := 0; i < n; i++ {
		off := int64(i * 512)
		k.Go("io", func(p *sim.Proc) {
			doIO(p, d, OpRead, off, make([]byte, 512))
			done++
		})
	}
	end := k.Run()
	if done != n {
		t.Fatalf("completed %d", done)
	}
	// 10 reads, 2 at a time, ~56us each -> ~280us.
	if end < 250*sim.Microsecond {
		t.Fatalf("10 reads at parallelism 2 finished in %v", end)
	}
}
