package flashsim

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
)

// submitAll queues every op before yielding, so ops beyond the free worker
// slots pile up in the submission queue, then waits for each completion in
// order.
func submitAll(p *sim.Proc, d Device, ops []*Op) []error {
	for _, op := range ops {
		op.Done = p.Kernel().NewEvent()
		d.Submit(op)
	}
	errs := make([]error, len(ops))
	for i, op := range ops {
		if v := p.Wait(op.Done); v != nil {
			errs[i] = v.(error)
		}
	}
	return errs
}

func TestAsyncFileDevicePersistsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	{
		k := sim.New()
		d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k.Go("io", func(p *sim.Proc) {
			if err := doIO(p, d, OpWrite, 4096, []byte("persistent")); err != nil {
				t.Errorf("write: %v", err)
			}
		})
		k.Run()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		k.Close()
	}
	// A fresh device on a fresh kernel reads what the first one wrote.
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, 10)
	k.Go("io", func(p *sim.Proc) {
		if err := doIO(p, d, OpRead, 4096, buf); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	if string(buf) != "persistent" {
		t.Fatalf("read back %q", buf)
	}
}

// TestFileDevicePersistsAcrossOpens checks the image across backends, the
// path leedctl takes: a device on the wallclock backend writes and closes,
// and a device on the sim kernel reopens the same file and reads it back.
func TestFileDevicePersistsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	payload := []byte("persistent")
	{
		env := wallclock.New()
		d, err := OpenAsyncFileDevice(env, path, 1<<20, AsyncOptions{})
		if err != nil {
			t.Fatal(err)
		}
		env.Spawn("io", func(p runtime.Task) {
			op := &Op{Kind: OpWrite, Offset: 8192, Data: payload, Done: env.MakeEvent()}
			d.Submit(op)
			if v := p.Wait(op.Done); v != nil {
				t.Errorf("write: %v", v)
			}
		})
		env.Wait()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, len(payload))
	k.Go("io", func(p *sim.Proc) {
		if err := doIO(p, d, OpRead, 8192, buf); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	if !bytes.Equal(buf, payload) {
		t.Fatalf("read back %q", buf)
	}
}

// TestFileDeviceRangeCheck covers the bounds TestAsyncFileDeviceRangeCheck
// does not: reads past the end and negative offsets fail, while an op that
// ends exactly at capacity succeeds.
func TestFileDeviceRangeCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 4096, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var readPastEnd, negative, atEnd, readAtEnd error
	k.Go("io", func(p *sim.Proc) {
		readPastEnd = doIO(p, d, OpRead, 4000, make([]byte, 200))
		negative = doIO(p, d, OpWrite, -1, make([]byte, 8))
		atEnd = doIO(p, d, OpWrite, 4096-8, []byte("lastbyte"))
		readAtEnd = doIO(p, d, OpRead, 4096-8, make([]byte, 8))
	})
	k.Run()
	if readPastEnd == nil {
		t.Error("out-of-range read accepted")
	}
	if negative == nil {
		t.Error("negative-offset write accepted")
	}
	if atEnd != nil || readAtEnd != nil {
		t.Errorf("ops ending at capacity refused: write=%v read=%v", atEnd, readAtEnd)
	}
}

func TestAsyncFileDeviceCoalescesAdjacentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	// One worker: the first write dispatches alone, the rest pile up behind
	// it and ride out as a single coalesced batch.
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 8
	var want bytes.Buffer
	ops := make([]*Op, n)
	for i := range ops {
		data := bytes.Repeat([]byte{byte('a' + i)}, 512)
		want.Write(data)
		ops[i] = &Op{Kind: OpWrite, Offset: int64(i * 512), Data: data}
	}
	got := make([]byte, n*512)
	k.Go("io", func(p *sim.Proc) {
		for _, err := range submitAll(p, d, ops) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		}
		if err := doIO(p, d, OpRead, 0, got); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("coalesced writes read back wrong")
	}
	st := d.Stats()
	// Write 0 dispatched immediately to the lone worker; writes 1..7 queued
	// behind it and were taken as one batch, one syscall: 6 rode along. The
	// read-back is the third batch.
	if st.Coalesced != n-2 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, n-2)
	}
	if st.Batches != 3 {
		t.Errorf("Batches = %d, want 3", st.Batches)
	}
	if st.Writes != n {
		t.Errorf("Writes = %d, want %d", st.Writes, n)
	}
	if st.MaxQueue < n {
		t.Errorf("MaxQueue = %d, want >= %d", st.MaxQueue, n)
	}
}

func TestAsyncFileDeviceFlushIsBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{Workers: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// 6 writes split over 3 batches (MaxBatch 2), then a flush, then one
	// more write. The flush must complete after every earlier write and
	// before the later one.
	var order []string
	track := func(name string, op *Op) *Op {
		op.Done = k.NewEvent()
		op.Done.OnFire(func(any) { order = append(order, name) })
		return op
	}
	k.Go("io", func(p *sim.Proc) {
		var last *Op
		for i := 0; i < 6; i++ {
			d.Submit(track(fmt.Sprintf("w%d", i), &Op{
				Kind: OpWrite, Offset: int64(i * 1024), Data: make([]byte, 512),
			}))
		}
		fl := track("flush", &Op{Kind: OpFlush})
		d.Submit(fl)
		last = track("after", &Op{Kind: OpWrite, Offset: 0, Data: []byte{1}})
		d.Submit(last)
		p.Wait(last.Done)
	})
	k.Run()
	if len(order) != 8 {
		t.Fatalf("completions = %v", order)
	}
	if order[6] != "flush" || order[7] != "after" {
		t.Fatalf("flush did not act as a barrier: %v", order)
	}
	if d.Stats().Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", d.Stats().Flushes)
	}
}

func TestAsyncFileDeviceOverlapKeepsSubmitOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	// Workers > 1 so only the conflict check, not a single-lane queue,
	// enforces ordering.
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{Workers: 4, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	got := make([]byte, 4)
	k.Go("io", func(p *sim.Proc) {
		ops := []*Op{
			{Kind: OpWrite, Offset: 0, Data: []byte("old!")},
			{Kind: OpWrite, Offset: 0, Data: []byte("new!")},
			{Kind: OpRead, Offset: 0, Data: got},
		}
		for _, err := range submitAll(p, d, ops) {
			if err != nil {
				t.Errorf("io: %v", err)
			}
		}
	})
	k.Run()
	if string(got) != "new!" {
		t.Fatalf("overlapping writes reordered: read %q", got)
	}
}

func TestAsyncFileDeviceRangeCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 4096, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var ioErr error
	k.Go("io", func(p *sim.Proc) {
		ioErr = doIO(p, d, OpWrite, 4000, make([]byte, 200))
	})
	k.Run()
	if ioErr == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestAsyncFileDeviceSparseReadsZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<30, AsyncOptions{}) // 1GiB advertised, nothing written
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := []byte{0xff, 0xff, 0xff, 0xff}
	k.Go("io", func(p *sim.Proc) {
		if err := doIO(p, d, OpRead, 512<<20, buf); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("sparse read = %v", buf)
		}
	}
}

// TestAsyncFileDeviceLatencyMeasuredFromSubmit pins the stats fix: latency is
// submit-to-complete, not absolute completion time. On the sim backend a
// file op completes in the same instant it was submitted (Offload is a
// zero-delay event there), so after
// letting virtual time advance first, a recorded latency other than zero
// means the op's submit time was never captured.
func TestAsyncFileDeviceLatencyMeasuredFromSubmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	k.Go("io", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond) // move the clock away from zero
		if err := doIO(p, d, OpWrite, 0, []byte("timed")); err != nil {
			t.Errorf("write: %v", err)
		}
		buf := make([]byte, 5)
		if err := doIO(p, d, OpRead, 0, buf); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	k.Run()
	st := d.Stats()
	if st.WriteLat.Max() != 0 || st.ReadLat.Max() != 0 {
		t.Fatalf("latency includes absolute time: writeMax=%v readMax=%v",
			st.WriteLat.Max(), st.ReadLat.Max())
	}
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("ops not recorded: %+v", st)
	}
	if st.MaxQueue == 0 {
		t.Fatal("MaxQueue never tracked")
	}
}

// TestAsyncFileDeviceWallclockConcurrent drives the device from 8 concurrent
// wallclock tasks on disjoint regions. Under -race this is the proof that
// the offload pool keeps batch execution off the runtime lock safely.
func TestAsyncFileDeviceWallclockConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	env := wallclock.New()
	d, err := OpenAsyncFileDevice(env, path, 1<<20, AsyncOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 8, 25
	for c := 0; c < clients; c++ {
		c := c
		env.Spawn("client", func(p runtime.Task) {
			base := int64(c) * 4096
			for r := 0; r < rounds; r++ {
				data := bytes.Repeat([]byte{byte(c*31 + r)}, 512)
				wop := &Op{Kind: OpWrite, Offset: base, Data: data, Done: env.MakeEvent()}
				d.Submit(wop)
				if v := p.Wait(wop.Done); v != nil {
					t.Errorf("client %d write: %v", c, v)
					return
				}
				got := make([]byte, 512)
				rop := &Op{Kind: OpRead, Offset: base, Data: got, Done: env.MakeEvent()}
				d.Submit(rop)
				if v := p.Wait(rop.Done); v != nil {
					t.Errorf("client %d read: %v", c, v)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("client %d round %d read back wrong bytes", c, r)
					return
				}
			}
		})
	}
	env.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != clients*rounds || st.Reads != clients*rounds {
		t.Fatalf("stats lost ops: %+v", st)
	}
}

// TestAsyncFileDeviceDispatchAllocs pins the dispatch path's allocations on
// the wallclock backend: once warm, one write's submit→complete round
// allocates only what the caller brings — the op and its completion event.
// Batches, their Offload callbacks, the submission queues and the offload
// job queue are all recycled.
func TestAsyncFileDeviceDispatchAllocs(t *testing.T) {
	env := wallclock.New()
	d, err := OpenAsyncFileDevice(env, filepath.Join(t.TempDir(), "dev.img"), 1<<20, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := make([]byte, 4096)
	var got float64
	env.Spawn("io", func(p runtime.Task) {
		round := func() {
			op := &Op{Kind: OpWrite, Offset: 8192, Data: data, Done: env.MakeEvent()}
			d.Submit(op)
			if v := p.Wait(op.Done); v != nil {
				t.Errorf("write: %v", v)
			}
		}
		for i := 0; i < 50; i++ {
			round()
		}
		got = testing.AllocsPerRun(300, round)
	})
	env.Wait()
	if got > 2 {
		t.Errorf("write round = %.1f allocs, want <= 2 (the op and its event)", got)
	}
}
