package flashsim

import (
	"bytes"
	"path/filepath"
	"testing"

	"leed/internal/sim"
)

// TestMmapReadLaneCoherent pins the inline read contract on the file
// device: after a write completes, TryReadAt returns the written bytes
// (MAP_SHARED coherence with pwrite), unwritten sparse regions read as
// zeros, and out-of-range reads decline rather than fault.
func TestMmapReadLaneCoherent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SetSyncReads(true); err != nil {
		t.Fatal(err)
	}

	payload := []byte("mmap-coherent-bytes")
	k.Go("io", func(p *sim.Proc) {
		if err := doIO(p, d, OpWrite, 8192, payload); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	k.Run()

	got := make([]byte, len(payload))
	if !d.TryReadAt(got, 8192) {
		t.Fatal("inline read declined on an idle device")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("inline read %q, want %q", got, payload)
	}

	hole := make([]byte, 64)
	hole[0] = 0xFF // must be overwritten by the zero-filled read
	if !d.TryReadAt(hole, 1<<19) {
		t.Fatal("inline read of a sparse hole declined")
	}
	for i, b := range hole {
		if b != 0 {
			t.Fatalf("sparse hole byte %d = %#x, want 0", i, b)
		}
	}

	if d.TryReadAt(make([]byte, 16), 1<<20-8) {
		t.Fatal("inline read past capacity must decline")
	}
	if d.TryReadAt(make([]byte, 16), -1) {
		t.Fatal("inline read at negative offset must decline")
	}

	if got := d.Stats().Reads; got != 2 {
		t.Fatalf("inline reads recorded %d, want 2", got)
	}
}

// TestMmapReadLaneOrdering pins the decline conditions that keep inline
// reads consistent with the submission queue's ordering guarantees: a read
// overlapping a queued write must wait for that write's bytes, and a device
// with sync reads off (or never enabled) serves nothing inline.
func TestMmapReadLaneOrdering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	k := sim.New()
	defer k.Close()
	d, err := OpenAsyncFileDevice(k, path, 1<<20, AsyncOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if d.TryReadAt(make([]byte, 8), 0) {
		t.Fatal("inline read must decline before SetSyncReads(true)")
	}
	if err := d.SetSyncReads(true); err != nil {
		t.Fatal(err)
	}

	k.Go("io", func(p *sim.Proc) {
		// Two writes: the first occupies the lone worker, the second sits in
		// the ordered queue. An inline read overlapping the queued write must
		// decline (it would otherwise see pre-write bytes); a read elsewhere
		// is free to proceed.
		first := &Op{Kind: OpWrite, Offset: 0, Data: []byte("head"), Done: p.Kernel().NewEvent()}
		second := &Op{Kind: OpWrite, Offset: 4096, Data: []byte("tail"), Done: p.Kernel().NewEvent()}
		d.Submit(first)
		d.Submit(second)
		if d.TryReadAt(make([]byte, 8), 4096) {
			t.Error("inline read overlapping a queued write must decline")
		}
		if !d.TryReadAt(make([]byte, 8), 1<<18) {
			t.Error("inline read clear of all queued writes must proceed")
		}
		p.Wait(first.Done)
		p.Wait(second.Done)
		// Queue drained: the overlap now reads the landed bytes.
		got := make([]byte, 4)
		if !d.TryReadAt(got, 4096) {
			t.Error("inline read declined on an idle device")
		} else if string(got) != "tail" {
			t.Errorf("inline read %q after write completion, want %q", got, "tail")
		}
	})
	k.Run()

	d.SetSyncReads(false)
	if d.TryReadAt(make([]byte, 8), 0) {
		t.Fatal("inline read must decline after SetSyncReads(false)")
	}
}
