package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"leed/internal/flashsim"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
)

// The runtime-seam acceptance test: the same Store code, driven with the
// same operation sequence, must leave identical KV contents whether it runs
// on the deterministic sim kernel or on real goroutines.

func equivStore(env runtime.Env) *Store {
	return NewStore(Config{
		Env:         env,
		Device:      flashsim.NewMemDevice(env, 16<<20),
		NumSegments: 64,
		KeyLogBytes: 4 << 20,
		ValLogBytes: 8 << 20,
	})
}

type kvOp struct {
	kind byte // 'P', 'D', 'G'
	key  string
	val  string
}

// equivOps builds a fixed mixed sequence: puts, overwrites, deletes, gets.
func equivOps(tag string, n int) []kvOp {
	ops := make([]kvOp, 0, n)
	state := uint64(12345)
	next := func(mod uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-key-%03d", tag, next(40))
		switch next(10) {
		case 0, 1, 2, 3, 4, 5:
			ops = append(ops, kvOp{kind: 'P', key: key, val: fmt.Sprintf("val-%s-%d", key, i)})
		case 6, 7:
			ops = append(ops, kvOp{kind: 'G', key: key})
		default:
			ops = append(ops, kvOp{kind: 'D', key: key})
		}
	}
	return ops
}

// applyOps runs the sequence on a task, recording each GET observation.
func applyOps(t *testing.T, p runtime.Task, s *Store, ops []kvOp) []string {
	t.Helper()
	var gets []string
	for _, op := range ops {
		switch op.kind {
		case 'P':
			if _, err := s.Put(p, []byte(op.key), []byte(op.val)); err != nil {
				t.Errorf("put %s: %v", op.key, err)
			}
		case 'D':
			if _, err := s.Del(p, []byte(op.key)); err != nil && err != ErrNotFound {
				t.Errorf("del %s: %v", op.key, err)
			}
		case 'G':
			v, _, err := s.Get(p, []byte(op.key))
			switch err {
			case nil:
				gets = append(gets, op.key+"="+string(v))
			case ErrNotFound:
				gets = append(gets, op.key+"=<missing>")
			default:
				t.Errorf("get %s: %v", op.key, err)
			}
		}
	}
	return gets
}

// dumpContents collects the full KV contents, sorted by key.
func dumpContents(t *testing.T, p runtime.Task, s *Store) []string {
	t.Helper()
	var kv []string
	if err := s.Range(p, func(key, val []byte) bool {
		kv = append(kv, string(key)+"="+string(val))
		return true
	}); err != nil {
		t.Errorf("range: %v", err)
	}
	sort.Strings(kv)
	return kv
}

func TestStoreEquivalenceSimVsWallclock(t *testing.T) {
	ops := equivOps("eq", 400)

	// Sim backend: one proc on a kernel.
	var simGets, simKV []string
	k := sim.New()
	ss := equivStore(k)
	k.Go("ops", func(p *sim.Proc) {
		simGets = applyOps(t, p, ss, ops)
		simKV = dumpContents(t, p, ss)
	})
	k.Run()
	k.Close()

	// Wall-clock backend: one task on real goroutines.
	var wcGets, wcKV []string
	env := wallclock.New()
	ws := equivStore(env)
	env.Spawn("ops", func(p runtime.Task) {
		wcGets = applyOps(t, p, ws, ops)
		wcKV = dumpContents(t, p, ws)
	})
	env.Wait()

	if len(simKV) == 0 {
		t.Fatal("sim run left an empty store; sequence is not exercising anything")
	}
	if fmt.Sprint(simGets) != fmt.Sprint(wcGets) {
		t.Errorf("GET observations diverge:\nsim: %v\nwc:  %v", simGets, wcGets)
	}
	if fmt.Sprint(simKV) != fmt.Sprint(wcKV) {
		t.Errorf("final contents diverge:\nsim: %v\nwc:  %v", simKV, wcKV)
	}
}

// TestWallclockConcurrentClients hammers one store from 8 concurrent client
// tasks on disjoint keyspaces. Under -race this is the proof that the
// wallclock backend's execution contract makes the unlocked store safe; the
// per-client sequences are deterministic, so final contents are checkable
// even though the interleaving is not.
func TestWallclockConcurrentClients(t *testing.T) {
	const clients = 8
	env := wallclock.New()
	s := equivStore(env)

	perClient := make([][]kvOp, clients)
	for c := range perClient {
		perClient[c] = equivOps(fmt.Sprintf("c%d", c), 150)
	}

	for c := 0; c < clients; c++ {
		c := c
		env.Spawn("client", func(p runtime.Task) {
			applyOps(t, p, s, perClient[c])
		})
	}
	env.Wait()

	// Expected contents: replay each client's sequence against a plain map
	// (keyspaces are disjoint, so per-key order is each client's own).
	want := map[string]string{}
	for _, ops := range perClient {
		for _, op := range ops {
			switch op.kind {
			case 'P':
				want[op.key] = op.val
			case 'D':
				delete(want, op.key)
			}
		}
	}
	var wantKV []string
	for k, v := range want {
		wantKV = append(wantKV, k+"="+v)
	}
	sort.Strings(wantKV)

	// Collect on a fresh task after all clients finished.
	var gotKV []string
	env.Spawn("dump", func(p runtime.Task) {
		gotKV = dumpContents(t, p, s)
	})
	env.Wait()

	if !equalStrings(gotKV, wantKV) {
		t.Errorf("contents after %d concurrent clients diverge from replay:\ngot %d entries, want %d",
			clients, len(gotKV), len(wantKV))
		for i := 0; i < len(gotKV) && i < len(wantKV); i++ {
			if gotKV[i] != wantKV[i] {
				t.Errorf("first divergence: got %q want %q", gotKV[i], wantKV[i])
				break
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWallclockRecoveryRoundTrip checks the superblock flush/recover path on
// the wall-clock backend against an image file, mirroring what leedctl
// serve does between invocations.
func TestWallclockRecoveryRoundTrip(t *testing.T) {
	img := t.TempDir() + "/store.img"
	open := func(env runtime.Env) (*Store, *flashsim.AsyncFileDevice) {
		dev, err := flashsim.OpenAsyncFileDevice(env, img, 16<<20, flashsim.AsyncOptions{})
		if err != nil {
			t.Fatalf("open image: %v", err)
		}
		return NewStore(Config{
			Env:         env,
			Device:      dev,
			NumSegments: 64,
			KeyLogBytes: 4 << 20,
			ValLogBytes: 8 << 20,
		}), dev
	}

	env := wallclock.New()
	s, dev := open(env)
	env.Spawn("writer", func(p runtime.Task) {
		if _, err := s.Recover(p); err != nil {
			t.Errorf("recover empty: %v", err)
		}
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("persist-%02d", i))
			if _, err := s.Put(p, key, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		if err := s.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	env.Wait()
	if err := dev.Close(); err != nil {
		t.Fatalf("close image: %v", err)
	}

	env2 := wallclock.New()
	s2, dev2 := open(env2)
	env2.Spawn("reader", func(p runtime.Task) {
		n, err := s2.Recover(p)
		if err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if n == 0 {
			t.Error("recover found no segments")
		}
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("persist-%02d", i))
			v, _, err := s2.Get(p, key)
			if err != nil {
				t.Errorf("get %s after recover: %v", key, err)
				continue
			}
			if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 32)) {
				t.Errorf("value mismatch for %s", key)
			}
		}
	})
	env2.Wait()
	if err := dev2.Close(); err != nil {
		t.Fatalf("close image 2: %v", err)
	}
}

// TestStoreEquivalenceAsyncDevice repeats the sim-vs-wallclock equivalence
// check over the submission-queue device: same op sequence, one run per
// backend, each on its own image file — identical GET observations and
// final contents. This pins down that doorbell batching, coalescing, and
// offloaded completion do not change what the store does, only when.
func TestStoreEquivalenceAsyncDevice(t *testing.T) {
	ops := equivOps("aeq", 400)
	dir := t.TempDir()

	asyncStore := func(env runtime.Env, img string) (*Store, *flashsim.AsyncFileDevice) {
		dev, err := flashsim.OpenAsyncFileDevice(env, img, 16<<20, flashsim.AsyncOptions{})
		if err != nil {
			t.Fatalf("open image: %v", err)
		}
		return NewStore(Config{
			Env:         env,
			Device:      dev,
			NumSegments: 64,
			KeyLogBytes: 4 << 20,
			ValLogBytes: 8 << 20,
		}), dev
	}

	var simGets, simKV []string
	k := sim.New()
	ss, sdev := asyncStore(k, dir+"/sim.img")
	k.Go("ops", func(p *sim.Proc) {
		simGets = applyOps(t, p, ss, ops)
		simKV = dumpContents(t, p, ss)
	})
	k.Run()
	k.Close()
	if err := sdev.Close(); err != nil {
		t.Fatal(err)
	}

	var wcGets, wcKV []string
	env := wallclock.New()
	ws, wdev := asyncStore(env, dir+"/wc.img")
	env.Spawn("ops", func(p runtime.Task) {
		wcGets = applyOps(t, p, ws, ops)
		wcKV = dumpContents(t, p, ws)
	})
	env.Wait()
	if err := wdev.Close(); err != nil {
		t.Fatal(err)
	}

	if len(simKV) == 0 {
		t.Fatal("sim run left an empty store; sequence is not exercising anything")
	}
	if fmt.Sprint(simGets) != fmt.Sprint(wcGets) {
		t.Errorf("GET observations diverge:\nsim: %v\nwc:  %v", simGets, wcGets)
	}
	if fmt.Sprint(simKV) != fmt.Sprint(wcKV) {
		t.Errorf("final contents diverge:\nsim: %v\nwc:  %v", simKV, wcKV)
	}
	if sdev.Stats().Batches == 0 {
		t.Error("sim run never used the submission queue")
	}
}
