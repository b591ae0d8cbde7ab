package server_test

import (
	"errors"
	"testing"

	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/sim"
	"leed/internal/transport"
)

// batchEnv runs a client task against a fresh server and engine on one
// backend. run must return once the task has finished.
type batchEnv struct {
	name string
	sim  bool
	run  func(t *testing.T, slow bool, cfg server.Config, fn func(p runtime.Task, srv *server.Server, cl *server.Client, inp *transport.Inproc))
}

var batchEnvs = []batchEnv{
	{name: "sim", sim: true, run: func(t *testing.T, slow bool, cfg server.Config, fn func(runtime.Task, *server.Server, *server.Client, *transport.Inproc)) {
		k := sim.New()
		defer k.Close()
		serveBatchTest(t, k, slow, cfg, fn)
		k.Run()
	}},
	{name: "wallclock", run: func(t *testing.T, slow bool, cfg server.Config, fn func(runtime.Task, *server.Server, *server.Client, *transport.Inproc)) {
		env := wallclock.New()
		serveBatchTest(t, env, slow, cfg, fn)
		env.Wait()
	}},
}

// serveBatchTest builds the server over an inproc transport on env and
// spawns one client task that runs fn, then closes client and server.
func serveBatchTest(t *testing.T, env runtime.Env, slow bool, cfg server.Config, fn func(runtime.Task, *server.Server, *server.Client, *transport.Inproc)) {
	cfg.Env, cfg.Engine = env, newTestEngine(env, slow)
	srv := server.New(cfg)
	inp := transport.NewInproc(env, transport.InprocOptions{})
	srv.Serve(inp)
	env.Spawn("client", func(p runtime.Task) {
		defer srv.Close()
		conn, err := inp.Dial(p)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		cl := server.NewClient(env, conn, 8)
		defer cl.Close()
		fn(p, srv, cl, inp)
	})
}

// keysPerPartition returns n keys on each of the server's partitions, as
// [partition][i].
func keysPerPartition(srv *server.Server, n int) [][][]byte {
	out := make([][][]byte, srv.NumPartitions())
	for i, full := 0, 0; full < len(out); i++ {
		k := testKey(i)
		pid := srv.Route(k)
		if len(out[pid]) < n {
			if out[pid] = append(out[pid], k); len(out[pid]) == n {
				full++
			}
		}
	}
	return out
}

// nopHandler makes a server a cluster-style node, which refuses batches.
type nopHandler struct{}

func (nopHandler) Handle(runtime.Task, bool, *rpcproto.Request, *rpcproto.Response, []byte, *obs.Trace) []byte {
	return nil
}

// TestBatchPath covers MultiGet, MultiPut and MultiDel end to end over the
// inproc transport, on both backends.
func TestBatchPath(t *testing.T) {
	cases := []struct {
		name    string
		cfg     server.Config
		slow    bool
		simOnly bool
		fn      func(t *testing.T, p runtime.Task, srv *server.Server, cl *server.Client, inp *transport.Inproc)
	}{
		{
			// Items interleave every partition and alternate stored and
			// never-stored keys; results come back in item order.
			name: "multiget-item-order",
			fn: func(t *testing.T, p runtime.Task, srv *server.Server, cl *server.Client, _ *transport.Inproc) {
				parts := keysPerPartition(srv, 4)
				var keys, stored, vals [][]byte
				var want []rpcproto.Status
				for i := 0; i < 4; i++ {
					for pid := range parts {
						keys = append(keys, parts[pid][i])
						if (i+pid)%2 == 0 {
							stored = append(stored, parts[pid][i])
							vals = append(vals, testVal(len(keys)))
							want = append(want, rpcproto.StatusOK)
						} else {
							want = append(want, rpcproto.StatusNotFound)
						}
					}
				}
				if _, err := cl.MultiPut(p, stored, vals, nil); err != nil {
					t.Errorf("MultiPut: %v", err)
					return
				}
				items, err := cl.MultiGet(p, keys, nil)
				if err != nil || len(items) != len(keys) {
					t.Errorf("MultiGet: %d items, err %v; want %d items", len(items), err, len(keys))
					return
				}
				for i, it := range items {
					if it.Status != want[i] {
						t.Errorf("item %d (%s): status %v, want %v", i, keys[i], it.Status, want[i])
					}
					if want[i] == rpcproto.StatusOK && string(it.Value) != string(testVal(i+1)) {
						t.Errorf("item %d (%s): wrong value", i, keys[i])
					}
				}
				// Reusing the result: each value lands in the buffer the
				// item at its index held, and a miss comes back empty where
				// a hit's bytes were.
				rot := make([][]byte, len(keys))
				for i := range keys {
					rot[i] = keys[(i+1)%len(keys)]
				}
				items, err = cl.MultiGet(p, rot, items[:0])
				if err != nil || len(items) != len(keys) {
					t.Errorf("reused MultiGet: %d items, err %v; want %d items", len(items), err, len(keys))
					return
				}
				for i, it := range items {
					j := (i + 1) % len(keys)
					switch {
					case it.Status != want[j]:
						t.Errorf("reused item %d (%s): status %v, want %v", i, rot[i], it.Status, want[j])
					case want[j] == rpcproto.StatusOK && string(it.Value) != string(testVal(j+1)):
						t.Errorf("reused item %d (%s): wrong value", i, rot[i])
					case want[j] != rpcproto.StatusOK && len(it.Value) != 0:
						t.Errorf("reused item %d (%s): miss carries %d stale bytes", i, rot[i], len(it.Value))
					}
				}
			},
		},
		{
			// Reads run on the connection task: serving MultiGets (and
			// GETs) starts no worker.
			name: "multiget-runs-inline",
			fn: func(t *testing.T, p runtime.Task, srv *server.Server, cl *server.Client, _ *transport.Inproc) {
				keys := [][]byte{testKey(1), testKey(2), testKey(3)}
				for i := 0; i < 3; i++ {
					if _, err := cl.MultiGet(p, keys, nil); err != nil {
						t.Errorf("MultiGet: %v", err)
					}
				}
				if n := srv.Workers(); n != 0 {
					t.Errorf("MultiGets started %d workers, want 0", n)
				}
			},
		},
		{
			// The client answers an empty batch itself; a raw empty batch
			// frame reaches the server, which answers with zero items.
			name: "empty-batch",
			fn: func(t *testing.T, p runtime.Task, _ *server.Server, cl *server.Client, inp *transport.Inproc) {
				if items, err := cl.MultiGet(p, nil, nil); err != nil || len(items) != 0 {
					t.Errorf("client empty MultiGet: %d items, err %v", len(items), err)
				}
				conn, err := inp.Dial(p)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				defer conn.Close()
				for id, op := range []rpcproto.Op{rpcproto.OpGet, rpcproto.OpPut, rpcproto.OpDel} {
					if err := conn.Send(p, rpcproto.AppendBatchReqFrame(rpcproto.GetBuf(), uint64(id+1), op, nil, nil)); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					frame, err := conn.Recv(p)
					if err != nil {
						t.Errorf("recv: %v", err)
						return
					}
					kind, payload, _, _ := rpcproto.DecodeFrame(frame)
					gotID, items, err := rpcproto.DecodeBatchResp(payload, nil)
					if kind != rpcproto.FrameBatchResp || err != nil || gotID != uint64(id+1) || len(items) != 0 {
						t.Errorf("empty %v batch: kind %v id %d, %d items, err %v", op, kind, gotID, len(items), err)
					}
					rpcproto.PutBuf(frame)
				}
			},
		},
		{
			name: "handler-refuses-batch",
			cfg:  server.Config{Handler: nopHandler{}},
			fn: func(t *testing.T, p runtime.Task, _ *server.Server, cl *server.Client, _ *transport.Inproc) {
				_, err := cl.MultiGet(p, [][]byte{testKey(1)}, nil)
				var ef *rpcproto.ErrorFrame
				if !errors.As(err, &ef) || ef.Code != rpcproto.StatusErr {
					t.Errorf("batch to a handler server: want ErrorFrame(StatusErr), got %v", err)
				}
			},
		},
		{
			name: "multidel",
			fn: func(t *testing.T, p runtime.Task, srv *server.Server, cl *server.Client, _ *transport.Inproc) {
				var keys [][]byte
				for _, ks := range keysPerPartition(srv, 2) {
					keys = append(keys, ks...)
				}
				for _, k := range keys[:len(keys)-1] {
					if err := cl.Put(p, k, testVal(1)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
				items, err := cl.MultiDel(p, keys, nil)
				if err != nil || len(items) != len(keys) {
					t.Errorf("MultiDel: %d items, err %v", len(items), err)
					return
				}
				for i, it := range items {
					want := rpcproto.StatusOK
					if i == len(keys)-1 {
						want = rpcproto.StatusNotFound // never stored
					}
					if it.Status != want {
						t.Errorf("MultiDel item %d: status %v, want %v", i, it.Status, want)
					}
				}
				items, err = cl.MultiGet(p, keys, nil)
				for i, it := range items {
					if it.Status != rpcproto.StatusNotFound {
						t.Errorf("after MultiDel item %d: status %v, want NotFound", i, it.Status)
					}
				}
				if err != nil {
					t.Errorf("MultiGet after MultiDel: %v", err)
				}
			},
		},
		{
			// On the slow device a PUT takes tens of ms of virtual time; a
			// MultiPut with one item per partition overlaps them, so it
			// costs about one PUT, not four.
			name: "multiput-overlaps-partitions", slow: true, simOnly: true,
			fn: func(t *testing.T, p runtime.Task, srv *server.Server, cl *server.Client, _ *transport.Inproc) {
				parts := keysPerPartition(srv, 2)
				t0 := p.Now()
				if err := cl.Put(p, parts[0][1], testVal(0)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				one := p.Now() - t0
				var keys, vals [][]byte
				for pid := range parts {
					keys = append(keys, parts[pid][0])
					vals = append(vals, testVal(pid))
				}
				t0 = p.Now()
				items, err := cl.MultiPut(p, keys, vals, nil)
				batch := p.Now() - t0
				if err != nil || len(items) != len(keys) {
					t.Errorf("MultiPut: %d items, err %v", len(items), err)
					return
				}
				for i, it := range items {
					if it.Status != rpcproto.StatusOK {
						t.Errorf("MultiPut item %d: status %v", i, it.Status)
					}
				}
				if len(keys) != 4 || batch >= 2*one {
					t.Errorf("MultiPut over %d partitions took %v, one PUT %v: want < 2x", len(keys), batch, one)
				}
			},
		},
	}
	for _, be := range batchEnvs {
		for _, tc := range cases {
			if tc.simOnly && !be.sim {
				continue
			}
			t.Run(be.name+"/"+tc.name, func(t *testing.T) {
				ran := false
				be.run(t, tc.slow, tc.cfg, func(p runtime.Task, srv *server.Server, cl *server.Client, inp *transport.Inproc) {
					tc.fn(t, p, srv, cl, inp)
					ran = true
				})
				if !ran {
					t.Fatal("client task did not finish")
				}
			})
		}
	}
}
