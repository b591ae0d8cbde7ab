package proc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/sim"
	"leed/internal/transport"
)

// The integration battery runs the real thing: it re-execs this test binary
// as `manager` and `node` processes (the env-var dispatch below), assembles
// a cluster on loopback, and drives it through the same client the paper's
// workloads use. Nothing is mocked — every heartbeat, view push, and chain
// forward crosses a process boundary on a real socket.

// TestMain doubles as the process entry point for spawned children: when
// LEED_PROC_ROLE is set the binary is not a test run but a cluster process,
// and control goes straight to the subcommand dispatcher.
func TestMain(m *testing.M) {
	if os.Getenv("LEED_PROC_ROLE") != "" {
		os.Exit(Main(strings.Fields(os.Getenv("LEED_PROC_ARGS"))))
	}
	os.Exit(m.Run())
}

// procChild is one spawned cluster process plus its captured output.
type procChild struct {
	name string
	cmd  *exec.Cmd
	out  *bytes.Buffer
}

// spawnProc re-execs the test binary as a cluster process with the given
// subcommand arguments.
func spawnProc(t *testing.T, name string, args []string) *procChild {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"LEED_PROC_ROLE=1",
		"LEED_PROC_ARGS="+strings.Join(args, " "))
	out := &bytes.Buffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	c := &procChild{name: name, cmd: cmd, out: out}
	t.Cleanup(func() {
		if c.cmd.ProcessState == nil {
			syscall.Kill(c.cmd.Process.Pid, syscall.SIGKILL)
			c.cmd.Wait()
		}
	})
	return c
}

// drain SIGTERMs the child and asserts the graceful-shutdown contract: exit
// code 0 and the "drained" line in its output.
func (c *procChild) drain(t *testing.T) {
	t.Helper()
	c.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- c.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Errorf("%s exited dirty on SIGTERM: %v\noutput:\n%s", c.name, err, c.out.String())
		}
	case <-time.After(15 * time.Second):
		t.Errorf("%s did not exit within 15s of SIGTERM", c.name)
		syscall.Kill(c.cmd.Process.Pid, syscall.SIGKILL)
		<-waited
		return
	}
	if !bytes.Contains(c.out.Bytes(), []byte("drained")) {
		t.Errorf("%s never printed \"drained\"; output:\n%s", c.name, c.out.String())
	}
}

func freeTestAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve addr: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func awaitTCP(t *testing.T, addr string, budget time.Duration) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("no listener on %s within %v", addr, budget)
}

// startProcCluster spawns a manager and n nodes and returns the manager's
// heartbeat address plus the children (manager first).
func startProcCluster(t *testing.T, n int) (string, []*procChild) {
	t.Helper()
	mgrAddr := freeTestAddr(t)
	children := []*procChild{spawnProc(t, "manager",
		[]string{"manager", "-listen", mgrAddr, "-hb-timeout", "600ms"})}
	awaitTCP(t, mgrAddr, 15*time.Second)
	for i := 1; i <= n; i++ {
		children = append(children, spawnProc(t, fmt.Sprintf("node %d", i),
			[]string{"node",
				"-id", fmt.Sprint(i),
				"-listen", freeTestAddr(t),
				"-manager", mgrAddr,
				"-hb-interval", "25ms"}))
	}
	return mgrAddr, children
}

// awaitRunningView refreshes until the view shows n RUNNING, synced members
// and every node has applied that view. A write that meets a node still on
// an older view fails as ambiguous rather than retrying, so the scripted
// workloads start only once the view has settled everywhere.
func awaitRunningView(p runtime.Task, cl *Client, n int, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if err := cl.Refresh(p); err == nil {
			v := cl.View()
			if v != nil && len(v.States) == n && len(v.Unsynced) == 0 {
				running := true
				for _, st := range v.States {
					running = running && st == cluster.StateRunning
				}
				if running && nodesOnEpoch(p, cl, v.Epoch) {
					return true
				}
			}
		}
		p.Sleep(25 * runtime.Millisecond)
	}
	return false
}

// nodesOnEpoch probes every node the client knows with a GET at epoch: a
// node answers with its own epoch whether it serves the read or NACKs it.
func nodesOnEpoch(p runtime.Task, cl *Client, epoch uint64) bool {
	for _, addr := range cl.addrs {
		cl.nextID++
		resp, err := cl.peer(addr).DoView(p, &rpcproto.Request{
			ID: cl.nextID, Op: rpcproto.OpGet, Epoch: epoch, Key: []byte("epoch-probe")})
		if err != nil || resp.Epoch != epoch {
			return false
		}
	}
	return true
}

// TestMultiProcessClusterIntegration is the battery's tentpole: manager + 3
// node processes, a YCSB-B-shaped workload through the cluster client, a
// full read-back against the driver's model, then SIGTERM-drain assertions
// on every process.
func TestMultiProcessClusterIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster integration skipped in -short mode")
	}
	mgrAddr, children := startProcCluster(t, 3)

	const nKeys = 64
	const nOps = 400
	model := make(map[string]string)
	env := wallclock.New()
	client := NewClient(ClientConfig{Env: env, Manager: mgrAddr})
	var taskErrs []string
	done := make(chan struct{})
	env.Spawn("integration-driver", func(p runtime.Task) {
		defer close(done)
		if !awaitRunningView(p, client, 3, 30*time.Second) {
			taskErrs = append(taskErrs, "cluster never reached 3 RUNNING members")
			return
		}
		rng := rand.New(rand.NewSource(11))
		key := func(i int) []byte { return []byte(fmt.Sprintf("it-%04d", i)) }
		// Preload every key, then run the 95/5 YCSB-B mix.
		for i := 0; i < nKeys; i++ {
			val := fmt.Sprintf("v1-of-%04d", i)
			if err := client.Put(p, key(i), []byte(val)); err != nil {
				taskErrs = append(taskErrs, fmt.Sprintf("preload put %d: %v", i, err))
				return
			}
			model[string(key(i))] = val
		}
		ver := make([]int, nKeys)
		for op := 0; op < nOps; op++ {
			i := rng.Intn(nKeys)
			if rng.Intn(100) < 95 {
				got, err := client.Get(p, key(i))
				if err != nil {
					taskErrs = append(taskErrs, fmt.Sprintf("op %d get %d: %v", op, i, err))
					continue
				}
				if want := model[string(key(i))]; string(got) != want {
					taskErrs = append(taskErrs, fmt.Sprintf("op %d get %d: got %q want %q", op, i, got, want))
				}
			} else {
				ver[i]++
				val := fmt.Sprintf("v%d-of-%04d", ver[i]+1, i)
				if err := client.Put(p, key(i), []byte(val)); err != nil {
					taskErrs = append(taskErrs, fmt.Sprintf("op %d put %d: %v", op, i, err))
					continue
				}
				model[string(key(i))] = val
			}
		}
		// Full read-back against the model.
		for i := 0; i < nKeys; i++ {
			got, err := client.Get(p, key(i))
			if err != nil {
				taskErrs = append(taskErrs, fmt.Sprintf("readback %d: %v", i, err))
				continue
			}
			if want := model[string(key(i))]; string(got) != want {
				taskErrs = append(taskErrs, fmt.Sprintf("readback %d: got %q want %q", i, got, want))
			}
		}
	})
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("integration driver did not finish")
	}
	client.Close()
	for _, e := range taskErrs {
		t.Error(e)
	}

	// Graceful shutdown: nodes first, then the manager; every process must
	// drain and exit 0.
	for i := len(children) - 1; i >= 0; i-- {
		children[i].drain(t)
	}
}

// eqProcOp is one scripted operation for the equivalence transcript.
type eqProcOp struct {
	put      bool
	key, val string
}

// eqProcOps derives a deterministic put/get script from seed. Values fit
// both geometries (in-process ValLen 64, proc default 256).
func eqProcOps(seed int64, n, keys int) []eqProcOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]eqProcOp, 0, n)
	ver := make([]int, keys)
	for i := 0; i < n; i++ {
		k := rng.Intn(keys)
		if rng.Intn(10) < 4 { // 40% writes, so most keys get several versions
			ver[k]++
			ops = append(ops, eqProcOp{put: true,
				key: fmt.Sprintf("eq-%04d", k),
				val: fmt.Sprintf("v%d-of-%04d", ver[k], k)})
		} else {
			ops = append(ops, eqProcOp{key: fmt.Sprintf("eq-%04d", k)})
		}
	}
	return ops
}

// runEqInProcess executes the script on the in-process simulated cluster
// (DES kernel) and returns the final client-visible KV contents.
func runEqInProcess(t *testing.T, ops []eqProcOp) map[string]string {
	t.Helper()
	k := sim.New()
	defer k.Close()
	c := cluster.New(cluster.Config{
		Env:           k,
		NumJBOFs:      3,
		SSDsPerJBOF:   2,
		SSDCapacity:   32 << 20,
		NumPartitions: 8,
		R:             3,
		KeyLen:        16,
		ValLen:        64,
		NumClients:    1,
		CRRS:          true,
		FlowControl:   true,
		Swap:          true,
	})
	c.Start()
	k.Run(k.Now() + 5*runtime.Millisecond)
	kv := make(map[string]string)
	done := false
	k.Spawn("eq-sim-driver", func(p runtime.Task) {
		cl := c.Clients[0]
		for i, op := range ops {
			if op.put {
				if _, err := cl.Put(p, []byte(op.key), []byte(op.val)); err != nil {
					t.Errorf("sim op %d put %s: %v", i, op.key, err)
				}
			} else if _, _, err := cl.Get(p, []byte(op.key)); err != nil && err != core.ErrNotFound {
				t.Errorf("sim op %d get %s: %v", i, op.key, err)
			}
		}
		p.Sleep(20 * runtime.Millisecond)
		seen := map[string]bool{}
		for _, op := range ops {
			if !op.put || seen[op.key] {
				continue
			}
			seen[op.key] = true
			v, _, err := cl.Get(p, []byte(op.key))
			if err != nil {
				t.Errorf("sim final get %s: %v", op.key, err)
				continue
			}
			kv[op.key] = string(v)
		}
		done = true
	})
	deadline := k.Now() + 120*runtime.Second
	for !done && k.Now() < deadline {
		k.Run(k.Now() + 10*runtime.Millisecond)
	}
	if !done {
		t.Fatal("sim equivalence driver did not finish")
	}
	return kv
}

// runEqMultiProcess executes the same script against a real multi-process
// cluster and returns the final client-visible KV contents.
func runEqMultiProcess(t *testing.T, ops []eqProcOp) map[string]string {
	t.Helper()
	mgrAddr, children := startProcCluster(t, 3)
	env := wallclock.New()
	cl := NewClient(ClientConfig{Env: env, Manager: mgrAddr})
	kv := make(map[string]string)
	done := make(chan struct{})
	env.Spawn("eq-proc-driver", func(p runtime.Task) {
		defer close(done)
		if !awaitRunningView(p, cl, 3, 30*time.Second) {
			t.Error("proc cluster never reached 3 RUNNING members")
			return
		}
		for i, op := range ops {
			if op.put {
				if err := cl.Put(p, []byte(op.key), []byte(op.val)); err != nil {
					t.Errorf("proc op %d put %s: %v", i, op.key, err)
				}
			} else if _, err := cl.Get(p, []byte(op.key)); err != nil && !errors.Is(err, core.ErrNotFound) {
				t.Errorf("proc op %d get %s: %v", i, op.key, err)
			}
		}
		seen := map[string]bool{}
		for _, op := range ops {
			if !op.put || seen[op.key] {
				continue
			}
			seen[op.key] = true
			v, err := cl.Get(p, []byte(op.key))
			if err != nil {
				t.Errorf("proc final get %s: %v", op.key, err)
				continue
			}
			kv[op.key] = string(v)
		}
	})
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("proc equivalence driver did not finish")
	}
	cl.Close()
	for i := len(children) - 1; i >= 0; i-- {
		children[i].drain(t)
	}
	return kv
}

// TestInProcessMultiProcessEquivalence pushes one seeded script through the
// in-process simulated cluster and through a real multi-process cluster and
// demands identical final KV contents: the process split must not change
// what the store remembers, only where it runs. Both sides route with
// PartitionOf(HashKey(key), NumPart), so the transcript also pins that the
// two bindings shard identically.
func TestInProcessMultiProcessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process equivalence skipped in -short mode")
	}
	ops := eqProcOps(42, 200, 24)
	simKV := runEqInProcess(t, ops)
	procKV := runEqMultiProcess(t, ops)
	if len(simKV) == 0 {
		t.Fatal("in-process cluster committed nothing")
	}
	if len(simKV) != len(procKV) {
		t.Errorf("final KV sizes differ: in-process=%d multi-process=%d", len(simKV), len(procKV))
	}
	for k, v := range simKV {
		if pv, ok := procKV[k]; !ok {
			t.Errorf("key %s present in-process, missing multi-process", k)
		} else if pv != v {
			t.Errorf("key %s: in-process=%q multi-process=%q", k, v, pv)
		}
	}
}

// getAllocBudget mirrors the single-server GET budget pinned in
// internal/server's alloc_test.go (a test constant, so it cannot be
// imported). If the pinned budget ever moves, move this with it.
const getAllocBudget = 2

// TestHandleGetAllocs pins the node's GET handler — the hot serve path every
// read replica runs — to the same allocs/op budget the single-server path is
// gated on. White-box: the handler is driven directly with a synthetic
// single-node view, no sockets.
func TestHandleGetAllocs(t *testing.T) {
	env := wallclock.New()
	n := newNode(NodeConfig{Env: env, ID: 1, NumPart: 4, SSDs: 1, SSDCapacity: 8 << 20})
	n.eng.Start()
	key := []byte("alloc-key-0001")
	val := bytes.Repeat([]byte("x"), 64)
	part := cluster.PartitionOf(core.HashKey(key), 4)

	var allocs float64
	var setupErr error
	done := make(chan struct{})
	env.Spawn("alloc-driver", func(p runtime.Task) {
		defer close(done)
		// A one-node view: node 1 is every chain and every read replica.
		v := cluster.NewView(1,
			map[cluster.NodeID]cluster.NodeState{1: cluster.StateRunning}, 1, 4, nil)
		n.applyView(v)
		if _, _, err := n.eng.Execute(p, int(part), rpcproto.OpPut, key, val); err != nil {
			setupErr = err
			return
		}
		req := &rpcproto.Request{ID: 7, Op: rpcproto.OpGet, Partition: part, Epoch: 1, Key: key}
		scratch := make([]byte, 0, 4096)
		// Warm the path once (lazy engine buffers), then measure.
		resp := rpcproto.Response{ID: req.ID, Epoch: req.Epoch}
		scratch = n.Handle(p, false, req, &resp, scratch, nil)
		if resp.Status != rpcproto.StatusOK || !bytes.Equal(resp.Value, val) {
			setupErr = fmt.Errorf("warmup GET: status %v", resp.Status)
			return
		}
		allocs = testing.AllocsPerRun(200, func() {
			r := rpcproto.Response{ID: req.ID, Epoch: req.Epoch}
			scratch = n.Handle(p, false, req, &r, scratch, nil)
			if r.Status != rpcproto.StatusOK {
				setupErr = fmt.Errorf("measured GET: status %v", r.Status)
			}
		})
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("alloc driver did not finish")
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	if allocs > float64(getAllocBudget) {
		t.Errorf("GET handler allocates %.1f/op, budget is %d", allocs, getAllocBudget)
	}
	env.After(0, func() { n.eng.Stop() })
	drained := make(chan struct{})
	go func() { env.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
	}
}

// TestHandleRejectsSpoofedHop pins the anti-spoof rule over the handler
// seam: a client-framed write with a nonzero Hop must NACK, never execute —
// otherwise a hostile client could have a mid-chain node ack a write the
// upstream replicas don't hold.
func TestHandleRejectsSpoofedHop(t *testing.T) {
	env := wallclock.New()
	n := newNode(NodeConfig{Env: env, ID: 1, NumPart: 4, SSDs: 1, SSDCapacity: 8 << 20})
	n.eng.Start()
	done := make(chan struct{})
	var failures []string
	env.Spawn("spoof-driver", func(p runtime.Task) {
		defer close(done)
		v := cluster.NewView(1,
			map[cluster.NodeID]cluster.NodeState{1: cluster.StateRunning}, 1, 4, nil)
		n.applyView(v)
		key := []byte("spoof-key")
		part := cluster.PartitionOf(core.HashKey(key), 4)
		req := &rpcproto.Request{ID: 1, Op: rpcproto.OpPut, Partition: part, Epoch: 1, Hop: 1, Key: key, Value: []byte("evil")}
		resp := rpcproto.Response{ID: req.ID, Epoch: req.Epoch}
		n.Handle(p, false, req, &resp, nil, nil)
		if resp.Status != rpcproto.StatusNack {
			failures = append(failures, fmt.Sprintf("spoofed-hop client write: status %v, want NACK", resp.Status))
		}
		// A client-framed COPY is hostile too: peer-only traffic.
		creq := &rpcproto.Request{ID: 2, Op: rpcproto.OpCopy, Partition: part, Epoch: 1, Key: key, Value: []byte("evil")}
		cresp := rpcproto.Response{ID: creq.ID, Epoch: creq.Epoch}
		n.Handle(p, false, creq, &cresp, nil, nil)
		if cresp.Status != rpcproto.StatusErr {
			failures = append(failures, fmt.Sprintf("client-framed COPY: status %v, want Err", cresp.Status))
		}
		// Neither may have written anything.
		if _, _, err := n.eng.Execute(p, int(part), rpcproto.OpGet, key, nil); err != core.ErrNotFound {
			failures = append(failures, fmt.Sprintf("spoofed write landed: GET err=%v, want NotFound", err))
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("spoof driver did not finish")
	}
	for _, f := range failures {
		t.Error(f)
	}
	env.After(0, func() { n.eng.Stop() })
	drained := make(chan struct{})
	go func() { env.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
	}
}

// TestRelayedNackIsAmbiguous: a head that executed a write and then had the
// forward NACKed by a downstream on an older epoch must not relay the NACK —
// the client would read it as "never executed" while the head holds the
// write — and answers StatusErr, the rule for any failed forward.
func TestRelayedNackIsAmbiguous(t *testing.T) {
	env := wallclock.New()
	nodes := make(map[cluster.NodeID]*Node)
	for id := cluster.NodeID(1); id <= 2; id++ {
		n := newNode(NodeConfig{Env: env, ID: id, NumPart: 4, SSDs: 1, SSDCapacity: 8 << 20})
		n.eng.Start()
		ln, err := transport.ListenTCPOpts(env, "127.0.0.1:0", transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n.ln = ln
		n.srv = server.New(server.Config{Env: env, Engine: n.eng, Handler: n})
		n.srv.Serve(ln)
		nodes[id] = n
	}
	done := make(chan struct{})
	var failures []string
	env.Spawn("nack-driver", func(p runtime.Task) {
		defer close(done)
		states := map[cluster.NodeID]cluster.NodeState{1: cluster.StateRunning, 2: cluster.StateRunning}
		v1, v2 := cluster.NewView(1, states, 2, 4, nil), cluster.NewView(2, states, 2, 4, nil)
		// The head is on epoch 2; the downstream is still on epoch 1.
		const key = "nack-key"
		part := cluster.PartitionOf(core.HashKey([]byte(key)), 4)
		chain := v2.Chain(part)
		head, down := nodes[chain[0]], nodes[chain[1]]
		head.applyView(v2)
		head.addrs[down.cfg.ID] = down.ln.Addr()
		down.applyView(v1)
		req := &rpcproto.Request{ID: 1, Op: rpcproto.OpPut, Partition: part, Epoch: 2, Key: []byte(key), Value: []byte(key)}
		resp := rpcproto.Response{ID: req.ID, Epoch: req.Epoch}
		head.Handle(p, false, req, &resp, nil, nil)
		got, _, err := head.eng.Execute(p, int(part), rpcproto.OpGet, []byte(key), nil)
		if resp.Status != rpcproto.StatusErr {
			failures = append(failures, fmt.Sprintf("head answered %v, want %v", resp.Status, rpcproto.StatusErr))
		}
		if err != nil || string(got) != key {
			failures = append(failures, fmt.Sprintf("head does not hold the write: %q, %v", got, err))
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nack driver did not finish")
	}
	for _, f := range failures {
		t.Error(f)
	}
	for _, n := range nodes {
		n.Close()
	}
	drained := make(chan struct{})
	go func() { env.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
	}
}
