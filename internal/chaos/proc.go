package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"leed/internal/cluster"
	"leed/internal/cluster/proc"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// The proc and kill shapes attack a process, not a connection. Neither
// forks by itself: Config.Spawn maps a Spec to an unstarted *exec.Cmd (tests
// re-exec the test binary, leedctl re-execs itself).
//
// proc stands up a manager and three node processes on loopback. CRRS acks
// a write only after the whole chain absorbed it (§3.7), so SIGKILLing one
// chain member must lose nothing acked, and the manager must detect the
// death, cut a new view and keep the cluster serving.
//
// kill runs one `serve -listen` child on the spawner's image, SIGKILLs it
// mid-load — acked writes live in the page cache (pwrite returned), which
// survives process death — restarts it on the same image and demands that
// recovery (superblock plus key-log scan) replays every acknowledged write.

const (
	procNodes = 3
	procKeys  = 32
	// procHBTimeout is the manager's silent-node failure timeout; nodes beat
	// every 50ms (the node default).
	procHBTimeout = 600 * time.Millisecond
	procHBEvery   = 50 * runtime.Millisecond
	// killAfter is how far into the loaded window the fault lands.
	killAfter = 400 * runtime.Millisecond
	killKeys  = 48
)

// procs holds the child processes of the kill and proc shapes.
type procs struct {
	mu sync.Mutex // children is added to by the drill task, reaped by Run
	// children maps every spawned process to its captured stdout+stderr.
	children map[*exec.Cmd]*bytes.Buffer

	// kill: the serve child and its address.
	serve     *exec.Cmd
	serveAddr string

	// proc: the cluster client and processes.
	cl    *proc.Client
	mgr   *exec.Cmd
	nodes map[cluster.NodeID]*exec.Cmd
	dead  cluster.NodeID // the SIGKILLed node, not drained at shutdown
}

// procClient adapts proc.Client: writes retry only after a rejection that
// proves they never executed.
type procClient struct{ cl *proc.Client }

func (c procClient) Put(t runtime.Task, key, val []byte) (bool, error) {
	return false, c.cl.Put(t, key, val)
}
func (c procClient) Get(t runtime.Task, key []byte) ([]byte, error) { return c.cl.Get(t, key) }
func (procClient) NotExecuted(err error) bool                       { return proc.WriteNotExecuted(err) }
func (procClient) Reapplies() bool                                  { return false }

func runProc(d *drill) (*Report, error) {
	if d.cfg.Spawn == nil {
		return nil, errors.New("chaos: proc scenarios need Config.Spawn")
	}
	mgrAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	// The proxy sits on the last node's heartbeat link: the partition
	// scenario silences that node there.
	proxy, err := transport.NewFaultProxy("127.0.0.1:0", mgrAddr, d.cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	pr := &procs{children: make(map[*exec.Cmd]*bytes.Buffer), nodes: make(map[cluster.NodeID]*exec.Cmd)}
	d.env, d.proc, d.proxy = wallclock.New(), pr, proxy
	d.keys = make([]keyState, procKeys)
	d.writers = 2
	return d.run(func(t runtime.Task) error {
		if err := d.startProcCluster(t, mgrAddr); err != nil {
			return err
		}
		defer pr.cl.Close()
		if !pr.awaitView(d, t, 30*runtime.Second, pr.allRunning) {
			return errors.New("chaos: cluster never assembled (not all nodes RUNNING)")
		}
		// Let every node pull the view: a write meeting a node still on an
		// older one fails as ambiguous, and the clean load should not.
		t.Sleep(3 * procHBEvery)
		d.sweeps(t, 1, false) // version 1 of every key, fault-free
		d.rep.EpochBefore = pr.cl.View().Epoch
		d.row.steps(d, t)
		if v := pr.cl.View(); v != nil {
			d.rep.FinalEpoch = v.Epoch
		}
		d.finalCheck(t, nil)
		// Close the client first: its open connections would hold the
		// nodes' drains up.
		pr.cl.Close()
		survivors := []child{{"manager", pr.mgr}}
		for id := cluster.NodeID(1); id <= procNodes; id++ {
			if id != pr.dead {
				survivors = append(survivors, child{fmt.Sprintf("node %d", id), pr.nodes[id]})
			}
		}
		d.drainChildren(t, survivors...)
		d.finish()
		return nil
	})
}

// startProcCluster spawns the manager and the nodes and connects a client.
func (d *drill) startProcCluster(t runtime.Task, mgrAddr string) error {
	pr := d.proc
	var err error
	if pr.mgr, err = d.spawn(t, Spec{Role: "manager", Listen: mgrAddr}); err != nil {
		return err
	}
	for id := cluster.NodeID(1); id <= procNodes; id++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		hb := mgrAddr
		if id == procNodes {
			hb = d.proxy.Addr()
		}
		if pr.nodes[id], err = d.spawn(t, Spec{Role: "node", ID: id, Listen: addr, Manager: hb}); err != nil {
			return err
		}
	}
	pr.cl = proc.NewClient(proc.ClientConfig{
		Env:     d.env.(*wallclock.Env),
		Manager: mgrAddr,
		// Generous retries: one op must be able to ride out the detection
		// window (the failure timeout plus a few heartbeats) on NACKs.
		Retries:    60,
		RetrySleep: 25 * runtime.Millisecond,
	})
	d.clients = []client{procClient{pr.cl}}
	return nil
}

// allRunning: every node is RUNNING and synced.
func (pr *procs) allRunning(v *cluster.View) bool {
	if len(v.States) != procNodes || len(v.Unsynced) != 0 {
		return false
	}
	for id := cluster.NodeID(1); id <= procNodes; id++ {
		if v.States[id] != cluster.StateRunning {
			return false
		}
	}
	return true
}

// awaitView refreshes the client's view until cond holds or the budget runs
// out. Refresh errors are retried — the manager may be mid-reconfiguration.
func (pr *procs) awaitView(d *drill, t runtime.Task, budget runtime.Time, cond func(*cluster.View) bool) bool {
	deadline := t.Now() + budget
	for t.Now() < deadline && !d.aborted.Load() {
		if err := pr.cl.Refresh(t); err == nil {
			if v := pr.cl.View(); v != nil && cond(v) {
				return true
			}
		}
		t.Sleep(procHBEvery)
	}
	return false
}

// evicted waits for a view without the victim.
func (pr *procs) evicted(d *drill, t runtime.Task, victim cluster.NodeID) {
	if !pr.awaitView(d, t, 30*runtime.Second, func(v *cluster.View) bool {
		_, present := v.States[victim]
		return v.Epoch > d.rep.EpochBefore && !present
	}) {
		d.rep.violate("manager never removed node %d from the view", victim)
	}
}

// serving keeps the window open, bounded, until a write is acked after the
// fault: the cluster kept serving through the reconfiguration.
func (pr *procs) serving(d *drill, t runtime.Task) {
	d.waitFor(t, 10*runtime.Second, func() bool { return d.rep.AckedAfterFault > 0 })
}

// procKill SIGKILLs partition 0's chain tail (or head) mid-load.
func procKill(tail bool) func(d *drill, t runtime.Task) {
	return func(d *drill, t runtime.Task) {
		pr := d.proc
		chain := pr.cl.View().Chain(0)
		victim := chain[0]
		if tail {
			victim = chain[len(chain)-1]
		}
		d.rep.Victim = victim
		d.loaded(t, func() {
			t.Sleep(killAfter)
			sigkill(t, pr.nodes[victim])
			pr.dead = victim
			d.faulted = true
			pr.evicted(d, t, victim)
			pr.serving(d, t)
		})
	}
}

// procPartition silences the proxied node's heartbeats until the manager
// evicts it, heals, and demands the full round trip: the node re-joins,
// re-syncs via COPY and returns to RUNNING.
func procPartition(d *drill, t runtime.Task) {
	pr := d.proc
	victim := cluster.NodeID(procNodes)
	d.rep.Victim = victim
	d.loaded(t, func() {
		t.Sleep(killAfter)
		d.proxy.Partition()
		d.proxy.KillAll() // sever the in-flight heartbeat conn too
		d.faulted = true
		pr.evicted(d, t, victim)
		d.proxy.Heal()
		if !pr.awaitView(d, t, 45*runtime.Second, pr.allRunning) {
			d.rep.violate("node %d never re-joined and re-synced after the heal", victim)
		}
		pr.serving(d, t)
	})
}

// expectProc: the view must have moved past the fault, and the cluster must
// have kept acking writes after it.
func expectProc(r *Report) {
	if r.FinalEpoch <= r.EpochBefore {
		r.violate("view epoch never advanced past the fault (%d → %d)", r.EpochBefore, r.FinalEpoch)
	}
	if r.AckedAfterFault == 0 {
		r.violate("no write was acked after the fault — the cluster stopped serving")
	}
}

func runKill(d *drill) (*Report, error) {
	if d.cfg.Spawn == nil {
		return nil, errors.New("chaos: the kill scenario needs Config.Spawn")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	env := wallclock.New()
	pr := &procs{children: make(map[*exec.Cmd]*bytes.Buffer), serveAddr: addr}
	d.env, d.proc = env, pr
	d.keys = make([]keyState, killKeys)
	d.writers = 4
	// Short deadline, few attempts: a dead server surfaces as an error in
	// about a second instead of a long retry tail.
	rc := server.NewReliableClient(server.ReliableConfig{
		Env:         env,
		Dial:        dialTCP(env, addr),
		Depth:       16,
		Deadline:    500 * runtime.Millisecond,
		MaxAttempts: 2,
		BackoffBase: 10 * runtime.Millisecond,
		Seed:        d.cfg.Seed,
		Obs:         d.cfg.Obs,
	})
	d.clients = []client{reliableClient{rc, d.rep}}
	return d.run(func(t runtime.Task) error {
		defer rc.Close()
		var err error
		if pr.serve, err = d.spawn(t, Spec{Role: "serve", Listen: addr}); err != nil {
			return err
		}
		d.sweeps(t, 1, false) // version 1 of every key, fault-free
		d.row.steps(d, t)
		if pr.serve != nil { // nil: the restart failed, and the steps said why
			d.settle(t)
			d.finalCheck(t, nil)
			rc.Close()
			d.drainChildren(t, child{"serve child", pr.serve})
		}
		foldReliable(d.rep, []*server.ReliableClient{rc})
		d.finish()
		return nil
	})
}

// killServe SIGKILLs the serve child mid-load and restarts it on the same
// image.
func killServe(d *drill, t runtime.Task) {
	pr := d.proc
	d.loaded(t, func() {
		t.Sleep(killAfter)
		sigkill(t, pr.serve)
		d.faulted = true
	})
	d.rep.Restarts++
	var err error
	if pr.serve, err = d.spawn(t, Spec{Role: "serve", Listen: pr.serveAddr}); err != nil {
		d.rep.violate("serve child never came back: %v", err)
	}
}

// spawn starts one child built by Config.Spawn, capturing its output, and
// waits, bounded, for its listener; leedctl's roles and `serve -listen`
// bind before serving, so connect == ready. The blocking work runs outside
// the execution contract. A child that never came up is killed and reaped.
func (d *drill) spawn(t runtime.Task, spec Spec) (*exec.Cmd, error) {
	cmd := d.cfg.Spawn(spec)
	out := &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = out, out
	var err error
	t.Blocking(func() {
		if err = cmd.Start(); err != nil {
			return
		}
		d.proc.mu.Lock()
		d.proc.children[cmd] = out
		d.proc.mu.Unlock()
		if err = awaitListener(spec.Listen, 15*time.Second); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			err = fmt.Errorf("%w\nchild output:\n%s", err, out)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %s child: %w", spec.Role, err)
	}
	return cmd, nil
}

// sigkill kills one child the hard way, like a crash, and reaps it.
func sigkill(t runtime.Task, cmd *exec.Cmd) {
	cmd.Process.Signal(syscall.SIGKILL)
	t.Blocking(func() { cmd.Wait() })
}

// reap kills every child still running, so none outlives the drill
// whatever path ended it. Children are waited for only once the drill task
// has finished: an abandoned task may still be waiting on one itself.
func (d *drill) reap(finished bool) {
	d.proc.mu.Lock()
	defer d.proc.mu.Unlock()
	for cmd := range d.proc.children {
		cmd.Process.Kill()
		if finished && cmd.ProcessState == nil {
			cmd.Wait()
		}
	}
}

// child names one spawned process for drainChildren.
type child struct {
	name string
	cmd  *exec.Cmd
}

// drainChildren SIGTERMs the children together and demands the
// graceful-drain contract of each: exit status 0 within 15s and the
// "drained" line in its output.
func (d *drill) drainChildren(t runtime.Task, children ...child) {
	errs := make([]error, len(children))
	t.Blocking(func() {
		var wg sync.WaitGroup
		for i, c := range children {
			c.cmd.Process.Signal(syscall.SIGTERM)
			wg.Add(1)
			go func() {
				defer wg.Done()
				waited := make(chan error, 1)
				go func() { waited <- c.cmd.Wait() }()
				select {
				case errs[i] = <-waited:
				case <-time.After(15 * time.Second):
					c.cmd.Process.Kill()
					<-waited
					errs[i] = errors.New("did not drain within 15s of SIGTERM")
				}
			}()
		}
		wg.Wait()
	})
	d.proc.mu.Lock()
	defer d.proc.mu.Unlock()
	for i, c := range children {
		if errs[i] != nil {
			d.rep.violate("%s exited dirty on SIGTERM: %v", c.name, errs[i])
		}
		if !bytes.Contains(d.proc.children[c.cmd].Bytes(), []byte("drained")) {
			d.rep.violate("%s never printed \"drained\" on SIGTERM", c.name)
		}
	}
}

// freeAddr reserves an ephemeral loopback port and releases it for a child
// to bind. The tiny race window is acceptable for a drill.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// awaitListener polls until addr accepts a TCP connection.
func awaitListener(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("no listener on %s within %v", addr, budget)
}
