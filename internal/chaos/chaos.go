// Package chaos is LEED's fault-drill harness. A drill stands up a
// deployment, runs a seeded fault schedule against it while a driver
// issues versioned writes and checked reads, heals, and checks the paper's
// §3.8 claims as machine-verified invariants:
//
//   - no acknowledged write is lost while overlapping failures stay ≤ R-1;
//   - reads never return a version below the acked floor (synced replicas
//     never serve a stale committed value) or above the highest issued;
//   - once faults heal the system converges, and a key with no ambiguous
//     write reads back exactly its last acknowledged version.
//
// One runner, Run, drives every networked scenario from one table that
// maps the scenario to a deployment shape and its fault/heal steps:
//
//   - fabric: a netsim cluster on the sim kernel (virtual time, one seed
//     renders a byte-identical Report) or on real goroutines;
//   - served: one TCP server behind a transport.FaultProxy;
//   - kill: a `serve -listen` child SIGKILLed and restarted on its image;
//   - proc: a manager and node process cluster over loopback.
//
// Every shape shares one versioned-key tracker, one sweep, one read check,
// one final check and one bounded run/drain path; only the client adapter
// differs. RunSoak is the store-level power-cut loop, reported the same way.
package chaos

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/obs"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
	"leed/internal/transport"
)

// Scenario names one fault schedule.
type Scenario string

const (
	// MessageLoss drops a fraction of messages on one storage-to-storage
	// link in both directions (chain forwards, backward acks).
	MessageLoss Scenario = "message-loss"
	// PartitionHeal severs one node from its storage peers — heartbeats to
	// the manager still flow, a gray failure the detector cannot see — then
	// heals the link.
	PartitionHeal Scenario = "partition-heal"
	// CrashRestart power-fails one JBOF, waits for failure detection, then
	// restarts it through flash recovery and re-join.
	CrashRestart Scenario = "crash-restart"
	// DeviceFaults makes one node's SSDs fail operations probabilistically.
	DeviceFaults Scenario = "device-faults"
	// Mixed overlaps a crash with link loss between the survivors, staying
	// within the R-1 failure budget.
	Mixed Scenario = "mixed"

	// ProxyDrop kills served connections probabilistically mid-stream: the
	// TCP rendering of sustained message loss.
	ProxyDrop Scenario = "proxy-drop"
	// ProxyPartition blackholes the served wire for a while, then heals:
	// requests stall into their deadlines and the breaker must open.
	ProxyPartition Scenario = "proxy-partition"

	// Kill SIGKILLs a `serve -listen` child mid-load and restarts it on the
	// same image: recovery must replay every acknowledged write.
	Kill Scenario = "kill"

	// ProcKillTail SIGKILLs partition 0's chain tail — the read replica —
	// mid-load; reads fail over once the manager cuts the new view.
	ProcKillTail Scenario = "proc-kill-tail"
	// ProcKillHead SIGKILLs partition 0's chain head mid-load; the
	// synchronous downstream ack means everything acked reached the
	// survivors.
	ProcKillHead Scenario = "proc-kill-head"
	// ProcPartition blackholes one node's heartbeat link: the manager must
	// evict it, and after the heal it must re-join, re-sync and run again.
	ProcPartition Scenario = "proc-partition"

	// Soak is the store-level durability soak (RunSoak): seeded writes with
	// device faults, ended by power cuts and recovery.
	Soak Scenario = "soak"
)

// Scenarios lists every scenario in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{MessageLoss, PartitionHeal, CrashRestart, DeviceFaults, Mixed,
		ProxyDrop, ProxyPartition, Kill, ProcKillTail, ProcKillHead, ProcPartition, Soak}
}

// Backend selects the runtime the fabric scenarios execute on.
// The served, kill and proc shapes use real sockets and always run on the
// wallclock backend.
type Backend int

const (
	// BackendSim runs on the deterministic DES kernel (virtual time,
	// byte-identical reports per seed).
	BackendSim Backend = iota
	// BackendWallclock runs on real goroutines: the fault schedule still
	// draws from the seeded stream, but timing is real, so only the
	// invariants — not the counters — are reproducible.
	BackendWallclock
)

// Config shapes one drill.
type Config struct {
	Scenario Scenario
	Seed     int64
	Backend  Backend

	// Rounds is how many sweeps of the working set the fabric and served
	// scenarios run inside their fault windows. Default 2. The kill and
	// proc windows are timed instead.
	Rounds int

	// Budget bounds the whole drill: virtual time on sim, real time
	// otherwise. Default 120s.
	Budget time.Duration

	// Obs, when set, is the registry the deployment reports into (a fresh
	// one otherwise); Report.Metrics carries its final snapshot.
	Obs *obs.Registry

	// Spawn builds, unstarted, one child process of the kill and proc
	// shapes; the drill captures its output and starts it.
	Spawn func(Spec) *exec.Cmd
}

// Spec describes one child process for Config.Spawn.
type Spec struct {
	Role    string         // "manager", "node" or "serve"
	ID      cluster.NodeID // node
	Listen  string
	Manager string // node: the heartbeat address
}

// Args renders the spec as a leedctl argument vector: the `manager` and
// `node` subcommands (proc.Main), or `-listen ADDR serve`, to which the
// spawner prepends its own image flags.
func (s Spec) Args() []string {
	switch s.Role {
	case "manager":
		return []string{"manager", "-listen", s.Listen, "-hb-timeout", procHBTimeout.String()}
	case "node":
		return []string{"node", "-id", fmt.Sprint(uint64(s.ID)), "-listen", s.Listen, "-manager", s.Manager}
	case "serve":
		return []string{"-listen", s.Listen, "serve"}
	}
	return nil
}

// row is one scenario's table entry: the deployment shape that runs it,
// the fault/heal steps it executes between the clean load and convergence,
// and the expectations beyond the shared invariants.
type row struct {
	shape  func(d *drill) (*Report, error)
	steps  func(d *drill, t runtime.Task)
	expect func(r *Report)
}

var table = map[Scenario]row{
	MessageLoss:    {runFabric, messageLoss, nil},
	PartitionHeal:  {runFabric, partitionHeal, nil},
	CrashRestart:   {runFabric, crashRestart, nil},
	DeviceFaults:   {runFabric, deviceFaults, nil},
	Mixed:          {runFabric, mixed, nil},
	ProxyDrop:      {runServed, proxyDrop, expectProxyDrop},
	ProxyPartition: {runServed, proxyPartition, expectProxyPartition},
	Kill:           {runKill, killServe, nil},
	ProcKillTail:   {runProc, procKill(true), expectProc},
	ProcKillHead:   {runProc, procKill(false), expectProc},
	ProcPartition:  {runProc, procPartition, expectProc},
}

// Run executes one scenario end to end and returns its report. The
// report's Pass field is the verdict; err is reserved for harness failures:
// a deployment that never came up, or a drill that outran its budget.
func Run(cfg Config) (*Report, error) {
	if cfg.Scenario == Soak {
		return nil, errors.New("chaos: the soak has no client; run it with RunSoak")
	}
	r, ok := table[cfg.Scenario]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown scenario %q", cfg.Scenario)
	}
	if cfg.Budget == 0 {
		cfg.Budget = 120 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	d := &drill{cfg: cfg, row: r, rep: &Report{Scenario: cfg.Scenario, Seed: cfg.Seed}}
	return r.shape(d)
}

// keyState tracks one key's version history as the driver sees it.
type keyState struct {
	maxIssued int  // highest version ever sent
	lastAcked int  // highest version acknowledged
	poisoned  bool // a write may or may not have landed: final version ambiguous
	dupRisk   bool // an acked write was retried: a duplicate may trail it
}

func keyName(i int) []byte { return []byte(fmt.Sprintf("drill-%04d", i)) }

func valFor(i, ver int) []byte {
	return []byte(fmt.Sprintf("%d|drill-%04d", ver, i))
}

func parseVer(val []byte) (int, bool) {
	num, _, ok := strings.Cut(string(val), "|")
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(num)
	return v, err == nil
}

// client adapts one deployment's client to the shared sweep and checks.
type client interface {
	// Put writes one key; retried reports whether the client resent it.
	Put(t runtime.Task, key, val []byte) (retried bool, err error)
	Get(t runtime.Task, key []byte) ([]byte, error)
	// NotExecuted reports whether a failed Put provably never executed,
	// leaving the key exactly at its last acked version.
	NotExecuted(err error) bool
	// Reapplies reports whether a retried write of this client can still
	// land after a newer one (no dedup), so an acked-after-retry or failed
	// key may legitimately read below its acked floor.
	Reapplies() bool
}

// drill carries one run's moving parts. Key state and the report are only
// touched in task context — the execution contract is the lock.
type drill struct {
	cfg Config
	row row
	env runtime.Env
	rep *Report

	keys    []keyState
	clients []client // stripe s is driven through clients[s%len(clients)]
	writers int      // key stripes swept concurrently

	faulted bool // set when the fault lands; later acks count as AckedAfterFault
	stop    bool // background writers stop at their next key
	// aborted is set when Run gives up on the budget: the abandoned task
	// winds down instead of driving load nobody reads.
	aborted atomic.Bool

	fab   *fabric
	proxy *transport.FaultProxy // served: on the wire; proc: on one node's heartbeat link
	proc  *procs
}

// run executes body as the drill task on d.env, bounded by the budget, and
// drains the env. On timeout it returns a fresh report: the task may still
// be writing d.rep and must not share it with the caller.
func (d *drill) run(body func(t runtime.Task) error) (*Report, error) {
	var bodyErr error
	finished := false
	task := func(t runtime.Task) {
		start := t.Now()
		bodyErr = body(t)
		d.rep.Elapsed = t.Now() - start
		d.rep.Pass = len(d.rep.Violations) == 0
	}
	switch env := d.env.(type) {
	case *sim.Kernel:
		env.Spawn("drill", func(t runtime.Task) { task(t); finished = true })
		deadline := env.Now() + runtime.Time(d.cfg.Budget)
		for !finished && env.Now() < deadline {
			env.Run(env.Now() + 10*runtime.Millisecond)
		}
	case *wallclock.Env:
		done := make(chan struct{})
		env.Spawn("drill", func(t runtime.Task) { task(t); close(done) })
		select {
		case <-done:
			finished = true
			drain(env)
		case <-time.After(d.cfg.Budget):
			d.aborted.Store(true)
		}
	}
	if d.proc != nil {
		d.reap(finished)
	}
	if !finished {
		return &Report{Scenario: d.cfg.Scenario, Seed: d.cfg.Seed},
			fmt.Errorf("chaos: %s did not finish within its %v budget", d.cfg.Scenario, d.cfg.Budget)
	}
	return d.rep, bodyErr
}

// drain waits, bounded, for a wallclock env to empty once the drill shut
// its deployment down: a leaked task must not hang the harness.
func drain(env *wallclock.Env) {
	done := make(chan struct{})
	go func() { env.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
	}
}

func (d *drill) rounds() int {
	if d.cfg.Rounds > 0 {
		return d.cfg.Rounds
	}
	return 2
}

// sweeps runs n sweeps of the working set, each stripe on its own task
// (inline when there is one stripe, which keeps sim runs single-task).
func (d *drill) sweeps(t runtime.Task, n int, faulty bool) {
	for r := 0; r < n; r++ {
		if d.writers == 1 {
			d.sweep(t, 0, faulty)
		} else {
			runtime.WaitAll(t, d.stripes(func(q runtime.Task, s int) { d.sweep(q, s, faulty) })...)
		}
	}
}

// loaded runs window under load: every stripe's writer sweeps until
// window returns, then stops at its next key.
func (d *drill) loaded(t runtime.Task, window func()) {
	evs := d.stripes(func(q runtime.Task, s int) {
		for !d.stop && !d.aborted.Load() {
			d.sweep(q, s, true)
			q.Sleep(2 * runtime.Millisecond)
		}
	})
	window()
	d.stop = true
	runtime.WaitAll(t, evs...)
	d.stop = false
}

// stripes starts fn for every stripe on its own task and returns their
// completion events.
func (d *drill) stripes(fn func(q runtime.Task, stripe int)) []runtime.Event {
	evs := make([]runtime.Event, d.writers)
	for s := range evs {
		ev := d.env.MakeEvent()
		evs[s] = ev
		d.env.Spawn("writer", func(q runtime.Task) {
			defer ev.Fire(nil)
			fn(q, s)
		})
	}
	return evs
}

// sweep writes the next version of every key in the stripe and interleaves
// invariant-checked reads from the other half of the working set. Stripes
// partition the keys, so each key's writes are totally ordered.
func (d *drill) sweep(t runtime.Task, stripe int, faulty bool) {
	cl := d.clients[stripe%len(d.clients)]
	n := len(d.keys)
	for i := stripe; i < n; i += d.writers {
		if d.stop || d.aborted.Load() {
			return
		}
		ks := &d.keys[i]
		if !ks.poisoned {
			ver := ks.maxIssued + 1
			ks.maxIssued = ver
			var retried bool
			err := d.timed(t, func() (err error) {
				retried, err = cl.Put(t, keyName(i), valFor(i, ver))
				return err
			})
			switch {
			case err != nil:
				d.rep.WritesFailed++
				if !cl.NotExecuted(err) {
					ks.poisoned = true
				}
			default:
				ks.lastAcked = ver
				d.rep.WritesAcked++
				if d.faulted {
					d.rep.AckedAfterFault++
				}
				// Acked on a retry: without dedup a duplicate of this
				// version may still be in flight.
				ks.dupRisk = ks.dupRisk || (retried && cl.Reapplies())
			}
		}
		d.checkRead(t, cl, (i+n/2)%n, faulty)
	}
}

// timed runs one driver op and folds its duration into MaxStall.
func (d *drill) timed(t runtime.Task, op func() error) error {
	start := t.Now()
	err := op()
	if el := t.Now() - start; el > d.rep.MaxStall {
		d.rep.MaxStall = el
	}
	return err
}

// checkRead fetches key j and applies the read invariants: never beyond
// the issued ceiling, never below the acked floor at read start. During a
// fault window (faulty) unavailability is tolerated; value-level
// violations never are.
func (d *drill) checkRead(t runtime.Task, cl client, j int, faulty bool) {
	ks := &d.keys[j]
	floor := ks.lastAcked
	d.rep.Reads++
	var val []byte
	err := d.timed(t, func() (err error) {
		val, err = cl.Get(t, keyName(j))
		return err
	})
	switch {
	case errors.Is(err, core.ErrNotFound):
		if floor > 0 {
			d.rep.violate("lost acked write: key %04d read NotFound with lastAcked=%d", j, floor)
		}
	case err != nil:
		d.rep.ReadErrors++
		if !faulty {
			d.rep.violate("read of key %04d failed outside any fault window: %v", j, err)
		}
	default:
		ver, ok := parseVer(val)
		switch {
		case !ok:
			d.rep.violate("unparseable value for key %04d: %q", j, val)
		case ver > ks.maxIssued:
			d.rep.violate("phantom version: key %04d read v%d, max issued v%d", j, ver, ks.maxIssued)
		case ver < floor && !d.reapplied(ks, cl):
			d.rep.violate("stale read: key %04d read v%d, lastAcked v%d", j, ver, floor)
		}
	}
}

// reapplied reports whether key ks may legitimately read below its acked
// floor: only through a client that re-applies old writes, and only for a
// key with an ambiguous or retried write.
func (d *drill) reapplied(ks *keyState, cl client) bool {
	return cl.Reapplies() && (ks.poisoned || ks.dupRisk)
}

// finalCheck re-reads every key once the deployment converged: no error is
// tolerable now, and a key with no ambiguous write must read exactly its
// last acked version. replicas, when set, additionally checks each such
// key's committed value on every replica.
func (d *drill) finalCheck(t runtime.Task, replicas func(t runtime.Task, i int, val []byte)) {
	cl := d.clients[0]
	for i := range d.keys {
		ks := &d.keys[i]
		d.rep.Reads++
		val, err := cl.Get(t, keyName(i))
		if errors.Is(err, core.ErrNotFound) {
			if ks.lastAcked > 0 {
				d.rep.violate("lost acked write: key %04d NotFound after convergence, lastAcked=%d", i, ks.lastAcked)
			}
			continue
		}
		if err != nil {
			d.rep.ReadErrors++
			d.rep.violate("key %04d unreadable after convergence: %v", i, err)
			continue
		}
		ver, ok := parseVer(val)
		switch {
		case !ok:
			d.rep.violate("unparseable value for key %04d after convergence: %q", i, val)
		case ver > ks.maxIssued:
			d.rep.violate("phantom version after convergence: key %04d v%d > issued v%d", i, ver, ks.maxIssued)
		case ks.poisoned || ks.dupRisk:
			// Ambiguous history: any issued version at or above the acked
			// floor stands (any at all through a re-applying client).
			if ver < ks.lastAcked && !d.reapplied(ks, cl) {
				d.rep.violate("ambiguous key %04d regressed: v%d < acked v%d", i, ver, ks.lastAcked)
			}
		case ver != ks.lastAcked:
			d.rep.violate("final value mismatch: key %04d v%d, want acked v%d", i, ver, ks.lastAcked)
		case replicas != nil:
			replicas(t, i, val)
		}
	}
}

// settle probes each client until it completes a request cleanly: after a
// heal or restart, breakers still in cooloff must half-open and close
// before the fault-free checks, which tolerate no errors.
func (d *drill) settle(t runtime.Task) {
	deadline := t.Now() + 10*runtime.Second
	for _, cl := range d.clients {
		for t.Now() < deadline {
			if _, err := cl.Get(t, keyName(0)); err == nil || errors.Is(err, core.ErrNotFound) {
				break
			}
			t.Sleep(20 * runtime.Millisecond)
		}
	}
}

// waitFor polls cond once per millisecond up to budget.
func (d *drill) waitFor(t runtime.Task, budget runtime.Time, cond func() bool) bool {
	deadline := t.Now() + budget
	for t.Now() < deadline && !d.aborted.Load() {
		if cond() {
			return true
		}
		t.Sleep(runtime.Millisecond)
	}
	return cond()
}

// finish folds the tracker into the report, applies the scenario's
// expectations and snapshots the registry.
func (d *drill) finish() {
	d.rep.Keys = len(d.keys)
	for i := range d.keys {
		if d.keys[i].poisoned {
			d.rep.Poisoned++
		}
		if d.keys[i].dupRisk {
			d.rep.DupRisk++
		}
	}
	if d.row.expect != nil {
		d.row.expect(d.rep)
	}
	snap := d.cfg.Obs.Snapshot()
	d.rep.Metrics = &snap
}
