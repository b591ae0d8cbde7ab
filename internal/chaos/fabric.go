package chaos

import (
	"math/rand"
	"sort"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/flashsim"
	"leed/internal/netsim"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
)

// The fabric shape: a multi-JBOF CRRS cluster over a netsim fabric, on the
// sim kernel or on real goroutines. Faults are netsim link loss and
// partitions, node crash-restarts and device fault injectors.

// fabricKeys is the tracked working set per backend: real sleeps
// (heartbeats, detection windows, quiesce stability) dominate on
// wallclock, so it drives fewer keys there.
func fabricKeys(b Backend) int {
	if b == BackendWallclock {
		return 24
	}
	return 48
}

type fabric struct {
	rng    *rand.Rand
	c      *cluster.Cluster
	faults *netsim.Faults
	// injectors by node, one per SSD.
	injectors map[cluster.NodeID][]*flashsim.FaultInjector
}

// netsimClient adapts cluster.Client: its retries carry no dedup, so a
// retried write can land after a newer one.
type netsimClient struct{ cl *cluster.Client }

func (c netsimClient) Put(t runtime.Task, key, val []byte) (bool, error) {
	before := c.cl.Stats().Retries
	_, err := c.cl.Put(t, key, val)
	return c.cl.Stats().Retries > before, err
}

func (c netsimClient) Get(t runtime.Task, key []byte) ([]byte, error) {
	val, _, err := c.cl.Get(t, key)
	return val, err
}

// NotExecuted: exhausted retries leave the write ambiguous.
func (netsimClient) NotExecuted(error) bool { return false }
func (netsimClient) Reapplies() bool        { return true }

func runFabric(d *drill) (*Report, error) {
	cfg := d.cfg
	if cfg.Backend == BackendWallclock {
		d.env = wallclock.New()
	} else {
		k := sim.New()
		defer k.Close()
		d.env = k
	}
	env := d.env
	// On the wallclock backend the 20ms default detection window is within
	// real scheduler jitter (worse under -race): a healthy node whose
	// heartbeat task is preempted would be spuriously removed, turning a
	// bounded-failure drill into an unbounded one. Widen it; detection
	// latency is not what these drills measure.
	var hbTimeout runtime.Time
	if cfg.Backend == BackendWallclock {
		hbTimeout = 250 * runtime.Millisecond
	}
	// Partition-heal runs 4 JBOFs with R=3 so some chains avoid the
	// partitioned victim: those keys must keep acking through the window.
	jbofs := 3
	if cfg.Scenario == PartitionHeal {
		jbofs = 4
	}
	f := &fabric{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		injectors: make(map[cluster.NodeID][]*flashsim.FaultInjector),
	}
	f.c = cluster.New(cluster.Config{
		Env:              env,
		Obs:              cfg.Obs,
		HeartbeatTimeout: hbTimeout,
		NumJBOFs:         jbofs,
		SSDsPerJBOF:      4,
		SSDCapacity:      48 << 20,
		NumPartitions:    8,
		R:                3,
		KeyLen:           16,
		ValLen:           64,
		NumClients:       1,
		CRRS:             true,
		FlowControl:      true,
		Swap:             true,
		FlushEvery:       2 * runtime.Millisecond,
		WrapDevice: func(id cluster.NodeID, ssd int, dev flashsim.Device) flashsim.Device {
			fi := flashsim.NewFaultInjector(env, dev, cfg.Seed^(int64(id)*131+int64(ssd)))
			f.injectors[id] = append(f.injectors[id], fi)
			return fi
		},
	})
	f.faults = f.c.Fabric.InstallFaults(cfg.Seed + 1)
	d.fab = f
	d.keys = make([]keyState, fabricKeys(cfg.Backend))
	d.clients, d.writers = []client{netsimClient{f.c.Clients[0]}}, 1
	f.c.Start()

	return d.run(func(t runtime.Task) error {
		// Shutdown poisons every poller, so a wallclock env empties once
		// in-flight timers (client timeouts, copy-ack timers) expire.
		defer f.c.Shutdown()
		if err := f.c.AwaitReady(t, 5*runtime.Second); err != nil {
			d.rep.violate("cluster never became ready: %v", err)
			return nil
		}
		d.sweeps(t, 1, false) // version 1 of every key, fault-free
		d.row.steps(d, t)
		// All faults healed by the steps; wait for convergence, then verify.
		if f.quiesce(d, t) {
			d.finalCheck(t, f.checkReplicas(d))
		} else {
			d.rep.violate("no convergence: %s after heal", f.c.Manager)
		}
		f.fold(d.rep)
		d.finish()
		return nil
	})
}

// pickNodes draws n distinct member node ids from the seeded stream.
func (f *fabric) pickNodes(n int) []cluster.NodeID {
	ids := append([]cluster.NodeID(nil), f.c.NodeIDs...)
	f.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids[:n]
}

func messageLoss(d *drill, t runtime.Task) {
	pair := d.fab.pickNodes(2)
	d.fab.faults.SetDropBoth(netsim.Addr(pair[0]), netsim.Addr(pair[1]), 0.25)
	d.sweeps(t, d.rounds(), true)
	d.fab.faults.HealAll()
	d.sweeps(t, 1, true)
}

func partitionHeal(d *drill, t runtime.Task) {
	f := d.fab
	victim := f.pickNodes(1)[0]
	for _, id := range f.c.NodeIDs {
		if id != victim {
			f.faults.Partition(netsim.Addr(victim), netsim.Addr(id))
		}
	}
	d.sweeps(t, 1, true) // the window: chains through the victim stall
	f.faults.HealAll()
	d.sweeps(t, d.rounds(), true)
}

func crashRestart(d *drill, t runtime.Task) {
	victim := d.fab.pickNodes(1)[0]
	d.fab.c.Crash(victim)
	d.sweeps(t, 1, true) // ops ride out detection and chain repair
	if d.fab.restart(d, t, victim) {
		d.sweeps(t, d.rounds(), true)
	}
}

func deviceFaults(d *drill, t runtime.Task) {
	victim := d.fab.pickNodes(1)[0]
	for _, fi := range d.fab.injectors[victim] {
		fi.ErrorRate = 0.15
	}
	d.sweeps(t, d.rounds(), true)
	for _, fi := range d.fab.injectors[victim] {
		fi.ErrorRate = 0
	}
	d.sweeps(t, 1, true)
}

func mixed(d *drill, t runtime.Task) {
	f := d.fab
	picks := f.pickNodes(3)
	crashed, a, b := picks[0], picks[1], picks[2]
	f.c.Crash(crashed)
	f.faults.SetDropBoth(netsim.Addr(a), netsim.Addr(b), 0.15)
	d.sweeps(t, 1, true)
	f.faults.HealAll()
	if f.restart(d, t, crashed) {
		d.sweeps(t, 1, true)
	}
}

// restart waits for failure detection to remove a crashed node, restarts
// it through flash recovery, and waits for it to re-sync.
func (f *fabric) restart(d *drill, t runtime.Task, victim cluster.NodeID) bool {
	if !d.waitFor(t, 5*runtime.Second, func() bool {
		_, still := f.c.Manager.State(victim)
		return !still
	}) {
		d.rep.violate("failure detection never removed crashed node %d", victim)
		return false
	}
	done, err := f.c.Restart(victim)
	if err != nil {
		d.rep.violate("restart refused: %v", err)
		return false
	}
	if !done.Fired() {
		t.Wait(done)
	}
	if !d.waitFor(t, 20*runtime.Second, func() bool {
		s, ok := f.c.Manager.State(victim)
		return ok && s == cluster.StateRunning && f.c.Manager.PendingCopies() == 0
	}) {
		d.rep.violate("restarted node %d never re-synced: %s", victim, f.c.Manager)
		return false
	}
	return true
}

// quiesce waits until the view/copy machinery converges: no pending copies
// and a manager epoch that stays put for 50 consecutive milliseconds.
func (f *fabric) quiesce(d *drill, t runtime.Task) bool {
	m := f.c.Manager
	return d.waitFor(t, 30*runtime.Second, func() bool {
		if m.PendingCopies() != 0 {
			return false
		}
		epoch := m.Epoch()
		t.Sleep(50 * runtime.Millisecond)
		return m.PendingCopies() == 0 && m.Epoch() == epoch
	})
}

// checkReplicas returns the final check's replica-agreement hook: every
// synced, non-dirty chain member holds the committed value of a clean key.
func (f *fabric) checkReplicas(d *drill) func(t runtime.Task, i int, want []byte) {
	view := f.c.Manager.View()
	return func(t runtime.Task, i int, want []byte) {
		key := keyName(i)
		part := cluster.PartitionOf(core.HashKey(key), view.NumPart)
		for _, id := range view.Chain(part) {
			if !view.Synced(part, id) || f.c.Nodes[id].Dirty(part, key) {
				continue // unsynced, or unacked residue; the tail is authoritative
			}
			got, have, err := f.c.ReplicaGet(t, id, part, key)
			switch {
			case !have:
				d.rep.violate("replica hole: node %d in chain of part %d has no slot for it", id, part)
			case err != nil:
				d.rep.violate("replica divergence: node %d part %d key %04d: %v", id, part, i, err)
			case string(got) != string(want):
				d.rep.violate("replica divergence: node %d part %d key %04d has %q, committed %q", id, part, i, got, want)
			}
		}
	}
}

// fold copies the cluster's counters into the report.
func (f *fabric) fold(rep *Report) {
	c := f.c
	for _, cl := range c.Clients {
		st := cl.Stats()
		rep.Backoffs += st.Backoffs
		rep.Retries += st.Retries
		rep.Nacks += st.Nacks
		rep.Timeouts += st.Timeouts
	}
	fs := f.faults.Stats()
	rep.DroppedByLoss = fs.DroppedByLoss
	rep.DroppedByPartition = fs.DroppedByPartition
	rep.Delayed = fs.Delayed
	ids := append([]cluster.NodeID(nil), c.NodeIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := c.Nodes[id].Stats()
		rep.CopyRetries += st.CopyRetries
		rep.ShieldedCopies += st.ShieldedCopies
		rep.Restarts += st.Restarts
		rep.RecoveredParts += st.RecoveredParts
		rep.DirtyResidue += int64(c.Nodes[id].DirtyKeys())
		for _, fi := range f.injectors[id] {
			rep.DeviceInjected += fi.Injected()
		}
	}
	rep.PartitionsLost = c.Manager.PartitionsLost()
	rep.FinalEpoch = c.Manager.Epoch()
}
