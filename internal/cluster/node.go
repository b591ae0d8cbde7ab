package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/netsim"
	"leed/internal/obs"
	"leed/internal/platform"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
)

// reqEnvelope carries a request through the fabric together with the
// requester's completion slot (the pre-allocated RDMA WRITE target, §3.5)
// and return address. The trace, when non-nil, accumulates per-stage spans
// as the request moves client -> net -> node -> engine -> device.
type reqEnvelope struct {
	req        *rpcproto.Request
	clientAddr netsim.Addr
	complete   runtime.Event
	trace      *obs.Trace
}

// viewMsg distributes a membership view.
type viewMsg struct{ view *View }

// hbMsg is a heartbeat beacon.
type hbMsg struct{ node NodeID }

// copyCmd directs a node to COPY one partition's data to dest.
type copyCmd struct {
	partition uint32
	dest      NodeID
}

// copyDone reports a finished COPY back to the control plane.
type copyDone struct {
	partition uint32
	dest      NodeID
}

// stopMsg is the shutdown poison pill: Cluster.Shutdown floods it through
// the fabric so every parked poller (including ones orphaned on a crashed
// node's abandoned RX queue) wakes up and exits. A receiver that sees it
// puts it back for its sibling pollers before returning.
type stopMsg struct{}

// NodeConfig wires one storage node.
type NodeConfig struct {
	Env         runtime.Env
	ID          NodeID
	Engine      *engine.Engine
	Endpoint    *netsim.Endpoint
	Platform    *platform.Node
	ManagerAddr netsim.Addr

	// CRRS enables chain replication with request shipping; when false,
	// GETs are served only by tails (§3.7 baseline).
	CRRS bool
	// CRAQMode replaces request shipping with CRAQ-style version queries
	// (Terrace & Freedman, ATC'09): a replica holding a dirty key asks the
	// tail for the committed state and then serves the read locally. The
	// paper rejects this design because it generates more internal traffic
	// across JBOFs (§3.7); the ablation bench quantifies that.
	CRAQMode bool

	RxCycles int64 // polling-core cycles to receive one message
	TxCycles int64 // polling-core cycles to send one message

	HeartbeatEvery runtime.Time
	// CopyBatch is the number of outstanding COPY transfers during
	// migration. Default 8.
	CopyBatch int

	// Obs receives the node's counter series (leed_node_*). May be nil;
	// the node then keeps unregistered instruments.
	Obs *obs.Registry
	// Tracer receives "node" stage observations for un-traced requests.
	Tracer *obs.Tracer
}

// NodeStats are cumulative counters.
type NodeStats struct {
	Gets, Puts, Dels  int64
	Shipped           int64 // CRRS GETs forwarded to the tail
	VersionQueries    int64 // CRAQ-mode round trips to the tail
	Nacks             int64
	Forwards          int64
	Acks              int64
	CopiesSent        int64
	CopiesReceived    int64
	DirtyCommitsAsNew int64 // dirty keys committed upon becoming tail
	CopyRetries       int64 // COPY items resent after a lost request/ack
	ShieldedCopies    int64 // COPY items dropped: a newer chain write was present
	Restarts          int64
	RecoveredParts    int64 // partitions rebuilt from flash on restart
	RecoveredSegments int64 // live segments replayed across those partitions
}

// Node is one LEED storage server: an engine plus the chain-replication and
// view logic that runs on the SmartNIC's polling and control cores.
type Node struct {
	cfg  NodeConfig
	env  runtime.Env
	view *View

	local     map[uint32]int // global partition -> engine partition id
	freeSlots []int
	dirty     map[uint32]map[string]int
	wasTail   map[uint32]bool
	// stale marks partitions this node no longer replicates. Their data is
	// kept — the control plane may still pick this node as the COPY source
	// for re-replication (§3.8.1: ranges are freed only after migration) —
	// and reclaimed lazily when the slot is needed or the partition
	// re-enters this node's chains.
	stale map[uint32]bool
	// fresh is the copy shield: keys this (still-unsynced) node absorbed
	// from live chain writes while a COPY into it is in flight. A COPY item
	// for such a key carries the migration snapshot — older than what the
	// chain already delivered — and must not overwrite it.
	fresh map[uint32]map[string]bool

	pollGate *gate
	stopped  bool
	// gen is bumped on Stop so procs from a dead incarnation (pollers,
	// heartbeats, copiers) drain instead of resuming after a Restart.
	gen     int
	numPoll int
	stats   NodeStats
	o       *nodeObs
}

// partTagKey is a reserved per-partition key holding the global partition
// number, written when a slot is allocated. It is what lets a restarted node
// identify which global partition each recovered store belonged to — slot
// assignment lives in DRAM and dies with the crash.
const partTagKey = "\x00leed:partition"

// gate serializes compute onto one core. run returns how long the task
// waited for the core — the "node" stage's queue component.
type gate struct {
	core *platform.Core
	res  *runtime.Resource
}

func (g *gate) run(p runtime.Task, cycles int64) runtime.Time {
	t0 := p.Now()
	g.res.Acquire(p, 1)
	wait := p.Now() - t0
	g.core.RunCycles(p, cycles)
	g.res.Release(1)
	return wait
}

// nodeObs is the node's registry binding: one counter per NodeStats field,
// labeled by node, plus the bound "node" stage. It is always constructed (a
// nil registry hands back working unregistered counters, a nil tracer a nil
// bind that records nothing), so call sites need no nil checks.
type nodeObs struct {
	node *obs.StageBind

	gets, puts, dels *obs.Counter
	shipped          *obs.Counter
	versionQueries   *obs.Counter
	nacks            *obs.Counter
	forwards         *obs.Counter
	acks             *obs.Counter
	copiesSent       *obs.Counter
	copiesReceived   *obs.Counter
	dirtyCommits     *obs.Counter
	copyRetries      *obs.Counter
	shieldedCopies   *obs.Counter
	restarts         *obs.Counter
	recoveredParts   *obs.Counter
	recoveredSegs    *obs.Counter
}

func newNodeObs(reg *obs.Registry, tr *obs.Tracer, id NodeID) *nodeObs {
	node := fmt.Sprintf("n%d", id)
	c := func(name string) *obs.Counter { return reg.Counter(name, "node", node) }
	return &nodeObs{
		node:           tr.Bind("node"),
		gets:           c("leed_node_gets_total"),
		puts:           c("leed_node_puts_total"),
		dels:           c("leed_node_dels_total"),
		shipped:        c("leed_node_shipped_total"),
		versionQueries: c("leed_node_version_queries_total"),
		nacks:          c("leed_node_nacks_total"),
		forwards:       c("leed_node_forwards_total"),
		acks:           c("leed_node_acks_total"),
		copiesSent:     c("leed_node_copies_sent_total"),
		copiesReceived: c("leed_node_copies_received_total"),
		dirtyCommits:   c("leed_node_dirty_commits_total"),
		copyRetries:    c("leed_node_copy_retries_total"),
		shieldedCopies: c("leed_node_shielded_copies_total"),
		restarts:       c("leed_node_restarts_total"),
		recoveredParts: c("leed_node_recovered_partitions_total"),
		recoveredSegs:  c("leed_node_recovered_segments_total"),
	}
}

// span attributes one slice of polling-core work to the "node" stage: into
// the request's trace when it carries one, directly into the tracer
// otherwise — never both, so stage histograms count each slice once.
func (o *nodeObs) span(tr *obs.Trace, queue, service runtime.Time) {
	if tr != nil {
		tr.Span("node", queue, service)
		return
	}
	o.node.Observe(queue, service)
}

// NewNode creates a node. Call Start to launch its procs.
func NewNode(cfg NodeConfig) *Node {
	if cfg.RxCycles == 0 {
		cfg.RxCycles = 1500
	}
	if cfg.TxCycles == 0 {
		cfg.TxCycles = 1200
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 5 * runtime.Millisecond
	}
	if cfg.CopyBatch == 0 {
		// Aggressive migration: the paper's COPY saturates spare bandwidth,
		// which is what produces Figure 9's visible throughput dips.
		cfg.CopyBatch = 32
	}
	n := &Node{
		cfg:     cfg,
		env:     cfg.Env,
		o:       newNodeObs(cfg.Obs, cfg.Tracer, cfg.ID),
		local:   make(map[uint32]int),
		dirty:   make(map[uint32]map[string]int),
		wasTail: make(map[uint32]bool),
		stale:   make(map[uint32]bool),
		fresh:   make(map[uint32]map[string]bool),
	}
	for pid := cfg.Engine.NumPartitions() - 1; pid >= 0; pid-- {
		n.freeSlots = append(n.freeSlots, pid)
	}
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Stats returns cumulative counters.
func (n *Node) Stats() NodeStats { return n.stats }

// View returns the node's current membership view (may lag the manager's).
func (n *Node) View() *View { return n.view }

// Start launches polling procs on the NIC cores (which draw polling power
// permanently, §4.1) and the heartbeat proc on the control core.
func (n *Node) Start() {
	plat := n.cfg.Platform
	numSSD := len(plat.SSDs)
	first := numSSD
	last := len(plat.Cores) - 1 // control core
	if first >= last {
		first = last - 1
		if first < 0 {
			first = 0
		}
	}
	// One shared gate models the polling cores' aggregate packet budget.
	pollCore := plat.Cores[first]
	n.pollGate = &gate{core: pollCore, res: n.env.MakeResource(1)}
	n.numPoll = 0
	for i := first; i < last; i++ {
		plat.Cores[i].PinPolling()
		n.numPoll++
	}
	n.launch()
}

// launch spawns the polling and heartbeat procs for the current incarnation.
func (n *Node) launch() {
	gen := n.gen
	for i := 0; i < n.numPoll; i++ {
		n.env.Spawn(fmt.Sprintf("node%d-poll", n.cfg.ID), func(p runtime.Task) { n.pollLoop(p, gen) })
	}
	n.env.Spawn(fmt.Sprintf("node%d-hb", n.cfg.ID), func(p runtime.Task) { n.heartbeatLoop(p, gen) })
}

// Stop makes the node fail-stop: its endpoint drops traffic and its loops
// cease issuing work. The node can come back later via Restart.
func (n *Node) Stop() {
	n.stopped = true
	n.gen++
	n.cfg.Endpoint.SetDown(true)
}

// Restart revives a crashed node. DRAM state is gone — the RX queue is
// replaced, and the partition map, dirty bits, and view are rebuilt from
// scratch — while each engine partition replays its persistent log through
// core recovery (§3.8.1). Recovered partitions are identified by their
// on-flash partition tag and re-enter the map as *stale*: a COPY from a
// synced survivor is the sync authority when one exists, and recovery is
// what saves the data when none does. The returned event fires once
// recovery completes and the node's procs are running again; callers then
// re-introduce it to the control plane via Manager.Join.
//
// Restart must not be called before the manager has detected the failure
// and removed the node: a faster-than-detection restart would leave chains
// pointing at an amnesiac replica the view machinery believes is current.
func (n *Node) Restart() runtime.Event {
	if !n.stopped {
		panic(fmt.Sprintf("cluster: Restart of running node %d", n.cfg.ID))
	}
	n.stopped = false
	n.cfg.Endpoint.ResetRX()
	n.cfg.Endpoint.SetDown(false)
	n.view = nil
	n.local = make(map[uint32]int)
	n.dirty = make(map[uint32]map[string]int)
	n.wasTail = make(map[uint32]bool)
	n.stale = make(map[uint32]bool)
	n.fresh = make(map[uint32]map[string]bool)
	n.freeSlots = nil
	n.stats.Restarts++
	n.o.restarts.Inc()
	done := n.env.MakeEvent()
	n.env.Spawn(fmt.Sprintf("node%d-recover", n.cfg.ID), func(p runtime.Task) {
		eng := n.cfg.Engine
		var free []int
		for pid := 0; pid < eng.NumPartitions(); pid++ {
			segs, err := eng.RecoverPartition(p, pid)
			if err != nil || segs == 0 {
				free = append(free, pid)
				continue
			}
			tag, _, gerr := eng.Execute(p, pid, rpcproto.OpGet, []byte(partTagKey), nil)
			if gerr != nil || len(tag) != 4 {
				// Data without a tag (or a duplicate below) is unidentifiable
				// residue — e.g. a slot reset in DRAM whose flash region was
				// never rewritten. Hand the slot back empty.
				eng.ResetPartition(pid)
				free = append(free, pid)
				continue
			}
			part := binary.LittleEndian.Uint32(tag)
			if _, dup := n.local[part]; dup {
				eng.ResetPartition(pid)
				free = append(free, pid)
				continue
			}
			n.local[part] = pid
			n.stale[part] = true
			n.stats.RecoveredParts++
			n.o.recoveredParts.Inc()
			n.stats.RecoveredSegments += int64(segs)
			n.o.recoveredSegs.Add(int64(segs))
		}
		// Descending order so pops allocate the lowest pid first, matching a
		// fresh node's behavior.
		sort.Sort(sort.Reverse(sort.IntSlice(free)))
		n.freeSlots = free
		n.launch()
		done.Fire(nil)
	})
	return done
}

func (n *Node) heartbeatLoop(p runtime.Task, gen int) {
	for !n.stopped && n.gen == gen {
		n.cfg.Endpoint.Send(n.cfg.ManagerAddr, 64, &hbMsg{node: n.cfg.ID})
		p.Sleep(n.cfg.HeartbeatEvery)
	}
}

func (n *Node) pollLoop(p runtime.Task, gen int) {
	rx := n.cfg.Endpoint.RX()
	for {
		m := rx.Get(p).(*netsim.Message)
		// The poison check comes before the liveness check: a crashed node's
		// pollers are parked with stale generations, and each must re-put the
		// pill so its siblings on the same (possibly orphaned) queue wake too.
		if _, stop := m.Payload.(stopMsg); stop {
			rx.Put(m)
			return
		}
		if n.stopped || n.gen != gen {
			return
		}
		rx0 := p.Now()
		wait := n.pollGate.run(p, n.cfg.RxCycles)
		switch pl := m.Payload.(type) {
		case *reqEnvelope:
			env := pl
			n.o.span(env.trace, wait, p.Now()-rx0-wait)
			n.env.Spawn("handler", func(hp runtime.Task) { n.handle(hp, env) })
		case *viewMsg:
			n.applyView(p, pl.view)
		case *copyCmd:
			cmd := pl
			n.env.Spawn("copy", func(cp runtime.Task) { n.runCopy(cp, cmd) })
		}
	}
}

// localPid returns (and allocates, if needed) the engine partition backing
// a global partition this node replicates. When no free slot remains, the
// oldest stale partition is evicted.
func (n *Node) localPid(part uint32) (int, bool) {
	if pid, ok := n.local[part]; ok {
		return pid, true
	}
	if len(n.freeSlots) == 0 {
		evict := uint32(0)
		found := false
		for sp := range n.stale {
			if !found || sp < evict {
				evict, found = sp, true
			}
		}
		if !found {
			return 0, false
		}
		pid := n.local[evict]
		n.cfg.Engine.ResetPartition(pid)
		delete(n.local, evict)
		delete(n.stale, evict)
		delete(n.dirty, evict)
		delete(n.wasTail, evict)
		n.freeSlots = append(n.freeSlots, pid)
	}
	pid := n.freeSlots[len(n.freeSlots)-1]
	n.freeSlots = n.freeSlots[:len(n.freeSlots)-1]
	n.local[part] = pid
	return pid, true
}

// tagPartition persists the global partition number into the store so a
// restarted node can re-map recovered data (see partTagKey).
func (n *Node) tagPartition(p runtime.Task, part uint32, pid int) {
	tag := make([]byte, 4)
	binary.LittleEndian.PutUint32(tag, part)
	n.cfg.Engine.Execute(p, pid, rpcproto.OpPut, []byte(partTagKey), tag)
}

// materializePid is localPid plus the durable partition tag: freshly
// allocated slots are tagged before they absorb any data.
func (n *Node) materializePid(p runtime.Task, part uint32) (int, bool) {
	if pid, ok := n.local[part]; ok {
		return pid, true
	}
	pid, ok := n.localPid(part)
	if !ok {
		return 0, false
	}
	n.tagPartition(p, part, pid)
	return pid, true
}

// ensureFresh resets a stale partition before it absorbs data for a new
// chain membership, so resurrected slots never leak old objects.
func (n *Node) ensureFresh(p runtime.Task, part uint32) {
	if !n.stale[part] {
		return
	}
	if pid, ok := n.local[part]; ok {
		n.cfg.Engine.ResetPartition(pid)
		n.tagPartition(p, part, pid)
	}
	delete(n.stale, part)
	delete(n.dirty, part)
	delete(n.wasTail, part)
	delete(n.fresh, part)
}

// applyView installs a newer view: frees partitions the node no longer
// replicates and commits pending dirty keys on partitions where this node
// just became the tail (§3.8.2: the penultimate node keeps the dirty bit
// until it becomes the tail, which then commits the write).
func (n *Node) applyView(p runtime.Task, v *View) {
	if n.view != nil && v.Epoch <= n.view.Epoch {
		return
	}
	n.view = v
	// Iterate in sorted partition order: the ack sends below must happen in
	// a reproducible order for drills to replay bit-identically.
	parts := make([]uint32, 0, len(n.local))
	for part := range n.local {
		parts = append(parts, part)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	for _, part := range parts {
		if v.ChainPos(part, n.cfg.ID) < 0 {
			// Keep the data: the control plane may still source a COPY
			// from it. It is reclaimed lazily (localPid/ensureFresh).
			n.stale[part] = true
		}
	}
	for _, part := range parts {
		if n.stale[part] {
			continue
		}
		if v.Synced(part, n.cfg.ID) {
			// Synced means the migration COPY has fully landed; the copy
			// shield has nothing left to protect.
			delete(n.fresh, part)
		}
		isTail := v.IsTail(part, n.cfg.ID)
		if isTail && !n.wasTail[part] {
			// Commit pending writes: clear dirty bits and propagate acks
			// backward so the rest of the chain unblocks reads.
			if dm := n.dirty[part]; len(dm) > 0 {
				chain := v.Chain(part)
				keys := make([]string, 0, len(dm))
				for key, cnt := range dm {
					if cnt > 0 {
						keys = append(keys, key)
					}
				}
				sort.Strings(keys)
				for _, key := range keys {
					n.stats.DirtyCommitsAsNew++
					n.o.dirtyCommits.Inc()
					if len(chain) > 1 {
						n.sendAck(p, chain[len(chain)-2], part, []byte(key))
					}
				}
				n.dirty[part] = make(map[string]int)
			}
		}
		n.wasTail[part] = isTail
	}
}

func (n *Node) setDirty(part uint32, key []byte) {
	dm := n.dirty[part]
	if dm == nil {
		dm = make(map[string]int)
		n.dirty[part] = dm
	}
	dm[string(key)]++
}

func (n *Node) clearDirty(part uint32, key []byte) {
	if dm := n.dirty[part]; dm != nil {
		if dm[string(key)] > 0 {
			dm[string(key)]--
		}
		if dm[string(key)] == 0 {
			delete(dm, string(key))
		}
	}
}

func (n *Node) isDirty(part uint32, key []byte) bool {
	dm := n.dirty[part]
	return dm != nil && dm[string(key)] > 0
}

// Dirty reports whether the key has an uncommitted write at this replica.
// Chaos drills use it to exclude in-flight keys from replica-agreement
// checks.
func (n *Node) Dirty(part uint32, key []byte) bool { return n.isDirty(part, key) }

// DirtyKeys counts keys currently marked dirty across the replica's
// partitions. After quiescence this is residue — marks whose backward ack
// was lost — which drills report as a metric.
func (n *Node) DirtyKeys() int {
	total := 0
	for _, dm := range n.dirty {
		for _, cnt := range dm {
			if cnt > 0 {
				total++
			}
		}
	}
	return total
}

// reply delivers a response to the client by one-sided WRITE into its
// pre-allocated completion slot, piggybacking available tokens (§3.5).
func (n *Node) reply(p runtime.Task, env *reqEnvelope, resp *rpcproto.Response) {
	if n.stopped {
		return
	}
	if resp.Epoch == 0 && n.view != nil {
		resp.Epoch = n.view.Epoch
	}
	if resp.Tokens == 0 {
		if pid, ok := n.local[env.req.Partition]; ok {
			resp.Tokens = int32(n.cfg.Engine.AvailableTokens(pid))
		}
	}
	tx0 := p.Now()
	wait := n.pollGate.run(p, n.cfg.TxCycles)
	n.o.span(env.trace, wait, p.Now()-tx0-wait)
	n.cfg.Endpoint.WriteTraced(env.clientAddr, resp.WireSize(), resp, env.complete, env.trace)
}

func (n *Node) nack(p runtime.Task, env *reqEnvelope) {
	n.stats.Nacks++
	n.o.nacks.Inc()
	epoch := uint64(0)
	if n.view != nil {
		epoch = n.view.Epoch
	}
	n.reply(p, env, &rpcproto.Response{ID: env.req.ID, Status: rpcproto.StatusNack, Epoch: epoch})
}

func (n *Node) sendAck(p runtime.Task, to NodeID, part uint32, key []byte) {
	if n.stopped {
		return
	}
	n.stats.Acks++
	n.o.acks.Inc()
	req := &rpcproto.Request{Op: rpcproto.OpAck, Partition: part, Key: key, Epoch: n.view.Epoch}
	n.pollGate.run(p, n.cfg.TxCycles)
	n.cfg.Endpoint.Send(netsim.Addr(to), req.WireSize(), &reqEnvelope{req: req})
}

// handle processes one request end to end on a handler proc.
func (n *Node) handle(p runtime.Task, env *reqEnvelope) {
	if n.stopped {
		return
	}
	req := env.req
	v := n.view
	if v == nil {
		n.nack(p, env)
		return
	}
	switch req.Op {
	case rpcproto.OpAck:
		n.handleAck(p, req)
	case rpcproto.OpCopy:
		n.handleCopy(p, env)
	case rpcproto.OpGet:
		n.handleGet(p, env)
	case rpcproto.OpPut, rpcproto.OpDel:
		n.handleWrite(p, env)
	default:
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
	}
}

func (n *Node) handleAck(p runtime.Task, req *rpcproto.Request) {
	n.clearDirty(req.Partition, req.Key)
	v := n.view
	pos := v.ChainPos(req.Partition, n.cfg.ID)
	if pos > 0 {
		n.sendAck(p, v.Chain(req.Partition)[pos-1], req.Partition, req.Key)
	}
}

func (n *Node) handleCopy(p runtime.Task, env *reqEnvelope) {
	req := env.req
	n.ensureFresh(p, req.Partition)
	pid, ok := n.materializePid(p, req.Partition)
	if !ok {
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
		return
	}
	if n.fresh[req.Partition][string(req.Key)] {
		// The chain already wrote a newer version of this key directly into
		// the joining replica; the COPY carries the older migration snapshot.
		// Ack without writing (§3.8.1's repair must not travel back in time).
		n.stats.ShieldedCopies++
		n.o.shieldedCopies.Inc()
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusOK})
		return
	}
	n.stats.CopiesReceived++
	n.o.copiesReceived.Inc()
	_, _, err := n.cfg.Engine.ExecuteTraced(p, pid, rpcproto.OpPut, req.Key, req.Value, env.trace)
	status := rpcproto.StatusOK
	if err != nil {
		status = rpcproto.StatusErr
	}
	n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: status})
}

func (n *Node) handleWrite(p runtime.Task, env *reqEnvelope) {
	req := env.req
	v := n.view
	if req.Epoch != v.Epoch {
		n.nack(p, env)
		return
	}
	chain := v.Chain(req.Partition)
	pos := v.ChainPos(req.Partition, n.cfg.ID)
	if pos < 0 || pos != int(req.Hop) {
		n.nack(p, env)
		return
	}
	n.ensureFresh(p, req.Partition)
	pid, ok := n.materializePid(p, req.Partition)
	if !ok {
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
		return
	}
	if !v.Synced(req.Partition, n.cfg.ID) {
		// Raise the copy shield: this direct chain write is newer than any
		// in-flight COPY item for the same key.
		fm := n.fresh[req.Partition]
		if fm == nil {
			fm = make(map[string]bool)
			n.fresh[req.Partition] = fm
		}
		fm[string(req.Key)] = true
	}
	isTail := pos == len(chain)-1
	if !isTail {
		n.setDirty(req.Partition, req.Key)
	}
	if req.Op == rpcproto.OpPut {
		n.stats.Puts++
		n.o.puts.Inc()
	} else {
		n.stats.Dels++
		n.o.dels.Inc()
	}
	_, _, err := n.cfg.Engine.ExecuteTraced(p, pid, req.Op, req.Key, req.Value, env.trace)
	if err != nil && err != core.ErrNotFound {
		if !isTail {
			n.clearDirty(req.Partition, req.Key)
		}
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
		return
	}
	status := rpcproto.StatusOK
	if err == core.ErrNotFound {
		status = rpcproto.StatusNotFound
	}
	if !isTail {
		// Forward along the chain (§3.7).
		n.stats.Forwards++
		n.o.forwards.Inc()
		fwd := *req
		fwd.Hop++
		tx0 := p.Now()
		wait := n.pollGate.run(p, n.cfg.TxCycles)
		n.o.span(env.trace, wait, p.Now()-tx0-wait)
		n.cfg.Endpoint.SendTraced(netsim.Addr(chain[pos+1]), fwd.WireSize(),
			&reqEnvelope{req: &fwd, clientAddr: env.clientAddr, complete: env.complete, trace: env.trace},
			env.trace)
		return
	}
	// Tail: commitment point. Reply to the client and ack backward.
	n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: status})
	if pos > 0 {
		n.sendAck(p, chain[pos-1], req.Partition, req.Key)
	}
}

func (n *Node) handleGet(p runtime.Task, env *reqEnvelope) {
	req := env.req
	v := n.view
	if req.Epoch != v.Epoch {
		n.nack(p, env)
		return
	}
	chain := v.Chain(req.Partition)
	pos := v.ChainPos(req.Partition, n.cfg.ID)
	if pos < 0 || !v.Synced(req.Partition, n.cfg.ID) {
		n.nack(p, env)
		return
	}
	isTail := pos == len(chain)-1
	if !isTail {
		if !n.cfg.CRRS {
			// Classic chain replication: only the tail serves reads.
			n.nack(p, env)
			return
		}
		if n.isDirty(req.Partition, req.Key) {
			if n.cfg.CRAQMode {
				// CRAQ-style: fetch the committed state from the tail,
				// then answer the client from here. One extra cross-JBOF
				// value transfer per dirty read — the traffic the paper's
				// shipping design avoids (§3.7).
				n.stats.VersionQueries++
				n.o.versionQueries.Inc()
				fwd := *req
				fwd.Shipped = true
				done := n.env.MakeEvent()
				n.pollGate.run(p, n.cfg.TxCycles)
				n.cfg.Endpoint.Send(netsim.Addr(chain[len(chain)-1]), fwd.WireSize(),
					&reqEnvelope{req: &fwd, clientAddr: n.cfg.Endpoint.Addr(), complete: done})
				deadline, cancel := runtime.CancelableTimer(n.env, 20*runtime.Millisecond)
				idx := runtime.WaitAny(p, done, deadline)
				cancel()
				if idx != 0 {
					n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
					return
				}
				resp := done.Value().(*netsim.Message).Payload.(*rpcproto.Response)
				n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: resp.Status, Value: resp.Value})
				return
			}
			// Uncommitted write in flight: ship the read to the tail,
			// which always holds the latest committed value (§3.7).
			n.stats.Shipped++
			n.o.shipped.Inc()
			fwd := *req
			fwd.Shipped = true
			tx0 := p.Now()
			wait := n.pollGate.run(p, n.cfg.TxCycles)
			n.o.span(env.trace, wait, p.Now()-tx0-wait)
			n.cfg.Endpoint.SendTraced(netsim.Addr(chain[len(chain)-1]), fwd.WireSize(),
				&reqEnvelope{req: &fwd, clientAddr: env.clientAddr, complete: env.complete, trace: env.trace},
				env.trace)
			return
		}
	}
	pid, ok := n.materializePid(p, req.Partition)
	if !ok {
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
		return
	}
	n.stats.Gets++
	n.o.gets.Inc()
	val, _, err := n.cfg.Engine.ExecuteTraced(p, pid, rpcproto.OpGet, req.Key, nil, env.trace)
	switch {
	case err == core.ErrNotFound:
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusNotFound})
	case err != nil:
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusErr})
	default:
		n.reply(p, env, &rpcproto.Response{ID: req.ID, Status: rpcproto.StatusOK, Value: val})
	}
}

// copyAckTimeout bounds how long a COPY sender waits for any one item's
// acknowledgment before retrying or giving up on it for the round.
const copyAckTimeout = 25 * runtime.Millisecond

// copyRounds bounds COPY retry rounds; the final copyDone is sent even if
// items remain unacked (e.g. the destination died), so the control plane is
// never stuck waiting on a migration that cannot finish.
const copyRounds = 5

// runCopy streams one partition's objects to dest via COPY requests with a
// bounded outstanding window, then notifies the control plane (§3.8.1).
// COPY rides the same fabric as everything else, so requests and acks can be
// lost; unacked items are resent in bounded retry rounds — a silently
// dropped item would leave a permanent hole in the repaired replica.
func (n *Node) runCopy(p runtime.Task, cmd *copyCmd) {
	gen := n.gen
	pid, ok := n.local[cmd.partition]
	if !ok {
		n.cfg.Endpoint.Send(n.cfg.ManagerAddr, 64, &copyDone{partition: cmd.partition, dest: cmd.dest})
		return
	}
	store := n.cfg.Engine.Partition(pid).Store
	type copyItem struct{ key, val []byte }
	var items []copyItem
	store.Range(p, func(key, val []byte) bool {
		if n.stopped || n.gen != gen {
			return false
		}
		items = append(items, copyItem{
			key: append([]byte(nil), key...),
			val: append([]byte(nil), val...),
		})
		return true
	})
	for round := 0; round < copyRounds && len(items) > 0; round++ {
		if n.stopped || n.gen != gen {
			return
		}
		if round > 0 {
			n.stats.CopyRetries += int64(len(items))
			n.o.copyRetries.Add(int64(len(items)))
		}
		window := n.env.MakeResource(int64(n.cfg.CopyBatch))
		acked := make([]bool, len(items))
		var pending []runtime.Event
		for i, it := range items {
			if n.stopped || n.gen != gen {
				return
			}
			window.Acquire(p, 1)
			n.stats.CopiesSent++
			n.o.copiesSent.Inc()
			req := &rpcproto.Request{
				ID: uint64(n.stats.CopiesSent), Op: rpcproto.OpCopy,
				Partition: cmd.partition, Key: it.key, Value: it.val,
			}
			done := n.env.MakeEvent()
			i := i
			released := false
			releaseOnce := func() {
				if !released {
					released = true
					window.Release(1)
				}
			}
			// The window slot frees on ack OR timeout — a lost response must
			// not wedge the window and deadlock the whole migration.
			done.OnFire(func(v any) {
				if m, ok := v.(*netsim.Message); ok {
					if r, ok := m.Payload.(*rpcproto.Response); ok && r.Status == rpcproto.StatusOK {
						acked[i] = true
					}
				}
				releaseOnce()
			})
			n.env.After(copyAckTimeout, releaseOnce)
			pending = append(pending, done)
			n.pollGate.run(p, n.cfg.TxCycles)
			n.cfg.Endpoint.Send(netsim.Addr(cmd.dest), req.WireSize(),
				&reqEnvelope{req: req, clientAddr: n.cfg.Endpoint.Addr(), complete: done})
		}
		for _, ev := range pending {
			if !ev.Fired() {
				// Bound the wait: the destination may have failed mid-copy.
				deadline, cancel := runtime.CancelableTimer(n.env, copyAckTimeout)
				runtime.WaitAny(p, ev, deadline)
				cancel()
			}
		}
		left := items[:0]
		for i, it := range items {
			if !acked[i] {
				left = append(left, it)
			}
		}
		items = left
	}
	n.cfg.Endpoint.Send(n.cfg.ManagerAddr, 64, &copyDone{partition: cmd.partition, dest: cmd.dest})
}
