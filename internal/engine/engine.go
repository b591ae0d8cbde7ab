// Package engine implements LEED's intra-JBOF I/O execution (§3.4) and
// write-imbalance handling (§3.6) on one SmartNIC JBOF: a static core-to-SSD
// mapping, per-partition token-based admission (active queue) with FIFO
// waiting queues, background compaction, and data swapping that redirects
// overloaded PUTs to the least-loaded co-located SSD.
package engine

import (
	"fmt"
	"sync/atomic"

	"leed/internal/core"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/platform"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
)

// Config describes one engine instance over a platform node.
type Config struct {
	Env runtime.Env
	// Node is the platform model the engine charges compute and memory
	// movement against. Optional: with a nil Node the engine runs in
	// pure-device mode — Devices alone define the drive set, no core gates
	// or memory bus are modeled, and store compute is uncharged (NopExec).
	// The server front-end uses this mode: on real hardware the host CPU
	// is real, so only the device path needs modeling.
	Node *platform.Node

	// Devices, when non-nil, overrides Node.SSDs as the backing device per
	// drive index (len must equal len(Node.SSDs)). Chaos harnesses use it to
	// interpose flashsim.FaultInjector wrappers; the SSDs still provide the
	// timing/capacity model that sizes the engine. With a nil Node, Devices
	// is required and is the drive set.
	Devices []flashsim.Device

	// PartitionsPerSSD is the number of virtual nodes per drive (the
	// paper's prototype uses 32; simulations typically use fewer).
	PartitionsPerSSD int
	// Geometry sizes each partition's store. Required.
	Geometry core.Geometry
	// PartitionBytes is each partition's device region size. Required.
	PartitionBytes int64

	// TokensPerPartition sizes each partition's active queue, in token
	// units (a GET costs 2, a PUT 3, a DEL 2 — one token per NVMe access,
	// following the paper's empirical assignment). Default 48.
	TokensPerPartition int64
	// SwapEnabled turns on intra-JBOF data swapping.
	SwapEnabled bool
	// SwapThreshold is the home drive's waiting-queue occupancy that
	// triggers swapping, provided an idle helper exists. Defaults to
	// TokensPerPartition: the home must be oversubscribed by a full
	// admission window before writes are redirected.
	SwapThreshold int

	SubCompactions int
	Prefetch       bool
	Costs          core.CostModel
	// CompactEvery is the background compaction check period. Default 1ms.
	CompactEvery runtime.Time
	// FlushEvery, when non-zero, makes each partition's compactor proc
	// persist the store superblock periodically. Without it a superblock is
	// written only when compaction moves a log head, so a crash early in a
	// partition's life recovers nothing (§3.8.1's replay needs a root).
	FlushEvery runtime.Time

	// ModelMemBW serializes each command's data movement through the
	// node's onboard memory pipe (platform.Spec.MemBWBytesPS). The paper
	// identifies this 4390MB/s bus as the Stingray's other hard ceiling:
	// it "bounds the max number of concurrent operations" (§4.8).
	ModelMemBW bool

	// Obs and Tracer, when set, bind the engine to a metrics registry and
	// attribute each executed command to the engine/cpu/ssd trace stages
	// (token admission wait vs store execution, with the store's CPU/SSD
	// split from core.OpStats). Both optional.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	// ObsNode labels this engine's series (e.g. the node address).
	ObsNode string
}

// memBus models the onboard DRAM bandwidth as a serialization pipe: each
// transfer occupies the bus for bytes/BW, queued FIFO by busy-until time.
type memBus struct {
	bytesPS  int64
	busyFree runtime.Time
	waited   runtime.Time // cumulative queueing delay, for diagnostics
}

// transfer blocks the proc until the bus has carried n bytes for it.
func (b *memBus) transfer(p runtime.Task, n int64) {
	if b == nil || n <= 0 {
		return
	}
	now := p.Now()
	start := now
	if b.busyFree > start {
		start = b.busyFree
	}
	dur := runtime.Time(n * int64(runtime.Second) / b.bytesPS)
	b.busyFree = start + dur
	b.waited += start - now
	p.Sleep(b.busyFree - now)
}

// Partition is one virtual node: a store plus its admission state.
type Partition struct {
	ID     int
	SSD    int
	Store  *core.Store
	tokens *runtime.Resource
}

// TokenCost returns the admission cost of an operation: one token per NVMe
// access (§3.4: token quantity per command decided empirically).
func TokenCost(op rpcproto.Op) int64 {
	switch op {
	case rpcproto.OpPut, rpcproto.OpCopy:
		return 3
	case rpcproto.OpGet, rpcproto.OpDel:
		return 2
	}
	return 1
}

// Engine is one JBOF's storage executor.
type Engine struct {
	cfg    Config
	env    runtime.Env
	parts  []*Partition
	execs  []*coreGate // one per SSD
	membus *memBus     // nil unless ModelMemBW
	// gen is bumped by Stop so compactors from an old incarnation drain even
	// if the engine restarts before they wake; atomic because on the
	// wallclock backend Stop may be called from outside any task (e.g. the
	// goroutine that owns the Env).
	gen atomic.Int64

	stats EngineStats
	o     *engObs
}

// engObs is the engine's registry binding: counters plus the untraced
// commands' engine/cpu/ssd stages, bound once. Nil receiver methods no-op.
type engObs struct {
	engine, cpu, ssd               *obs.StageBind
	executed, swapped, compactions *obs.Counter
}

func newEngObs(reg *obs.Registry, tr *obs.Tracer, node string) *engObs {
	l := []string{"node", node}
	return &engObs{
		engine:      tr.Bind("engine"),
		cpu:         tr.Bind("cpu"),
		ssd:         tr.Bind("ssd"),
		executed:    reg.Counter("leed_engine_executed_total", l...),
		swapped:     reg.Counter("leed_engine_swapped_total", l...),
		compactions: reg.Counter("leed_engine_compactions_total", l...),
	}
}

func (o *engObs) exec() {
	if o == nil {
		return
	}
	o.executed.Inc()
}

func (o *engObs) swap() {
	if o == nil {
		return
	}
	o.swapped.Inc()
}

func (o *engObs) compact() {
	if o == nil {
		return
	}
	o.compactions.Inc()
}

// observeExec attributes one executed command: the engine span (admission
// queue vs store execution) plus the store's CPU/SSD split. A command that
// carries a trace records into it (the trace's End aggregates); an
// untraced command aggregates directly.
func (e *Engine) observeExec(tr *obs.Trace, queue, service runtime.Time, st core.OpStats) {
	if tr != nil {
		tr.Span("engine", queue, service)
		tr.Span("cpu", 0, st.CPU)
		tr.Span("ssd", 0, st.SSD)
		return
	}
	if e.o != nil {
		e.o.engine.Observe(queue, service)
		e.o.cpu.Observe(0, st.CPU)
		e.o.ssd.Observe(0, st.SSD)
	}
}

// EngineStats are cumulative counters.
type EngineStats struct {
	Executed    int64
	Swapped     int64
	Compactions int64
}

// coreGate serializes store compute phases onto one CPU core.
type coreGate struct {
	core *platform.Core
	res  *runtime.Resource
}

// Compute implements core.Exec.
func (g *coreGate) Compute(t runtime.Task, cycles int64) {
	g.res.Acquire(t, 1)
	g.core.RunCycles(t, cycles)
	g.res.Release(1)
}

// New builds an engine: one store per (SSD, partition slot), with stores on
// the same JBOF registered as swap peers of one another.
func New(cfg Config) *Engine {
	if cfg.PartitionsPerSSD == 0 {
		cfg.PartitionsPerSSD = 2
	}
	if cfg.TokensPerPartition == 0 {
		cfg.TokensPerPartition = 48
	}
	if cfg.SwapThreshold == 0 {
		cfg.SwapThreshold = int(cfg.TokensPerPartition)
	}
	if cfg.CompactEvery == 0 {
		cfg.CompactEvery = runtime.Millisecond
	}
	e := &Engine{cfg: cfg, env: cfg.Env}
	if cfg.Obs != nil || cfg.Tracer != nil {
		e.o = newEngObs(cfg.Obs, cfg.Tracer, cfg.ObsNode)
	}
	n := cfg.Node
	if n == nil && len(cfg.Devices) == 0 {
		panic("engine: Config needs a Node or Devices")
	}
	if n != nil && cfg.ModelMemBW && n.Spec.MemBWBytesPS > 0 {
		e.membus = &memBus{bytesPS: n.Spec.MemBWBytesPS}
	}
	numSSD := len(cfg.Devices)
	if n != nil {
		numSSD = len(n.SSDs)
	}
	g := cfg.Geometry
	needed := g.KeyLogBytes + g.ValLogBytes + g.SwapLogBytes + 4096
	if needed > cfg.PartitionBytes {
		panic(fmt.Sprintf("engine: geometry (%d bytes) exceeds partition size %d", needed, cfg.PartitionBytes))
	}
	cap0 := int64(0)
	if n != nil {
		cap0 = n.SSDs[0].Capacity()
	} else {
		cap0 = cfg.Devices[0].Capacity()
	}
	if int64(cfg.PartitionsPerSSD)*cfg.PartitionBytes > cap0 {
		panic(fmt.Sprintf("engine: %d partitions of %d bytes exceed SSD capacity %d",
			cfg.PartitionsPerSSD, cfg.PartitionBytes, cap0))
	}
	// Static core mapping (§3.4): the first min(numSSD, cores) cores drive
	// storage; remaining cores are left to the caller for polling/control.
	// Pure-device mode has no modeled cores: execs stays empty and each
	// store's Exec defaults to NopExec.
	if n != nil {
		for i := 0; i < numSSD; i++ {
			c := n.Cores[i%len(n.Cores)]
			e.execs = append(e.execs, &coreGate{core: c, res: cfg.Env.MakeResource(1)})
		}
	}
	for ssd := 0; ssd < numSSD; ssd++ {
		var dev flashsim.Device
		if cfg.Devices != nil {
			dev = cfg.Devices[ssd]
		} else {
			dev = n.SSDs[ssd]
		}
		var exec core.Exec
		if e.execs != nil {
			exec = e.execs[ssd]
		}
		for slot := 0; slot < cfg.PartitionsPerSSD; slot++ {
			pid := len(e.parts)
			sc := core.StoreConfigFor(cfg.Geometry, core.Config{
				Env:            cfg.Env,
				Device:         dev,
				DevID:          uint8(ssd),
				Exec:           exec,
				Costs:          cfg.Costs,
				RegionOff:      int64(slot) * cfg.PartitionBytes,
				SubCompactions: cfg.SubCompactions,
				Prefetch:       cfg.Prefetch,
			})
			st := core.NewStore(sc)
			e.parts = append(e.parts, &Partition{
				ID: pid, SSD: ssd, Store: st,
				tokens: cfg.Env.MakeResource(cfg.TokensPerPartition),
			})
		}
	}
	// Register swap peers: stores on *different* SSDs may lend swap space.
	e.wirePeers()
	return e
}

// wirePeers registers same-slot stores on different SSDs as swap peers.
func (e *Engine) wirePeers() {
	for _, a := range e.parts {
		for _, b := range e.parts {
			if a.SSD != b.SSD && a.ID%e.cfg.PartitionsPerSSD == b.ID%e.cfg.PartitionsPerSSD {
				a.Store.AddPeer(b.Store)
			}
		}
	}
}

// ResetPartition replaces a partition's store with a fresh, empty one —
// used when a node stops replicating a key range and the space is handed
// back. Swap peers are re-wired to the new store.
func (e *Engine) ResetPartition(pid int) {
	pt := e.parts[pid]
	cfg := pt.Store.Config()
	pt.Store = core.NewStore(cfg)
	e.wirePeers()
}

// RecoverPartition rebuilds partition pid's store from flash after a crash:
// a fresh store over the same device region replays the superblock and the
// key log past its persisted tail (core recovery, §3.8.1). It returns the
// number of live segments recovered; 0 with nil error means no superblock
// was ever persisted and the partition is treated as empty.
func (e *Engine) RecoverPartition(p runtime.Task, pid int) (int, error) {
	pt := e.parts[pid]
	cfg := pt.Store.Config()
	pt.Store = core.NewStore(cfg)
	e.wirePeers()
	return pt.Store.Recover(p)
}

// NumPartitions returns the number of virtual nodes on this JBOF.
func (e *Engine) NumPartitions() int { return len(e.parts) }

// Partition returns partition pid.
func (e *Engine) Partition(pid int) *Partition { return e.parts[pid] }

// Stats returns cumulative counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// AvailableTokens returns the partition's current admission tokens; this is
// the number piggybacked to front-ends for flow control (§3.5).
func (e *Engine) AvailableTokens(pid int) int64 {
	if pid < 0 || pid >= len(e.parts) {
		return 0
	}
	return e.parts[pid].tokens.Avail()
}

// WaitingDepth returns the partition's waiting-queue occupancy.
func (e *Engine) WaitingDepth(pid int) int { return e.parts[pid].tokens.Waiting() }

// ssdWaiting sums waiting commands across a drive's partitions.
func (e *Engine) ssdWaiting(ssd int) int {
	w := 0
	for _, pt := range e.parts {
		if pt.SSD == ssd {
			w += pt.tokens.Waiting()
		}
	}
	return w
}

// pickSwapHelper returns the co-located partition (same slot, different
// SSD) with the most available capacity, or nil if none beats the home SSD
// by the threshold (§3.6: choose the candidate with the most available
// bandwidth). Guards keep swapping targeted at genuine imbalance: the
// helper must itself be unloaded, its swap region must have headroom, and
// the home's merge-back backlog must be bounded — otherwise swapping feeds
// back on itself (merge-back load keeps the home hot, which triggers more
// swapping, until the swap region overflows).
func (e *Engine) pickSwapHelper(home *Partition) *Partition {
	// Swapping absorbs *bursts*: once a handful of segments are parked
	// remotely and the home never idles long enough to merge them back,
	// further swapping only adds cross-drive hops to an already saturated
	// partition, so stop until the backlog drains (§3.6's "temporarily").
	if home.Store.SwapBacklog() >= 8 {
		return nil
	}
	homeWait := e.ssdWaiting(home.SSD)
	if homeWait < e.cfg.SwapThreshold {
		return nil
	}
	var best *Partition
	bestWait := 1 << 30
	for _, cand := range e.parts {
		if cand.SSD == home.SSD || cand.ID%e.cfg.PartitionsPerSSD != home.ID%e.cfg.PartitionsPerSSD {
			continue
		}
		if w := e.ssdWaiting(cand.SSD); w < bestWait {
			bestWait = w
			best = cand
		}
	}
	// The helper must be genuinely idle in absolute terms: no waiting
	// commands and most of its token budget free. Under uniform
	// saturation no drive qualifies, which is exactly right — swapping
	// only pays when spare bandwidth actually exists (§3.6).
	if best == nil || bestWait != 0 {
		return nil
	}
	if best.tokens.Avail()*3 < best.tokens.Capacity()*2 {
		return nil
	}
	if sl := best.Store.SwapLog(); sl == nil || sl.Free() < sl.Size()/4 {
		return nil
	}
	return best
}

// Execute runs one storage command against partition pid, blocking through
// admission (token acquisition), execution, and completion. It returns the
// value for GETs.
func (e *Engine) Execute(p runtime.Task, pid int, op rpcproto.Op, key, val []byte) ([]byte, core.OpStats, error) {
	return e.ExecuteTraced(p, pid, op, key, val, nil)
}

// ExecuteTraced is Execute carrying the request's trace: the engine span
// (admission wait vs store execution) plus the store's CPU/SSD split are
// attributed to it.
func (e *Engine) ExecuteTraced(p runtime.Task, pid int, op rpcproto.Op, key, val []byte, tr *obs.Trace) ([]byte, core.OpStats, error) {
	return e.ExecuteTracedInto(p, pid, op, key, val, nil, tr)
}

// ExecuteTracedInto is ExecuteTraced for the allocation-free serve path: a
// GET's value is appended to dst (which may be nil; ExecuteTraced passes
// nil) via Store.GetInto and the extended slice returned. Other ops ignore
// dst. The returned slice never aliases store-owned memory, so the caller
// may reuse dst freely between requests.
func (e *Engine) ExecuteTracedInto(p runtime.Task, pid int, op rpcproto.Op, key, val, dst []byte, tr *obs.Trace) ([]byte, core.OpStats, error) {
	if pid < 0 || pid >= len(e.parts) {
		return nil, core.OpStats{}, fmt.Errorf("engine: no partition %d", pid)
	}
	pt := e.parts[pid]
	cost := TokenCost(op)
	t0 := p.Now()

	// Write-imbalance handling: a PUT facing a long home waiting queue is
	// redirected to an unloaded co-located SSD (§3.6). The home still pays
	// for its two key-log accesses; the helper is charged for the value
	// write it absorbs. Tokens are acquired in partition-id order so two
	// opposite-direction swaps cannot deadlock.
	if op == rpcproto.OpPut && e.cfg.SwapEnabled {
		if helper := e.pickSwapHelper(pt); helper != nil {
			// Full swap (§3.6): both the value and the segment array land
			// on the helper, so the helper absorbs two writes while the
			// home pays only for its segment read.
			first, fCost, second, sCost := pt, int64(1), helper, int64(2)
			if helper.ID < pt.ID {
				first, fCost, second, sCost = helper, 2, pt, 1
			}
			first.tokens.Acquire(p, fCost)
			second.tokens.Acquire(p, sCost)
			defer first.tokens.Release(fCost)
			defer second.tokens.Release(sCost)
			e.stats.Swapped++
			e.stats.Executed++
			e.o.swap()
			e.o.exec()
			admitted := p.Now()
			e.memTransfer(p, 1024+int64(len(key))+int64(len(val)))
			st, err := pt.Store.PutSwapped(p, key, val, helper.Store)
			e.observeExec(tr, admitted-t0, p.Now()-admitted, st)
			return nil, st, err
		}
	}

	pt.tokens.Acquire(p, cost)
	defer pt.tokens.Release(cost)
	e.stats.Executed++
	e.o.exec()
	admitted := p.Now()
	// Each command moves roughly a segment array plus the value through
	// DRAM (RX buffer -> store buffers -> DMA) — charge the memory pipe.
	e.memTransfer(p, 1024+int64(len(key))+int64(len(val)))
	var st core.OpStats
	var v []byte
	var err error
	switch op {
	case rpcproto.OpGet:
		v, st, err = pt.Store.GetInto(p, key, dst)
	case rpcproto.OpPut, rpcproto.OpCopy:
		st, err = pt.Store.Put(p, key, val)
	case rpcproto.OpDel:
		st, err = pt.Store.Del(p, key)
	default:
		return nil, core.OpStats{}, fmt.Errorf("engine: unsupported op %v", op)
	}
	e.observeExec(tr, admitted-t0, p.Now()-admitted, st)
	return v, st, err
}

// memTransfer charges n bytes of data movement against the onboard memory
// bus when ModelMemBW is enabled.
func (e *Engine) memTransfer(p runtime.Task, n int64) {
	if e.membus != nil {
		e.membus.transfer(p, n)
	}
}

// MemBusWaited returns the cumulative queueing delay behind the memory
// bus; zero when the model is disabled.
func (e *Engine) MemBusWaited() runtime.Time {
	if e.membus == nil {
		return 0
	}
	return e.membus.waited
}

// Start launches one background compaction proc per partition. The proc
// wakes every CompactEvery, merges swapped data back when the drive is
// unloaded, and runs log compaction when a trigger threshold is crossed.
func (e *Engine) Start() {
	gen := e.gen.Load()
	for _, pt := range e.parts {
		pt := pt
		e.env.Spawn("compactor", func(p runtime.Task) {
			var lastFlush runtime.Time
			for e.gen.Load() == gen {
				p.Sleep(e.cfg.CompactEvery)
				if e.gen.Load() != gen {
					return
				}
				if pt.Store.SwapBacklog() > 0 && e.ssdWaiting(pt.SSD) == 0 {
					pt.Store.Mergeback(p, 8)
				}
				if pt.Store.NeedsValueCompaction() {
					pt.Store.CompactValueLog(p)
					e.stats.Compactions++
					e.o.compact()
				}
				if pt.Store.NeedsKeyCompaction() {
					pt.Store.CompactKeyLog(p)
					e.stats.Compactions++
					e.o.compact()
				}
				if fe := e.cfg.FlushEvery; fe > 0 && p.Now()-lastFlush >= fe {
					lastFlush = p.Now()
					pt.Store.Flush(p)
				}
			}
		})
	}
}

// Stop halts background compaction after the current cycle. Safe to call
// from outside task context (e.g. before wallclock.Env.Wait). A later
// Start spawns a fresh set of compactors; the old generation drains.
func (e *Engine) Stop() { e.gen.Add(1) }
