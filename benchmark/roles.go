package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"leed/internal/cluster"
	"leed/internal/cluster/proc"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/power"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// snap is one process's counters at one instant: what "snap" on a child's
// stdin returns, and what the embedded store reports about itself. Every
// field is cumulative, so a phase or window is the difference of two snaps.
type snap struct {
	CPUUS    int64 `json:"cpu_us"`     // user+system CPU of the process
	MaxRSSKB int64 `json:"max_rss_kb"` // peak resident set (VmHWM)
	SysR     int64 `json:"syscr"`      // read-class syscalls (/proc/self/io)
	SysW     int64 `json:"syscw"`

	// power.ProcessMeter, default model, in millijoules.
	MJ, IdleMJ, CPUMJ, ReadMJ, WriteMJ int64

	// flashsim.Device.Stats(), summed over the process's devices.
	DevReads, DevWrites, DevBytesWritten int64
	DevFlushes, DevBatches, DevCoalesced int64
	DevMaxQueue                          int

	// core.Store.Stats() and its logs, summed over partitions.
	ValCompactions, KeyCompactions, RelocatedItems, SegmentFull int64
	LiveValBytes, KeyLogUsed, ValLogUsed, LogAppends            int64

	// engine.Engine.Stats() (chain nodes: the leed_engine_* counters).
	EngExecuted, EngSwapped, EngCompactions int64

	// proc.Node.Stats() / proc.Manager.
	NodeGets, NodePuts, NodeForwards, NodeNacks int64
	Epoch                                       uint64
}

// procSnap fills the per-process part of a snap.
func procSnap(reg *obs.Registry, pm *power.ProcessMeter) snap {
	var s snap
	s.CPUUS, s.MaxRSSKB = selfUsage()
	s.SysR, s.SysW = selfIO()
	pm.Sample()
	comp := func(c string) int64 {
		return reg.Counter("leed_power_component_millijoules_total", "comp", c).Load()
	}
	s.MJ = reg.Counter("leed_power_millijoules_total").Load()
	s.IdleMJ, s.CPUMJ, s.ReadMJ, s.WriteMJ = comp("idle"), comp("cpu"), comp("flash_read"), comp("flash_write")
	return s
}

// engineSnap adds what an engine this process owns reports about itself.
// Scheduler or task context of the engine's Env.
func (s *snap) engineSnap(eng *engine.Engine, devs []flashsim.Device) {
	for _, d := range devs {
		st := d.Stats()
		s.DevReads += st.Reads
		s.DevWrites += st.Writes
		s.DevBytesWritten += st.BytesWritten
		s.DevFlushes += st.Flushes
		s.DevBatches += st.Batches
		s.DevCoalesced += st.Coalesced
		s.DevMaxQueue = max(s.DevMaxQueue, st.MaxQueue)
	}
	for pid := 0; pid < eng.NumPartitions(); pid++ {
		store := eng.Partition(pid).Store
		st := store.Stats()
		s.ValCompactions += st.ValCompactions
		s.KeyCompactions += st.KeyCompactions
		s.RelocatedItems += st.RelocatedItems
		s.SegmentFull += st.SegmentFull
		s.LiveValBytes += st.LiveValBytes
		s.KeyLogUsed += store.KeyLog().Used()
		s.ValLogUsed += store.ValLog().Used()
		for _, l := range []*core.CircLog{store.KeyLog(), store.ValLog()} {
			appends, _ := l.Stats()
			s.LogAppends += appends
		}
	}
	es := eng.Stats()
	s.EngExecuted, s.EngSwapped, s.EngCompactions = es.Executed, es.Swapped, es.Compactions
}

// add accumulates another process's snap (cluster totals).
func (s *snap) add(o snap) {
	s.CPUUS += o.CPUUS
	s.MaxRSSKB += o.MaxRSSKB
	s.SysR += o.SysR
	s.SysW += o.SysW
	s.MJ += o.MJ
	s.IdleMJ += o.IdleMJ
	s.CPUMJ += o.CPUMJ
	s.ReadMJ += o.ReadMJ
	s.WriteMJ += o.WriteMJ
	s.EngExecuted += o.EngExecuted
	s.EngSwapped += o.EngSwapped
	s.EngCompactions += o.EngCompactions
	s.NodeGets += o.NodeGets
	s.NodePuts += o.NodePuts
	s.NodeForwards += o.NodeForwards
	s.NodeNacks += o.NodeNacks
	s.Epoch = max(s.Epoch, o.Epoch)
}

// inEnv runs fn in scheduler context of env and waits for it: the way a raw
// goroutine reads state the execution contract guards.
func inEnv(env *wallclock.Env, fn func()) {
	done := make(chan struct{})
	env.After(0, func() {
		fn()
		close(done)
	})
	<-done
}

// waitEnv waits for env to quiesce, bounded: a peer that never closes its
// connection must not wedge shutdown.
func waitEnv(env *wallclock.Env, bound time.Duration) {
	done := make(chan struct{})
	go func() {
		env.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(bound):
	}
}

// roleDrain bounds a child's wait for its Env after "quit": its data is
// scratch, so a straggling timer is not worth waiting for.
const roleDrain = 300 * time.Millisecond

// control is a child's command loop: one line in, one line out, until
// "quit" or end of input (the parent went away).
func control(handle func(cmd string, args []string) (any, error)) {
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		f := strings.Fields(in.Text())
		if len(f) == 0 {
			continue
		}
		if f[0] == "quit" {
			return
		}
		var v any
		var err error
		if f[0] == "procs" && len(f) == 2 {
			// Every role answers this one the same way (see affinity.go).
			var n int
			if n, err = strconv.Atoi(f[1]); err == nil {
				setProcs(n)
				v = struct{}{}
			}
		} else {
			v, err = handle(f[0], f[1:])
		}
		if err != nil {
			fmt.Fprintf(out, "error %v\n", err)
		} else {
			b, _ := json.Marshal(v)
			out.Write(b)
			out.WriteByte('\n')
		}
		out.Flush()
	}
}

// ---- role: server --------------------------------------------------------

const (
	serverImageBytes = 256 << 20
	serverPartitions = 4
)

// serverRole is one LEED server process, assembled the way `leedctl serve
// -listen` assembles it: one AsyncFileDevice (8 workers, inline mmap reads)
// carved into ring-routed partitions, superblocks flushed every 100 ms,
// registry and tracer bound, TCP front-end. traced adds the device and
// connection decorators, handler the server.Handler one (single-op only:
// a server with a Handler refuses batch frames).
func serverRole(image string, traced, handler bool) error {
	env := wallclock.New()
	fdev, err := flashsim.OpenAsyncFileDevice(env, image, serverImageBytes, flashsim.AsyncOptions{Workers: 8})
	if err != nil {
		return err
	}
	if err := fdev.SetSyncReads(true); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 16, 256)
	flashsim.Observe(fdev, reg, tr, "async")
	pm := power.NewProcessMeter(reg, power.ProcessConfig{})

	lt := &layerTrace{}
	var dev flashsim.Device = fdev
	if traced {
		dev = &tracedDevice{inner: fdev, env: env, lt: lt}
	}
	partBytes := int64(serverImageBytes / serverPartitions)
	eng := engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{dev},
		PartitionsPerSSD: serverPartitions,
		Geometry:         core.PlanPartition(partBytes, 32, 1024, core.PlanOpts{}),
		PartitionBytes:   partBytes,
		FlushEvery:       100 * runtime.Millisecond,
		Obs:              reg,
		Tracer:           tr,
		ObsNode:          "serve",
	})
	var recErr error
	env.Spawn("recover", func(p runtime.Task) {
		for pid := 0; pid < eng.NumPartitions() && recErr == nil; pid++ {
			_, recErr = eng.RecoverPartition(p, pid)
		}
	})
	env.Wait()
	if recErr != nil {
		return fmt.Errorf("recover: %w", recErr)
	}
	eng.Start()

	cfg := server.Config{Env: env, Engine: eng, Obs: reg, Tracer: tr}
	if handler {
		cfg.Handler = newTracedHandler(eng, lt)
	}
	srv := server.New(cfg)
	tcp, err := transport.ListenTCP(env, "127.0.0.1:0")
	if err != nil {
		return err
	}
	var ln transport.Listener = tcp
	if traced {
		ln = &tracedListener{Listener: tcp, lt: lt}
	}
	srv.Serve(ln)
	fmt.Printf("ready %s\n", tcp.Addr())

	control(func(cmd string, args []string) (any, error) {
		switch cmd {
		case "snap":
			s := procSnap(reg, pm)
			inEnv(env, func() { s.engineSnap(eng, []flashsim.Device{fdev}) })
			return s, nil
		case "trace-reset":
			inEnv(env, lt.reset)
			return struct{}{}, nil
		case "trace-dump":
			var sums traceSums
			var err error
			path := ""
			if len(args) > 0 {
				path = args[0]
			}
			inEnv(env, func() { sums, err = lt.dump(path) })
			return sums, err
		}
		return nil, fmt.Errorf("unknown command %q", cmd)
	})

	srv.Close()
	eng.Stop()
	waitEnv(env, roleDrain)
	pm.Close()
	return fdev.Close()
}

// ---- roles: manager and node ---------------------------------------------

const (
	chainR        = 3
	chainNumPart  = 8
	chainNodeSSDs = 2
	// A saturated 2-core box can delay a 50 ms heartbeat by far more than
	// the 750 ms default; a falsely evicted node would change the view in
	// the middle of a run.
	chainHBTimeout = 10 * runtime.Second
)

func managerRole() error {
	env := wallclock.New()
	reg := obs.NewRegistry()
	pm := power.NewProcessMeter(reg, power.ProcessConfig{})
	m, err := proc.StartManager(proc.ManagerConfig{
		Env: env, Listen: "127.0.0.1:0", R: chainR, NumPart: chainNumPart,
		HeartbeatTimeout: chainHBTimeout, Obs: reg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ready %s\n", m.Addr())
	control(func(cmd string, _ []string) (any, error) {
		if cmd != "snap" {
			return nil, fmt.Errorf("unknown command %q", cmd)
		}
		s := procSnap(reg, pm)
		inEnv(env, func() { s.Epoch = m.Epoch() })
		return s, nil
	})
	m.Close()
	waitEnv(env, roleDrain)
	pm.Close()
	return nil
}

func nodeRole(id uint64, manager string) error {
	env := wallclock.New()
	reg := obs.NewRegistry()
	pm := power.NewProcessMeter(reg, power.ProcessConfig{})
	n, err := proc.StartNode(proc.NodeConfig{
		Env: env, ID: cluster.NodeID(id), Listen: "127.0.0.1:0", Manager: manager,
		NumPart: chainNumPart, SSDs: chainNodeSSDs, Obs: reg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ready %s\n", n.Addr())
	label := fmt.Sprintf("n%d", id)
	control(func(cmd string, _ []string) (any, error) {
		if cmd != "snap" {
			return nil, fmt.Errorf("unknown command %q", cmd)
		}
		s := procSnap(reg, pm)
		inEnv(env, func() {
			st := n.Stats()
			s.NodeGets, s.NodePuts, s.NodeForwards, s.NodeNacks = st.Gets, st.Puts, st.Forwards, st.Nacks
			s.Epoch = n.Epoch()
		})
		// The node builds its engine privately; its registry counters are
		// the only view of it from outside.
		s.EngExecuted = reg.Counter("leed_engine_executed_total", "node", label).Load()
		s.EngSwapped = reg.Counter("leed_engine_swapped_total", "node", label).Load()
		s.EngCompactions = reg.Counter("leed_engine_compactions_total", "node", label).Load()
		return s, nil
	})
	n.Close()
	waitEnv(env, roleDrain)
	pm.Close()
	return nil
}
