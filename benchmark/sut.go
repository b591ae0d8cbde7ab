package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"leed/internal/cluster"
	"leed/internal/cluster/proc"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/power"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// sut is one system under test as the load generator sees it: lanes
// (connections) to issue calls on from tasks of env, counters to snapshot,
// and a way to stop it. Build functions run on the main goroutine.
type sut interface {
	env() *wallclock.Env
	get(t runtime.Task, lane int, key, dst []byte) ([]byte, error)
	put(t runtime.Task, lane int, key, val []byte) error
	// snap sums the SUT's processes; parts holds them one by one where
	// there are several (chain: manager first, then nodes).
	snap() (total snap, parts []snap, err error)
	// traceReset and traceDump delimit what the decorators add up: sut is
	// the SUT side (device, server connection, handler), conn the client
	// side of the connections. Kept spans are appended to path, if any.
	traceReset() error
	traceDump(path string) (sut, conn traceSums, err error)
	// close stops the client side; child processes are the harness's.
	close()
}

// batcher is the part of a SUT a batch workload also needs.
type batcher interface {
	multiGet(t runtime.Task, lane int, keys [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error)
	multiPut(t runtime.Task, lane int, keys, vals [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error)
}

// ---- store-a: the engine embedded in this process -------------------------

type storeSUT struct {
	e       *wallclock.Env
	eng     *engine.Engine
	devs    []flashsim.Device // the real devices, for Stats()
	handles []engine.Handle
	owners  []int
	reg     *obs.Registry
	pm      *power.ProcessMeter
	lt      *layerTrace // non-nil when traced
}

const (
	storeDevices     = 2
	storePartsPerDev = 2
	// storeHeadroom: each partition is planned for this many times its
	// share of the records, which makes the value log about ten times the
	// live data: key-log compaction runs from the warm-up on, value-log
	// compaction joins before the lat phase starts.
	storeHeadroom = 8
	// storeKeyLogFactor enlarges the planned key log. Every PUT appends a
	// segment array (>= 512 B) to it, so at saturation the hottest partition
	// (the ring gives it ~40% of the keys) fills the planned log's 25% of
	// slack in under 100 ms. If it ever fills, the store wedges: Put answers
	// ErrLogFull by compacting in place, which does nothing while a
	// background round is in flight; the failed PUTs' orphaned value appends
	// then fill the value log too, and with both logs full no compaction can
	// relocate anything. Measured with the planned key log: 6% of PUTs
	// failing at 4x headroom, one run in ten wedging at 10x. At 8x the
	// planned key log the slack is over half a second of appends.
	storeKeyLogFactor = 8
	// storeMinPartition keeps -quick's few records from planning logs the
	// preload alone overruns.
	storeMinPartition = 4 << 20
)

func buildStoreSUT(records int64, traced bool) (*storeSUT, error) {
	env := wallclock.New()
	s := &storeSUT{e: env, reg: obs.NewRegistry()}
	if traced {
		s.lt = &layerTrace{}
	}
	// The smallest partition whose planned object budget covers this
	// partition's share of the records, storeHeadroom times over.
	perPart := int64(float64(records) / (storeDevices * storePartsPerDev) * storeHeadroom)
	partBytes := int64(storeMinPartition)
	for core.PlanPartition(partBytes, keyLen, valLen, core.PlanOpts{}).ObjectBudget < perPart {
		partBytes += 256 << 10
	}
	geo := core.PlanPartition(partBytes, keyLen, valLen, core.PlanOpts{})
	grow := (storeKeyLogFactor - 1) * geo.KeyLogBytes
	geo.KeyLogBytes += grow
	partBytes += grow
	devs := make([]flashsim.Device, storeDevices)
	for i := range devs {
		d := flashsim.NewMemDevice(env, partBytes*storePartsPerDev)
		d.SetSyncReads(true)
		flashsim.Observe(d, s.reg, nil, "mem"+strconv.Itoa(i))
		s.devs = append(s.devs, d)
		devs[i] = d
		if traced {
			devs[i] = &tracedDevice{inner: d, env: env, lt: s.lt}
		}
	}
	s.pm = power.NewProcessMeter(s.reg, power.ProcessConfig{})
	s.eng = engine.New(engine.Config{
		Env:              env,
		Devices:          devs,
		PartitionsPerSSD: storePartsPerDev,
		Geometry:         geo,
		PartitionBytes:   partBytes,
	})
	s.eng.Start()
	s.handles = s.eng.Handles()
	s.owners = ringOwners(len(s.handles), serverVPartitions)
	return s, nil
}

func (s *storeSUT) env() *wallclock.Env { return s.e }

func (s *storeSUT) get(t runtime.Task, _ int, key, dst []byte) ([]byte, error) {
	val, st, err := s.handles[routeKey(s.owners, key)].ExecuteTracedInto(t, rpcproto.OpGet, key, nil, dst, nil)
	if s.lt != nil {
		s.lt.sums.Handled[opGet]++
		s.lt.sums.DevWaitNS[opGet] += int64(st.SSD)
	}
	return val, err
}

func (s *storeSUT) put(t runtime.Task, _ int, key, val []byte) error {
	_, st, err := s.handles[routeKey(s.owners, key)].Execute(t, rpcproto.OpPut, key, val)
	if s.lt != nil {
		s.lt.sums.Handled[opPut]++
		s.lt.sums.DevWaitNS[opPut] += int64(st.SSD)
	}
	return err
}

func (s *storeSUT) snap() (snap, []snap, error) {
	sn := procSnap(s.reg, s.pm)
	inEnv(s.e, func() { sn.engineSnap(s.eng, s.devs) })
	return sn, nil, nil
}

func (s *storeSUT) traceReset() error {
	if s.lt != nil {
		inEnv(s.e, s.lt.reset)
	}
	return nil
}

func (s *storeSUT) traceDump(path string) (sums, _ traceSums, err error) {
	if s.lt != nil {
		inEnv(s.e, func() { sums, err = s.lt.dump(path) })
	}
	return sums, traceSums{}, err
}

func (s *storeSUT) close() {
	s.eng.Stop()
	waitEnv(s.e, 3*time.Second)
	s.pm.Close()
}

// ---- tcp-single-b / tcp-batch32-b: one server process over loopback -------

type tcpSUT struct {
	e       *wallclock.Env
	srv     *child
	clients []*server.Client
	lt      *layerTrace // client-side connection decorator, when traced
}

// clientDrain bounds the wait for a client Env to go quiet after its
// connections closed.
const clientDrain = 250 * time.Millisecond

// clientDepth bounds outstanding calls per connection; the issuer count,
// not this window, sets the load.
const clientDepth = 64

func buildTCPSUT(lanes int, traced, handler bool) (*tcpSUT, error) {
	dir, err := theHarness.scratchDir()
	if err != nil {
		return nil, err
	}
	image, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("leed-%d.img", time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	srv, err := theHarness.spawn("server", "-role", "server", "-image", image,
		"-traced="+strconv.FormatBool(traced), "-handler="+strconv.FormatBool(handler))
	if err != nil {
		return nil, err
	}
	s := &tcpSUT{e: wallclock.New(), srv: srv}
	if traced {
		s.lt = &layerTrace{}
	}
	for i := 0; i < lanes; i++ {
		tc, err := transport.DialTCP(s.e, srv.addr)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial %s: %w", srv.addr, err)
		}
		var conn transport.Conn = tc
		if traced {
			conn = &tracedConn{Conn: tc, lt: s.lt, idx: i + 1, client: true, open: map[uint64]openReq{}}
		}
		s.clients = append(s.clients, server.NewClient(s.e, conn, clientDepth))
	}
	return s, nil
}

func (s *tcpSUT) env() *wallclock.Env { return s.e }

func (s *tcpSUT) get(t runtime.Task, lane int, key, dst []byte) ([]byte, error) {
	return s.clients[lane].GetInto(t, key, dst)
}

func (s *tcpSUT) put(t runtime.Task, lane int, key, val []byte) error {
	return s.clients[lane].Put(t, key, val)
}

func (s *tcpSUT) multiGet(t runtime.Task, lane int, keys [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error) {
	return s.clients[lane].MultiGet(t, keys, out)
}

func (s *tcpSUT) multiPut(t runtime.Task, lane int, keys, vals [][]byte, out []rpcproto.BatchRespItem) ([]rpcproto.BatchRespItem, error) {
	return s.clients[lane].MultiPut(t, keys, vals, out)
}

func (s *tcpSUT) snap() (snap, []snap, error) {
	var sn snap
	err := s.srv.call("snap", &sn)
	return sn, nil, err
}

func (s *tcpSUT) traceReset() error {
	if s.lt == nil {
		return nil
	}
	inEnv(s.e, s.lt.reset)
	return s.srv.call("trace-reset", &struct{}{})
}

func (s *tcpSUT) traceDump(path string) (sums, conn traceSums, err error) {
	if s.lt == nil {
		return sums, conn, nil
	}
	inEnv(s.e, func() { conn, err = s.lt.dump(path) })
	if err != nil {
		return sums, conn, err
	}
	command := "trace-dump"
	if path != "" {
		abs, err := filepath.Abs(path)
		if err != nil {
			return sums, conn, err
		}
		command += " " + abs
	}
	err = s.srv.call(command, &sums)
	return sums, conn, err
}

func (s *tcpSUT) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	waitEnv(s.e, clientDrain)
}

// ---- chain3-a: manager + 3 node processes --------------------------------

type chainSUT struct {
	e     *wallclock.Env
	mgr   *child
	nodes []*child
	cl    *proc.Client
}

func buildChainSUT() (*chainSUT, error) {
	mgr, err := theHarness.spawn("manager", "-role", "manager")
	if err != nil {
		return nil, err
	}
	s := &chainSUT{e: wallclock.New(), mgr: mgr}
	for id := 1; id <= chainR; id++ {
		n, err := theHarness.spawn(fmt.Sprintf("node%d", id), "-role", "node",
			"-id", strconv.Itoa(id), "-manager", mgr.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	s.cl = proc.NewClient(proc.ClientConfig{
		Env: s.e, Manager: mgr.addr,
		// A call delayed past the default 500 ms by a busy host would count
		// as an ambiguous write; this workload is chosen so none fails.
		Deadline: 5 * runtime.Second,
	})
	// Membership travels by heartbeat, so the formed chain has no event to
	// wait on: pull views until all nodes run, every replica is synced and
	// the epoch has stopped moving.
	var formErr error
	done := make(chan struct{})
	s.e.Spawn("await-view", func(t runtime.Task) {
		defer close(done)
		deadline := time.Now().Add(20 * time.Second)
		var last uint64
		stable := 0
		for time.Now().Before(deadline) {
			if err := s.cl.Refresh(t); err == nil && viewFormed(s.cl.View()) {
				if e := s.cl.View().Epoch; e == last {
					stable++
				} else {
					last, stable = e, 0
				}
				if stable >= 4 {
					return
				}
			}
			t.Sleep(25 * runtime.Millisecond)
		}
		formErr = errors.New("chain never reached 3 running, synced nodes")
	})
	<-done
	if formErr != nil {
		s.close()
		return nil, formErr
	}
	return s, nil
}

func viewFormed(v *cluster.View) bool {
	if v == nil || len(v.States) != chainR || len(v.Unsynced) != 0 {
		return false
	}
	for _, st := range v.States {
		if st != cluster.StateRunning {
			return false
		}
	}
	return true
}

func (s *chainSUT) env() *wallclock.Env { return s.e }

func (s *chainSUT) get(t runtime.Task, _ int, key, dst []byte) ([]byte, error) {
	v, err := s.cl.Get(t, key)
	return append(dst, v...), err
}

func (s *chainSUT) put(t runtime.Task, _ int, key, val []byte) error { return s.cl.Put(t, key, val) }

func (s *chainSUT) snap() (snap, []snap, error) {
	var total snap
	parts := make([]snap, 0, 1+len(s.nodes))
	for _, c := range append([]*child{s.mgr}, s.nodes...) {
		var sn snap
		if err := c.call("snap", &sn); err != nil {
			return total, nil, err
		}
		total.add(sn)
		parts = append(parts, sn)
	}
	return total, parts, nil
}

func (s *chainSUT) traceReset() error                                 { return nil }
func (s *chainSUT) traceDump(string) (sut, conn traceSums, err error) { return }

func (s *chainSUT) close() {
	if s.cl != nil {
		s.cl.Close()
		// The client's pending per-call deadline timers keep its Env busy
		// for seconds after the last reply; nothing depends on them.
		waitEnv(s.e, clientDrain)
	}
}
