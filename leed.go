// Package leed is the public facade of this repository: a reproduction of
// "LEED: A Low-Power, Fast Persistent Key-Value Store on SmartNIC JBOFs"
// (SIGCOMM 2023) — a KV store that runs on a pluggable runtime substrate.
//
// The package re-exports the pieces a user composes:
//
//   - A runtime Env and Task: the execution substrate. Two backends exist —
//     the deterministic discrete-event Kernel (virtual time, bit-identical
//     replays) and the wall-clock Env (real goroutines and time.Sleep, for
//     serving real traffic). All API calls that do I/O take a Task and
//     block on its backend's clock.
//   - Store: the per-SSD LEED data store — circular key/value logs with the
//     DRAM/Flash hybrid index, compaction, and swapping (§3.2-§3.3). A
//     Store runs unchanged on either backend.
//   - Cluster: the full distributed system — token-based intra-JBOF
//     execution, flow-control scheduling, CRRS chain replication, and the
//     membership control plane (§3.4-§3.8). Runs on either backend: a
//     deterministic deployment on the Kernel, real goroutines with modeled
//     link delay as real sleeps on the wall clock.
//   - Workloads: YCSB generators matching the paper's evaluation.
//
// See examples/ for runnable entry points, cmd/leed-bench for the harness
// that regenerates every table and figure in the paper, and cmd/leedctl
// serve for a wall-clock store over a persistent image.
package leed

import (
	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
	"leed/internal/ycsb"
)

// Runtime substrate.
type (
	// Env is a runtime environment: clock, timers, task spawning, and sync
	// primitive constructors. A Kernel and a *WallClock both implement it.
	Env = runtime.Env
	// Task is one running task; blocking APIs take one. A sim *Proc and a
	// wallclock task both implement it.
	Task = runtime.Task
	// Kernel is the deterministic discrete-event simulation engine: the
	// runtime Env plus virtual-time controls (Run, At, Go, Idle, Close).
	Kernel = sim.Runner
	// Proc is a simulated process: the sim backend's Task.
	Proc = sim.Proc
	// WallClock is the real-time backend: tasks are goroutines and the
	// clock is the wall clock.
	WallClock = wallclock.Env
	// Time is a point in time in nanoseconds (virtual or wall-clock,
	// depending on the backend).
	Time = runtime.Time
	// Histogram records latency distributions.
	Histogram = obs.Histogram
)

// Time units.
const (
	Microsecond = runtime.Microsecond
	Millisecond = runtime.Millisecond
	Second      = runtime.Second
)

// Data store layer (§3.2–§3.3).
type (
	// Store is one LEED per-SSD data store.
	Store = core.Store
	// StoreConfig configures a Store.
	StoreConfig = core.Config
	// Device is the flash device interface stores run on.
	Device = flashsim.Device
)

// Cluster layer (§3.4–§3.8).
type (
	// Cluster is a full LEED deployment: JBOFs, control plane, clients.
	Cluster = cluster.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = cluster.Config
	// Client is the co-located front-end library with flow control.
	Client = cluster.Client
	// NodeID identifies a JBOF.
	NodeID = cluster.NodeID
)

// Workloads (§4.1).
type (
	// Workload is a YCSB mix definition.
	Workload = ycsb.Workload
	// Generator produces an operation stream.
	Generator = ycsb.Generator
)

// The paper's six YCSB workloads.
var (
	WorkloadA  = ycsb.WorkloadA
	WorkloadB  = ycsb.WorkloadB
	WorkloadC  = ycsb.WorkloadC
	WorkloadD  = ycsb.WorkloadD
	WorkloadF  = ycsb.WorkloadF
	WorkloadWR = ycsb.WorkloadWR
)

// ErrNotFound reports a missing key.
var ErrNotFound = core.ErrNotFound

// NewKernel creates a simulation kernel at virtual time zero.
func NewKernel() Kernel { return sim.New() }

// NewWallClock creates a wall-clock runtime environment whose clock starts
// at zero now. Spawn tasks with env.Spawn and call env.Wait after the last
// one; unlike the sim kernel there is no Run loop to drive.
func NewWallClock() *WallClock { return wallclock.New() }

// NewHistogram creates an empty latency histogram.
func NewHistogram() *Histogram { return obs.NewHistogram() }

// NewCluster assembles a LEED cluster on cfg.Env; call its Start method,
// then (on the Kernel) pump Run while issuing operations from procs, or
// (on a WallClock) spawn a task and block on Cluster.AwaitReady first.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// NewMemStore creates a single store over a zero-latency in-memory device —
// the quickest way to exercise the data-store API functionally. env may be
// a sim Kernel or a *WallClock.
func NewMemStore(env Env, numSegments int, keyLogBytes, valLogBytes int64) *Store {
	dev := flashsim.NewMemDevice(env, keyLogBytes+valLogBytes+(1<<20))
	return core.NewStore(core.Config{
		Env:         env,
		Device:      dev,
		NumSegments: numSegments,
		KeyLogBytes: keyLogBytes,
		ValLogBytes: valLogBytes,
	})
}

// NewSSDStore creates a single store over a latency-modeled NVMe device
// (the Samsung DCT983 profile from the paper's testbed). env may be a sim
// Kernel or a *WallClock; on the latter, modeled service times elapse in
// real time.
func NewSSDStore(env Env, capacity int64, numSegments int, keyLogBytes, valLogBytes int64) *Store {
	dev := flashsim.NewSSD(env, flashsim.SamsungDCT983(capacity))
	return core.NewStore(core.Config{
		Env:         env,
		Device:      dev,
		NumSegments: numSegments,
		KeyLogBytes: keyLogBytes,
		ValLogBytes: valLogBytes,
	})
}

// NewGenerator creates a YCSB operation generator.
func NewGenerator(w Workload, records int64, valLen int, seed int64) *Generator {
	return ycsb.NewGenerator(w, records, valLen, seed)
}

// Trace capture and replay (see internal/ycsb's trace format).
type (
	// OpSource produces an operation stream: a Generator or a TraceReplayer.
	OpSource = ycsb.Source
	// TraceReplayer replays a recorded operation trace.
	TraceReplayer = ycsb.TraceReplayer
)

// RecordTrace captures the next n operations from a source.
var RecordTrace = ycsb.Record

// WriteTrace serializes operations to a writer in the trace format.
var WriteTrace = ycsb.WriteTrace

// ReadTrace parses a trace for replay.
var ReadTrace = ycsb.ReadTrace
