// Command leedctl operates a single LEED data store persisted in an image
// file, demonstrating the on-flash format and crash recovery (§3.2-§3.3)
// across real process invocations.
//
//	leedctl -image /tmp/store.img put user:1 hello
//	leedctl -image /tmp/store.img get user:1
//	leedctl -image /tmp/store.img del user:1
//	leedctl -image /tmp/store.img keys
//	leedctl -image /tmp/store.img stats
//	leedctl -image /tmp/store.img compact
//	leedctl -image /tmp/store.img load 10000        # bulk-load objects
//	leedctl -image /tmp/store.img bench 20000       # YCSB-B benchmark
//	leedctl -image /tmp/store.img serve 20000       # wall-clock concurrent serving
//	leedctl -image /tmp/store.img -listen :7070 serve   # TCP server (drain on SIGINT)
//	leedctl -addr 127.0.0.1:7070 loadgen            # drive a served instance over TCP
//	leedctl -image /tmp/store.img soak 5            # wall-clock fault/crash soak
//	leedctl -image /tmp/store.img chaos             # served-path chaos drills + kill -9 drill
//	leedctl -cluster soak 2                         # wall-clock cluster fault drills
//	leedctl -cluster bench 20000                    # wall-clock cluster YCSB-B bench
//
// Every invocation opens the image, replays recovery (superblock + key-log
// scan), performs the command, and flushes the superblock.
//
// All commands except serve and soak run on the deterministic sim kernel
// (virtual time). serve runs the same store on the wall-clock runtime
// backend: real goroutine clients issue concurrent PUT/GET/DEL against the
// image and the reported latencies are real elapsed time. soak REFORMATS
// the image and drives N crash-recovery cycles with injected device faults
// against it, checking that no acknowledged write is ever lost (§3.2.3);
// it exits non-zero on any durability violation.
//
// With -cluster, soak and bench target a full multi-JBOF deployment on the
// wall-clock backend instead of a single image store (no -image needed; the
// JBOFs run on in-memory simulated SSDs). soak -cluster executes the chaos
// drill scenarios — seeded message loss, partition-and-heal, crash-restart
// with re-sync, device faults, and the mixed schedule — on real goroutines,
// exiting non-zero if any acked write is lost or a chain fails to converge
// (§3.8.1). bench -cluster drives a closed-loop YCSB-B mix from concurrent
// client tasks through CRRS chains and reports real-time throughput and
// client-observed latency.
//
// serve -listen mounts the image behind a real TCP server (internal/server
// over the transport seam): the engine's partitions are ring-routed, requests
// pipeline per connection, and SIGINT/SIGTERM triggers a graceful drain that
// completes in-flight requests and flushes the store. loadgen is the matching
// driver: run it from a separate process against -addr with N connections ×
// a pipeline window of outstanding requests each, a YCSB mix, and a warmup
// before the measured window; it prints the client-observed throughput,
// latency, and stage attribution, and records them as BENCH_server.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"leed/internal/bench"
	"leed/internal/chaos"
	"leed/internal/cluster"
	"leed/internal/cluster/proc"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/sim"
	"leed/internal/transport"
	"leed/internal/ycsb"
)

func main() {
	// The cluster roles take the subcommand first (leedctl manager -listen
	// ... / leedctl node -id ...): each role owns its flag set, so the
	// single-store flag soup stays out of multi-process deployments.
	if len(os.Args) > 1 && (os.Args[1] == "manager" || os.Args[1] == "node") {
		os.Exit(proc.Main(os.Args[1:]))
	}
	image := flag.String("image", "", "store image file (required)")
	capacity := flag.Int64("capacity", 64<<20, "image capacity in bytes (fixed at init)")
	modelLatency := flag.Bool("latency", false, "model DCT983 NVMe latencies on top of the image (for bench)")
	clients := flag.Int("clients", 8, "concurrent client goroutines for serve and wallclock bench")
	seed := flag.Int64("seed", 1, "rng seed for soak fault schedules")
	device := flag.String("device", "async", "device path for serve/soak/wallclock bench: sync (FileDevice) or async (submission-queue AsyncFileDevice)")
	durable := flag.Bool("durable", false, "serve/soak: open the image O_DSYNC so every write completes at real device latency")
	wcBench := flag.Bool("wallclock", false, "bench only: run the wall-clock sync-vs-async device comparison instead of the sim benchmark")
	rate := flag.Float64("rate", 0, "wallclock bench open-loop arrivals/sec (0 = closed loop over -clients)")
	benchout := flag.String("benchout", "", "wallclock bench / loadgen: JSON output path (default BENCH_wallclock.json / BENCH_server.json)")
	clusterMode := flag.Bool("cluster", false, "soak/bench: drive a multi-JBOF cluster on the wall-clock backend instead of an image store")
	scenario := flag.String("scenario", "all", "cluster soak: drill scenario (message-loss, partition-heal, crash-restart, device-faults, mixed, all)")
	metricsAddr := flag.String("metrics-addr", "", "serve/soak/bench/loadgen: HTTP address exposing /metrics (Prometheus text), /metrics.json, and /traces while the command runs (e.g. :9100)")
	listen := flag.String("listen", "", "serve: TCP address to serve rpcproto clients on (e.g. :7070); the process runs until SIGINT/SIGTERM, then drains")
	partitions := flag.Int("partitions", 4, "serve -listen: engine partitions carved out of the image")
	addr := flag.String("addr", "", "loadgen: TCP address of a running leedctl serve -listen (required)")
	manager := flag.String("manager", "", "loadgen: heartbeat address of a running leedctl manager — drive the whole multi-process cluster instead of one server")
	managerMetrics := flag.String("manager-metrics", "", "loadgen -manager: the manager's aggregated metrics address (its -metrics-addr); scraped at the measured window's edges to report cluster-wide Joules and requests/Joule")
	pipeline := flag.Int64("pipeline", 16, "loadgen: outstanding-request window per connection")
	workload := flag.String("workload", "b", "loadgen: YCSB mix (a, b, c, d, f, wr)")
	records := flag.Int64("records", 2000, "loadgen: keyspace size (preloaded before the measured window)")
	batch := flag.Int("batch", 0, "loadgen: issue ops as MultiGet/MultiPut frames of this many sub-ops (0/1 = single-op RPCs)")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: measured window")
	warmup := flag.Duration("warmup", 0, "loadgen: warmup before the measured window (default duration/4)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 || (*image == "" && !*clusterMode &&
		flag.Arg(0) != "loadgen" && flag.Arg(0) != "chaos" && flag.Arg(0) != "hotpath") {
		usage()
		os.Exit(2)
	}

	if flag.Arg(0) == "chaos" {
		if err := chaosCmd(*image, *capacity, *partitions, *device, *durable,
			*seed, *scenario, *metricsAddr); err != nil {
			fatal(err)
		}
		return
	}

	if flag.Arg(0) == "loadgen" {
		if *manager != "" {
			if err := clusterLoadgen(*manager, *clients, *workload, *records, *seed,
				*warmup, *duration, *benchout, *metricsAddr, *managerMetrics); err != nil {
				fatal(err)
			}
			return
		}
		if err := loadgen(*addr, *clients, *pipeline, *workload, *records, *seed, *batch,
			*warmup, *duration, *benchout, *metricsAddr); err != nil {
			fatal(err)
		}
		return
	}

	if flag.Arg(0) == "hotpath" {
		if err := hotpath(*benchout); err != nil {
			fatal(err)
		}
		return
	}

	if *clusterMode {
		switch flag.Arg(0) {
		case "soak":
			if err := clusterSoak(*seed, *scenario, *metricsAddr, flag.Args()); err != nil {
				fatal(err)
			}
		case "bench":
			if err := clusterBench(*clients, *seed, *metricsAddr, flag.Args()); err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("-cluster supports only soak and bench, not %q", flag.Arg(0)))
		}
		return
	}

	if flag.Arg(0) == "serve" {
		if *listen != "" {
			if err := serveListen(*image, *capacity, *listen, *partitions, *device, *durable, *metricsAddr); err != nil {
				fatal(err)
			}
			return
		}
		if err := serve(*image, *capacity, *clients, *device, *durable, *metricsAddr, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if flag.Arg(0) == "soak" {
		if err := soak(*image, *capacity, *seed, *device, *durable, *metricsAddr, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if flag.Arg(0) == "bench" && *wcBench {
		if err := benchWallclock(*image, *capacity, *clients, *rate, *benchout, *metricsAddr, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	k := sim.New()
	defer k.Close()
	fileDev, err := flashsim.OpenFileDevice(k, *image, *capacity)
	if err != nil {
		fatal(err)
	}
	defer fileDev.Close()
	var dev flashsim.Device = fileDev
	if *modelLatency {
		dev = flashsim.NewLatencyShim(k, fileDev, flashsim.SamsungDCT983(*capacity))
	}
	reg := obs.NewRegistry()
	flashsim.Observe(dev, reg, nil, "image")

	// Geometry is a pure function of capacity, so every invocation
	// reconstructs the same layout.
	geo := core.PlanPartition(*capacity, 32, 1024, core.PlanOpts{})
	store := core.NewStore(core.StoreConfigFor(geo, core.Config{
		Env:    k,
		Device: dev,
	}))

	args := flag.Args()
	var cmdErr error
	k.Go("leedctl", func(p *sim.Proc) {
		if _, err := store.Recover(p); err != nil {
			cmdErr = fmt.Errorf("recover: %w", err)
			return
		}
		switch args[0] {
		case "put":
			if len(args) != 3 {
				cmdErr = fmt.Errorf("put needs KEY VALUE")
				return
			}
			if _, err := store.Put(p, []byte(args[1]), []byte(args[2])); err != nil {
				cmdErr = err
				return
			}
			fmt.Println("OK")
		case "get":
			if len(args) != 2 {
				cmdErr = fmt.Errorf("get needs KEY")
				return
			}
			v, _, err := store.Get(p, []byte(args[1]))
			if err != nil {
				cmdErr = err
				return
			}
			fmt.Println(string(v))
		case "del":
			if len(args) != 2 {
				cmdErr = fmt.Errorf("del needs KEY")
				return
			}
			if _, err := store.Del(p, []byte(args[1])); err != nil {
				cmdErr = err
				return
			}
			fmt.Println("OK")
		case "keys":
			cmdErr = store.Range(p, func(key, val []byte) bool {
				fmt.Printf("%s (%d bytes)\n", key, len(val))
				return true
			})
		case "stats":
			s := store.Stats()
			fmt.Printf("objects:        %d\n", store.Objects())
			fmt.Printf("index DRAM:     %d bytes\n", store.DRAMBytes())
			fmt.Printf("key log used:   %d / %d bytes (garbage %d)\n",
				store.KeyLog().Used(), store.KeyLog().Size(), store.KeyGarbage())
			fmt.Printf("value log used: %d / %d bytes (garbage %d)\n",
				store.ValLog().Used(), store.ValLog().Size(), store.ValGarbage())
			fmt.Printf("lifetime:       gets=%d puts=%d dels=%d compactions=%d\n",
				s.Gets, s.Puts, s.Dels, s.KeyCompactions+s.ValCompactions)
		case "compact":
			v, err := store.CompactValueLog(p)
			if err != nil {
				cmdErr = err
				return
			}
			kb, err := store.CompactKeyLog(p)
			if err != nil {
				cmdErr = err
				return
			}
			fmt.Printf("reclaimed %d value-log bytes, %d key-log bytes\n", v, kb)
		case "load":
			n := int64(10000)
			if len(args) > 1 {
				fmt.Sscanf(args[1], "%d", &n)
			}
			val := make([]byte, 256)
			for i := int64(0); i < n; i++ {
				if _, err := store.Put(p, ycsb.KeyAt(i), val); err != nil {
					cmdErr = fmt.Errorf("load at %d: %w", i, err)
					return
				}
			}
			fmt.Printf("loaded %d objects (%d total live)\n", n, store.Objects())
		case "bench":
			n := int64(20000)
			if len(args) > 1 {
				fmt.Sscanf(args[1], "%d", &n)
			}
			records := store.Objects()
			if records == 0 {
				cmdErr = fmt.Errorf("bench needs a loaded image (run load first)")
				return
			}
			gen := ycsb.NewGenerator(ycsb.WorkloadB, records, 256, 42)
			lat := sim.NewHistogram()
			start := p.Now()
			for i := int64(0); i < n; i++ {
				op := gen.Next()
				t0 := p.Now()
				var err error
				switch op.Type {
				case ycsb.OpRead:
					_, _, err = store.Get(p, op.Key)
				default:
					_, err = store.Put(p, op.Key, op.Value)
				}
				if err != nil && err != core.ErrNotFound {
					cmdErr = err
					return
				}
				lat.Record(p.Now() - t0)
				if store.NeedsValueCompaction() {
					store.CompactValueLog(p)
				}
				if store.NeedsKeyCompaction() {
					store.CompactKeyLog(p)
				}
			}
			elapsed := p.Now() - start
			fmt.Printf("YCSB-B: %d ops, simulated %v, latency %v\n", n, elapsed, lat)
			printSnapshot(reg)
		default:
			cmdErr = fmt.Errorf("unknown command %q", args[0])
			return
		}
		if err := store.Flush(p); err != nil {
			cmdErr = fmt.Errorf("flush: %w", err)
		}
	})
	k.Run()
	if cmdErr != nil {
		fatal(cmdErr)
	}
}

// usage enumerates every subcommand with the flags that apply to it, then
// the full flag reference.
func usage() {
	fmt.Fprint(os.Stderr, `usage:
  single-store commands (sim kernel, require -image):
    leedctl -image FILE [-capacity N] [-latency] {put K V | get K | del K | keys | stats | compact}
    leedctl -image FILE load [N]                       bulk-load N objects (default 10000)
    leedctl -image FILE bench [N]                      YCSB-B sim benchmark (load first)

  wall-clock commands (require -image; flags go before the subcommand):
    leedctl -image FILE -wallclock [-clients N] [-rate R] [-benchout PATH] bench [N]
                                                       sync-vs-async device comparison
    leedctl -image FILE [-clients N] [-device sync|async] [-durable] serve [N]
                                                       in-process concurrent serving
    leedctl -image FILE -listen ADDR [-partitions N] [-device sync|async] [-durable] serve
                                                       TCP server; SIGINT/SIGTERM drains
    leedctl -image FILE [-seed N] [-device sync|async] [-durable] soak [CYCLES]
                                                       crash-recovery durability soak

  client commands (no -image; flags go before the subcommand):
    leedctl -addr ADDR [-clients N] [-pipeline N] [-workload a|b|c|d|f|wr]
            [-records N] [-duration D] [-warmup D] [-batch N] [-benchout PATH] loadgen
                                                       drive a served instance over TCP
                                                       (-batch N > 1 uses MultiGet/MultiPut)

  hot-path allocation gate (no -image):
    leedctl [-benchout PATH] hotpath                   benchmark the serve path with
                                                       -benchmem semantics, write
                                                       BENCH_hotpath.json, exit non-zero
                                                       if GET or PUT allocs/op exceeds
                                                       its budget

  cluster commands (no -image):
    leedctl -cluster soak [-seed N] [-scenario S] [ROUNDS]
    leedctl -cluster bench [-clients N] [-seed N] [OPS]

  multi-process cluster (subcommand first; each role owns its flags):
    leedctl manager [-listen ADDR] [-r N] [-numpart N] [-hb-timeout D]
            [-metrics-addr ADDR] [-metrics-poll D]     control plane: membership, failure
                                                       detection, CRRS chain views; its
                                                       /metrics is the fleet-aggregated view
                                                       (members scraped via heartbeat-
                                                       advertised addresses), /attribution
                                                       the cross-process latency table
    leedctl node -id N -manager ADDR [-listen ADDR] [-advertise ADDR]
            [-numpart N] [-ssds N] [-capacity N] [-hb-interval D] [-metrics-addr ADDR]
                                                       one JBOF: engine + RPC + heartbeats;
                                                       joins the cluster on its first beat
    leedctl -manager ADDR [-clients N] [-workload a|b|c|d|f|wr] [-records N]
            [-duration D] [-benchout PATH]
            [-manager-metrics ADDR] loadgen            drive the whole cluster through the
                                                       view-routing client; exit non-zero
                                                       if any acked write is lost; with
                                                       -manager-metrics, report cluster-wide
                                                       Joules and requests/Joule

  served-path chaos drills (flags go before the subcommand):
    leedctl -scenario proxy-drop|proxy-partition [-seed N] chaos
                                                       fault-proxy drills over real TCP
    leedctl -image FILE -scenario kill [-seed N] chaos  kill -9 a serve child mid-load,
                                                       restart, verify zero acked-write loss
    leedctl -image FILE [-seed N] chaos                 all of the above (-scenario all)
    leedctl -scenario proc-kill-tail|proc-kill-head|proc-partition [-seed N] chaos
                                                       multi-process cluster drills: SIGKILL
                                                       or partition a live chain member,
                                                       verify zero acked-write loss through
                                                       the manager's reconfiguration

  -metrics-addr ADDR serves /metrics, /metrics.json, and /traces during any
  wall-clock command.

flags:
`)
	flag.PrintDefaults()
}

// workloadByName resolves a -workload letter to its YCSB mix.
func workloadByName(name string) (ycsb.Workload, error) {
	for _, w := range ycsb.Workloads {
		if strings.EqualFold(w.Name, "YCSB-"+name) {
			return w, nil
		}
	}
	return ycsb.Workload{}, fmt.Errorf("unknown -workload %q (want a, b, c, d, f, or wr)", name)
}

// openWallclockDevice opens the image through the requested device path:
// "sync" is the synchronous FileDevice (one in-context syscall per op),
// "async" the submission-queue AsyncFileDevice. durable opens the image
// O_DSYNC so writes complete at device latency instead of page-cache
// latency; readTime/writeTime put a modeled per-syscall service floor under
// both paths (see flashsim.FileOptions) — the sync device pays it holding
// the runtime lock, the async device pays it on offload workers.
func openWallclockDevice(env *wallclock.Env, kind, image string, capacity int64, durable bool, readTime, writeTime runtime.Time) (flashsim.Device, func() error, error) {
	switch kind {
	case "sync":
		d, err := flashsim.OpenFileDeviceOpts(env, image, capacity, flashsim.FileOptions{
			Durable: durable, ReadTime: readTime, WriteTime: writeTime,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := d.SetSyncReads(true); err != nil {
			return nil, nil, err
		}
		return d, d.Close, nil
	case "async":
		d, err := flashsim.OpenAsyncFileDevice(env, image, capacity, flashsim.AsyncOptions{
			Workers: 8, Durable: durable, ReadTime: readTime, WriteTime: writeTime,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := d.SetSyncReads(true); err != nil {
			return nil, nil, err
		}
		return d, d.Close, nil
	default:
		return nil, nil, fmt.Errorf("unknown -device %q (want sync or async)", kind)
	}
}

// printSnapshot renders the registry's final state: the unified metrics
// listing every subcommand ends with, instead of each hand-formatting its
// own subset of device stats.
func printSnapshot(reg *obs.Registry) {
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Hists) == 0 {
		return
	}
	fmt.Println("-- final metrics snapshot --")
	fmt.Print(snap)
}

// startMetrics serves /metrics, /metrics.json, and /traces on addr for the
// duration of the command. A blank addr is a no-op; Close on the returned
// server is nil-safe.
func startMetrics(addr string, reg *obs.Registry, tr *obs.Tracer) (*obs.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.ServeMetrics(addr, reg, tr)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Printf("metrics on http://%s/metrics\n", srv.Addr)
	return srv, nil
}

// serve runs the store on the wall-clock backend: N client goroutines issue
// a mixed PUT/GET/DEL stream against the image concurrently, then the store
// is flushed so a later invocation (any command) recovers the result.
func serve(image string, capacity int64, clients int, device string, durable bool, metricsAddr string, args []string) error {
	totalOps := int64(20000)
	if len(args) > 1 {
		fmt.Sscanf(args[1], "%d", &totalOps)
	}
	if clients < 1 {
		return fmt.Errorf("serve needs -clients >= 1")
	}

	env := wallclock.New()
	dev, closeDev, err := openWallclockDevice(env, device, image, capacity, durable, 0, 0)
	if err != nil {
		return err
	}
	defer closeDev()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 16, 256)
	flashsim.Observe(dev, reg, tr, device)
	srv, err := startMetrics(metricsAddr, reg, tr)
	if err != nil {
		return err
	}
	defer srv.Close()

	geo := core.PlanPartition(capacity, 32, 1024, core.PlanOpts{})
	store := core.NewStore(core.StoreConfigFor(geo, core.Config{
		Env:    env,
		Device: dev,
	}))

	var recoverErr error
	env.Spawn("recover", func(p runtime.Task) {
		_, recoverErr = store.Recover(p)
	})
	env.Wait()
	if recoverErr != nil {
		return fmt.Errorf("recover: %w", recoverErr)
	}

	// Latency histogram and error slot are shared without locks: the Env
	// execution contract (one running task at a time) protects them.
	lat := sim.NewHistogram()
	opLat := reg.Hist("leed_serve_latency_ns")
	ops := reg.Counter("leed_serve_ops_total")
	var opErr error
	perClient := totalOps / int64(clients)
	start := env.Now()
	for c := 0; c < clients; c++ {
		c := c
		env.Spawn("client", func(p runtime.Task) {
			// Disjoint keyspace per client keeps the run verifiable while
			// the interleaving stays scheduler-dependent.
			gen := ycsb.NewGenerator(ycsb.WorkloadA, perClient/2+1, 256, int64(c))
			for i := int64(0); i < perClient && opErr == nil; i++ {
				op := gen.Next()
				key := append([]byte(fmt.Sprintf("s%d-", c)), op.Key...)
				t0 := p.Now()
				var err error
				switch {
				case op.Type == ycsb.OpRead:
					_, _, err = store.Get(p, key)
				case i%31 == 30:
					_, err = store.Del(p, key)
				default:
					_, err = store.Put(p, key, op.Value)
				}
				if err != nil && err != core.ErrNotFound {
					opErr = fmt.Errorf("client %d: %w", c, err)
					return
				}
				lat.Record(p.Now() - t0)
				opLat.Record(p.Now() - t0)
				ops.Inc()
				if store.NeedsValueCompaction() {
					store.CompactValueLog(p)
				}
				if store.NeedsKeyCompaction() {
					store.CompactKeyLog(p)
				}
			}
		})
	}
	env.Wait()
	if opErr != nil {
		return opErr
	}

	var flushErr error
	env.Spawn("flush", func(p runtime.Task) {
		flushErr = store.Flush(p)
	})
	env.Wait()
	if flushErr != nil {
		return fmt.Errorf("flush: %w", flushErr)
	}

	elapsed := env.Now() - start
	done := perClient * int64(clients)
	fmt.Printf("served %d ops from %d concurrent clients in %v (wall clock)\n", done, clients, elapsed)
	fmt.Printf("throughput: %.0f ops/s\n", float64(done)/elapsed.Seconds())
	fmt.Printf("latency:    %v\n", lat)
	fmt.Printf("live objects: %d\n", store.Objects())
	printSnapshot(reg)
	return nil
}

// serveListen mounts the image behind a TCP server: the engine carves the
// image into -partitions ring-routed partitions, recovers each from flash,
// and internal/server serves rpcproto clients on listen until SIGINT or
// SIGTERM starts a graceful drain. In-flight requests complete, connections
// close, and every partition's superblock is flushed so the next invocation
// recovers the served state.
func serveListen(image string, capacity int64, listen string, partitions int, device string, durable bool, metricsAddr string) error {
	if partitions < 1 {
		return fmt.Errorf("serve -listen needs -partitions >= 1")
	}
	env := wallclock.New()
	dev, closeDev, err := openWallclockDevice(env, device, image, capacity, durable, 0, 0)
	if err != nil {
		return err
	}
	defer closeDev()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 16, 256)
	flashsim.Observe(dev, reg, tr, device)
	msrv, err := startMetrics(metricsAddr, reg, tr)
	if err != nil {
		return err
	}
	defer msrv.Close()

	partBytes := capacity / int64(partitions)
	eng := engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{dev},
		PartitionsPerSSD: partitions,
		Geometry:         core.PlanPartition(partBytes, 32, 1024, core.PlanOpts{}),
		PartitionBytes:   partBytes,
		FlushEvery:       100 * runtime.Millisecond,
		Obs:              reg,
		Tracer:           tr,
		ObsNode:          "serve",
	})
	var recErr error
	recovered := 0
	env.Spawn("recover", func(p runtime.Task) {
		for pid := 0; pid < eng.NumPartitions(); pid++ {
			n, err := eng.RecoverPartition(p, pid)
			if err != nil {
				recErr = fmt.Errorf("recover partition %d: %w", pid, err)
				return
			}
			recovered += n
		}
	})
	env.Wait()
	if recErr != nil {
		return recErr
	}
	eng.Start()

	srv := server.New(server.Config{Env: env, Engine: eng, Obs: reg, Tracer: tr})
	l, err := transport.ListenTCP(env, listen)
	if err != nil {
		return err
	}
	srv.Serve(l)
	fmt.Printf("serving %s on %s: %d partitions, %d segments recovered (SIGINT drains)\n",
		image, l.Addr(), eng.NumPartitions(), recovered)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	srv.Close()
	eng.Stop()
	env.Wait()

	var flushErr error
	env.Spawn("flush", func(p runtime.Task) {
		for pid := 0; pid < eng.NumPartitions(); pid++ {
			if err := eng.Partition(pid).Store.Flush(p); err != nil && flushErr == nil {
				flushErr = fmt.Errorf("flush partition %d: %w", pid, err)
			}
		}
	})
	env.Wait()
	if flushErr != nil {
		return flushErr
	}
	printSnapshot(reg)
	return nil
}

// loadgen drives a running serve -listen instance from this process: conns
// TCP connections with a pipeline window of outstanding requests each, a
// preloaded keyspace, a YCSB mix, and a warmup before the measured window.
// The client-observed measurement (throughput, latency percentiles, stage
// attribution) is printed and recorded as JSON.
func loadgen(addr string, conns int, pipeline int64, workload string, records, seed int64, batch int,
	warmup, duration time.Duration, outPath, metricsAddr string) error {
	if addr == "" {
		return fmt.Errorf("loadgen needs -addr (the server's host:port)")
	}
	w, err := workloadByName(workload)
	if err != nil {
		return err
	}
	if outPath == "" {
		outPath = "BENCH_server.json"
	}
	if warmup <= 0 {
		warmup = duration / 4
	}
	env := wallclock.New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 16, 256)
	msrv, err := startMetrics(metricsAddr, reg, tr)
	if err != nil {
		return err
	}
	defer msrv.Close()

	cfg := bench.LoadgenConfig{
		Addr:        addr,
		Connections: conns,
		Pipeline:    pipeline,
		Workload:    w,
		Records:     records,
		ValLen:      256,
		Seed:        seed,
		Batch:       batch,
		Preload:     true,
		Warmup:      runtime.Time(warmup),
		Duration:    runtime.Time(duration),
		Tracer:      tr,
	}
	res, err := bench.RunLoadgen(env, cfg)
	if err != nil {
		return err
	}
	doc := bench.NewServerDoc(cfg, res)
	fmt.Print(doc.String())
	printSnapshot(reg)
	if err := os.WriteFile(outPath, []byte(doc.JSON()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Printf("recorded %s\n", outPath)
	if res.Errs > 0 {
		return fmt.Errorf("loadgen saw %d errored operations", res.Errs)
	}
	return nil
}

// clusterLoadgen drives a running multi-process cluster through the
// view-routing client: views pulled from the manager, writes to chain heads,
// reads to read replicas. Beyond the throughput measurement it gates on the
// loss ledger — every preloaded (acked) key must still read back, which is
// the invariant the CI smoke job checks after SIGKILLing a node mid-run.
func clusterLoadgen(manager string, clients int, workload string, records, seed int64,
	warmup, duration time.Duration, outPath, metricsAddr, managerMetrics string) error {
	w, err := workloadByName(workload)
	if err != nil {
		return err
	}
	if outPath == "" {
		outPath = "BENCH_cluster.json"
	}
	reg := obs.NewRegistry()
	// Sample aggressively (every 8th op, whole-trace, deep ring) — the doc
	// embeds a handful of reassembled cross-process traces for harnesses to
	// assert on, and the ring must be deep enough that a read-heavy mix still
	// retains several multi-hop PUT traces.
	tr := obs.NewTracer(reg, 8, 256)
	msrv, err := startMetrics(metricsAddr, reg, tr)
	if err != nil {
		return err
	}
	defer msrv.Close()

	env := wallclock.New()
	doc, err := bench.RunClusterLoadgen(env, bench.ClusterLoadgenConfig{
		Manager:        manager,
		Clients:        clients,
		Workload:       w,
		Records:        records,
		ValLen:         100,
		Seed:           seed,
		Warmup:         runtime.Time(warmup),
		Duration:       runtime.Time(duration),
		Tracer:         tr,
		ManagerMetrics: managerMetrics,
	})
	if err != nil {
		return err
	}
	fmt.Print(doc.String())
	if err := os.WriteFile(outPath, []byte(doc.JSON()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Printf("recorded %s\n", outPath)
	if doc.LostWrites > 0 {
		return fmt.Errorf("cluster loadgen lost %d acked writes", doc.LostWrites)
	}
	return nil
}

// hotpath runs the serve-path allocation benchmarks (the same ones `go test
// -bench=Serve -benchmem ./internal/server/` runs), records the numbers as
// JSON, and exits non-zero if the GET or PUT path exceeds its pinned
// allocs/op budget — the CI gate for hot-path memory discipline (DESIGN.md
// §13).
func hotpath(outPath string) error {
	if outPath == "" {
		outPath = "BENCH_hotpath.json"
	}
	doc := bench.MeasureHotpath()
	fmt.Print(doc.String())
	if err := os.WriteFile(outPath, []byte(doc.JSON()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Printf("recorded %s\n", outPath)
	return doc.Gate()
}

// soak reformats the image and runs the chaos durability soak on the
// wall-clock backend: N crash-recovery cycles of seeded writes with a
// device-fault window in each, verifying after every recovery that all
// acknowledged writes survive. A stale image cannot be reused — its old
// high-sequence buckets would confuse the recovery scan — so the file is
// recreated from scratch.
func soak(image string, capacity int64, seed int64, device string, durable bool, metricsAddr string, args []string) error {
	cycles := 0 // 0 = chaos default
	if len(args) > 1 {
		fmt.Sscanf(args[1], "%d", &cycles)
	}
	if err := os.Remove(image); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("reformat %s: %w", image, err)
	}

	env := wallclock.New()
	dev, closeDev, err := openWallclockDevice(env, device, image, capacity, durable, 0, 0)
	if err != nil {
		return err
	}
	defer closeDev()
	reg := obs.NewRegistry()
	srv, err := startMetrics(metricsAddr, reg, nil)
	if err != nil {
		return err
	}
	defer srv.Close()

	var rep *chaos.SoakReport
	env.Spawn("soak", func(p runtime.Task) {
		rep = chaos.RunSoak(p, chaos.SoakConfig{
			Env:    env,
			Seed:   seed,
			Cycles: cycles,
			Device: dev,
			Obs:    reg,
		})
	})
	env.Wait()
	fmt.Print(rep)
	printSnapshot(reg)
	if !rep.Pass {
		return fmt.Errorf("soak failed with %d violation(s)", len(rep.Violations))
	}
	return nil
}

// benchWallclock measures the same mixed YCSB-A workload against both
// device paths on the wall-clock backend — each on a fresh image next to
// -image (image+".sync", image+".async") — and records the comparison as
// JSON. With -rate 0 it is a closed loop over -clients tasks; with -rate N
// it is an open loop of N arrivals/sec over a fixed 2s measured window.
//
// Both devices carry the same modeled per-syscall service floor,
// approximating the paper's DCT983 drives at 4KB ops: a persistent store's
// I/O costs device latency, and where each path pays it is what the
// comparison is about — the sync path pays it inside the runtime lock,
// stalling every task, while the async path pays it on offload workers,
// overlapped and amortized over coalesced batches. A modeled floor rather
// than O_DSYNC keeps the measurement about the architecture: real-disk
// durable-write latency on a shared machine varies by an order of magnitude
// run to run, drowning the comparison in page-cache weather.
func benchWallclock(image string, capacity int64, clients int, rate float64, outPath, metricsAddr string, args []string) error {
	if outPath == "" {
		outPath = "BENCH_wallclock.json"
	}
	ops := int64(20000)
	if len(args) > 1 {
		fmt.Sscanf(args[1], "%d", &ops)
	}
	const (
		// A small live set and 1KB values keep value-log churn well inside
		// what compaction sustains at SD-class service times, so neither
		// mode's run degenerates into ErrLogFull storms.
		records = int64(1500)
		valLen  = 1024
		// SD-class service times (see flashsim.SanDiskSD — FAWN's wimpy-node
		// medium): slow enough that both stay above the ~1ms timer-tick
		// floor time.Sleep has on coarse-timer kernels, so the modeled
		// latency is what actually elapses on any platform. Writes cost more
		// than the SanDisk profile's buffered 350us because a charge here
		// covers a whole coalesced run landing durably.
		readTime  = 1200 * runtime.Microsecond
		writeTime = 1500 * runtime.Microsecond
	)
	rc := bench.RunConfig{
		Clients:   clients,
		Ops:       ops,
		WarmupOps: ops / 10,
		Rate:      rate,
		Duration:  2 * runtime.Second,
		Seed:      42,
	}

	runMode := func(kind string) (bench.RunResult, *obs.Registry, error) {
		img := image + "." + kind
		if err := os.Remove(img); err != nil && !os.IsNotExist(err) {
			return bench.RunResult{}, nil, err
		}
		env := wallclock.New()
		dev, closeDev, err := openWallclockDevice(env, kind, img, capacity, false, readTime, writeTime)
		if err != nil {
			return bench.RunResult{}, nil, err
		}
		defer closeDev()
		// Each mode gets its own registry and tracer so the recorded
		// attribution is one device path's, not a blend of both. The metrics
		// endpoint (when requested) serves each mode for its duration.
		reg := obs.NewRegistry()
		tr := obs.NewTracer(reg, 16, 256)
		flashsim.Observe(dev, reg, tr, kind)
		srv, err := startMetrics(metricsAddr, reg, tr)
		if err != nil {
			return bench.RunResult{}, nil, err
		}
		defer srv.Close()
		geo := core.PlanPartition(capacity, 32, valLen, core.PlanOpts{})
		store := core.NewStore(core.StoreConfigFor(geo, core.Config{
			Env:    env,
			Device: dev,
		}))
		do := func(p runtime.Task, op ycsb.Op) error {
			var err error
			switch op.Type {
			case ycsb.OpRead:
				_, _, err = store.Get(p, op.Key)
				if err == core.ErrNotFound {
					err = nil
				}
			default:
				_, err = store.Put(p, op.Key, op.Value)
			}
			if store.NeedsValueCompaction() {
				store.CompactValueLog(p)
			}
			if store.NeedsKeyCompaction() {
				store.CompactKeyLog(p)
			}
			return err
		}
		bench.PreloadWallclock(env, do, records, valLen, 16)
		mrc := rc
		mrc.Tracer = tr
		res := bench.RunWallclock(env, do, ycsb.WorkloadA, records, valLen, mrc)
		return res, reg, nil
	}

	syncRes, syncReg, err := runMode("sync")
	if err != nil {
		return err
	}
	asyncRes, asyncReg, err := runMode("async")
	if err != nil {
		return err
	}

	doc := bench.WallclockDoc{
		Workload:    "YCSB-A",
		Clients:     clients,
		Rate:        rate,
		Records:     records,
		ValLen:      valLen,
		Sync:        bench.NewWallclockRes("sync", syncRes),
		Async:       bench.NewWallclockRes("async", asyncRes),
		Attribution: asyncRes.Attr,
	}
	if syncRes.Thr > 0 {
		doc.Speedup = asyncRes.Thr / syncRes.Thr
	}
	fmt.Print(doc.String())
	if asyncRes.Attr != nil {
		fmt.Print(asyncRes.Attr.String())
	}
	printSnapshot(syncReg)
	printSnapshot(asyncReg)
	if err := os.WriteFile(outPath, []byte(doc.JSON()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Printf("recorded %s\n", outPath)
	return nil
}

// clusterSoak runs the chaos drill scenarios against a multi-JBOF cluster
// on the wall-clock backend: the same seeded fault schedules the sim drills
// replay deterministically, executed on real goroutines with real sleeps.
// ROUNDS scales each scenario's fault/recovery cycles (0 = drill default).
func clusterSoak(seed int64, scenario, metricsAddr string, args []string) error {
	rounds := 0
	if len(args) > 1 {
		fmt.Sscanf(args[1], "%d", &rounds)
	}
	scs := chaos.Scenarios()
	if scenario != "all" {
		found := false
		for _, sc := range scs {
			if string(sc) == scenario {
				scs = []chaos.Scenario{sc}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown -scenario %q (want one of %v or all)", scenario, chaos.Scenarios())
		}
	}
	// One registry across all scenarios: the endpoint (and the final
	// snapshot) accumulates the whole soak.
	reg := obs.NewRegistry()
	srv, err := startMetrics(metricsAddr, reg, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	failed := 0
	for _, sc := range scs {
		rep, err := chaos.RunDrill(chaos.Config{
			Seed:     seed,
			Scenario: sc,
			Backend:  chaos.BackendWallclock,
			Rounds:   rounds,
			Obs:      reg,
		})
		if err != nil {
			return fmt.Errorf("drill %s: %w", sc, err)
		}
		fmt.Print(rep)
		if !rep.Pass {
			failed++
		}
	}
	printSnapshot(reg)
	if failed > 0 {
		return fmt.Errorf("%d of %d cluster drill(s) failed", failed, len(scs))
	}
	return nil
}

// clusterBench drives a closed-loop YCSB-B mix against a 3-JBOF CRRS
// deployment on the wall-clock backend: -clients concurrent client tasks,
// each with its own flow-controlled front-end, share OPS operations over a
// preloaded keyspace. Throughput is real elapsed time; latencies are
// client-observed (admission + chain + storage).
func clusterBench(clients int, seed int64, metricsAddr string, args []string) error {
	ops := int64(20000)
	if len(args) > 1 {
		fmt.Sscanf(args[1], "%d", &ops)
	}
	if clients < 1 {
		return fmt.Errorf("bench -cluster needs -clients >= 1")
	}
	const (
		records = int64(1024)
		valLen  = 256
	)

	env := wallclock.New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 16, 256)
	srv, err := startMetrics(metricsAddr, reg, tr)
	if err != nil {
		return err
	}
	defer srv.Close()
	c := cluster.New(cluster.Config{
		Env:           env,
		Obs:           reg,
		Tracer:        tr,
		NumJBOFs:      3,
		SSDsPerJBOF:   2,
		SSDCapacity:   64 << 20,
		NumPartitions: 8,
		R:             3,
		KeyLen:        16,
		ValLen:        valLen,
		NumClients:    clients,
		CRRS:          true,
		FlowControl:   true,
		Swap:          true,
		// Real scheduler jitter would trip the sim-scale 20ms default and
		// evict healthy nodes mid-run; detection latency is not under test.
		HeartbeatTimeout: 250 * runtime.Millisecond,
	})
	c.Start()

	lat := sim.NewHistogram()
	var benchErr error
	var elapsed runtime.Time
	perClient := ops / int64(clients)
	done := make(chan struct{})
	env.Spawn("cluster-bench", func(p runtime.Task) {
		defer func() {
			c.Shutdown()
			close(done)
		}()
		if err := c.AwaitReady(p, 10*runtime.Second); err != nil {
			benchErr = fmt.Errorf("cluster never became ready: %v", err)
			return
		}
		val := make([]byte, valLen)
		for i := range val {
			val[i] = byte(i * 7)
		}
		for i := int64(0); i < records; i++ {
			if _, err := c.Clients[0].Put(p, ycsb.KeyAt(i), val); err != nil {
				benchErr = fmt.Errorf("preload at %d: %w", i, err)
				return
			}
		}
		start := p.Now()
		evs := make([]runtime.Event, 0, clients)
		for ci := 0; ci < clients; ci++ {
			ci := ci
			ev := env.MakeEvent()
			evs = append(evs, ev)
			env.Spawn("bench-client", func(q runtime.Task) {
				defer ev.Fire(nil)
				cl := c.Clients[ci]
				gen := ycsb.NewGenerator(ycsb.WorkloadB, records, valLen, seed+int64(ci))
				for i := int64(0); i < perClient && benchErr == nil; i++ {
					op := gen.Next()
					var (
						l   runtime.Time
						err error
					)
					if op.Type == ycsb.OpRead {
						_, l, err = cl.Get(q, op.Key)
						if err == core.ErrNotFound {
							err = nil
						}
					} else {
						l, err = cl.Put(q, op.Key, op.Value)
					}
					if err != nil {
						benchErr = fmt.Errorf("client %d: %w", ci, err)
						return
					}
					lat.Record(l)
				}
			})
		}
		runtime.WaitAll(p, evs...)
		elapsed = p.Now() - start
	})
	select {
	case <-done:
	case <-time.After(10 * time.Minute):
		return fmt.Errorf("cluster bench did not finish within 10m")
	}
	drained := make(chan struct{})
	go func() { env.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
	}
	if benchErr != nil {
		return benchErr
	}

	total := perClient * int64(clients)
	fmt.Printf("cluster YCSB-B: %d ops from %d clients over a 3-JBOF R=3 CRRS chain in %v (wall clock)\n",
		total, clients, elapsed)
	fmt.Printf("throughput: %.0f ops/s\n", float64(total)/elapsed.Seconds())
	fmt.Printf("latency:    %v\n", lat)
	fmt.Printf("control plane: %s\n", c.Manager)
	attr := tr.Attribution()
	if len(attr.Stages) > 0 {
		fmt.Print(attr.String())
	}
	printSnapshot(reg)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leedctl:", err)
	os.Exit(1)
}
