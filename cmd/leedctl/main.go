// Command leedctl operates a single LEED data store persisted in an image
// file, demonstrating the on-flash format and crash recovery (§3.2-§3.3)
// across real process invocations, and runs the fault drills.
//
//	leedctl -image /tmp/store.img put user:1 hello
//	leedctl -image /tmp/store.img get user:1
//	leedctl -image /tmp/store.img del user:1
//	leedctl -image /tmp/store.img keys
//	leedctl -image /tmp/store.img stats
//	leedctl -image /tmp/store.img compact
//	leedctl -image /tmp/store.img load 10000        # bulk-load objects
//	leedctl -image /tmp/store.img serve 20000       # wall-clock concurrent serving
//	leedctl -image /tmp/store.img -listen :7070 serve   # TCP server (drain on SIGINT)
//	leedctl -image /tmp/store.img -scenario all chaos   # every fault drill
//	leedctl -scenario partition-heal,crash-restart chaos 2
//	leedctl manager ... / leedctl node ...          # multi-process cluster roles
//
// Every store invocation opens the image, replays recovery (superblock +
// key-log scan), performs the command, and flushes the superblock.
//
// All store commands except serve run on the deterministic sim kernel
// (virtual time). serve runs the same store on the wall-clock runtime
// backend: real goroutine clients issue concurrent PUT/GET/DEL against the
// image and the reported latencies are real elapsed time.
//
// serve -listen mounts the image behind a real TCP server (internal/server
// over the transport seam): the engine's partitions are ring-routed, requests
// pipeline per connection, and SIGINT/SIGTERM triggers a graceful drain that
// completes in-flight requests, flushes the store and prints "drained".
//
// chaos runs the fault drills of internal/chaos named by -scenario (a
// comma-separated list, or all) on the wall-clock backend, and exits
// non-zero if any invariant breaks (§3.8): the netsim cluster scenarios on
// real goroutines, the fault-proxy scenarios against a live TCP server,
// kill (SIGKILL a `serve -listen` child on -image, restart it, verify),
// the proc-* scenarios against manager and node children of this binary,
// and soak, the store-level power-cut soak, which REFORMATS -image.
//
// The repo's performance numbers — throughput, latency and
// requests-per-Joule of the embedded, served and replicated paths — come
// from the benchmark, not from leedctl: bash benchmark/run.sh --workload W,
// with W one of store-a, tcp-single-b, tcp-batch32-b, chain3-a.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

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
	clients := flag.Int("clients", 8, "concurrent client goroutines for serve")
	seed := flag.Int64("seed", 1, "chaos: rng seed for the fault schedules")
	device := flag.String("device", "async", "device path for serve and the kill/soak drills: sync (FileDevice) or async (submission-queue AsyncFileDevice)")
	durable := flag.Bool("durable", false, "serve and the kill/soak drills: open the image O_DSYNC so every write completes at real device latency")
	scenario := flag.String("scenario", "all", "chaos: comma-separated drill scenarios, or all (see usage)")
	metricsAddr := flag.String("metrics-addr", "", "serve/chaos: HTTP address exposing /metrics (Prometheus text), /metrics.json, and /traces while the command runs (e.g. :9100)")
	listen := flag.String("listen", "", "serve: TCP address to serve rpcproto clients on (e.g. :7070); the process runs until SIGINT/SIGTERM, then drains")
	partitions := flag.Int("partitions", 4, "serve -listen: engine partitions carved out of the image")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 || (*image == "" && flag.Arg(0) != "chaos") {
		usage()
		os.Exit(2)
	}

	if flag.Arg(0) == "chaos" {
		if err := chaosCmd(*image, *capacity, *partitions, *device, *durable,
			*seed, *scenario, *metricsAddr, flag.Args()); err != nil {
			fatal(err)
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
	k := sim.New()
	defer k.Close()
	fileDev, err := flashsim.OpenFileDevice(k, *image, *capacity)
	if err != nil {
		fatal(err)
	}
	defer fileDev.Close()

	// Geometry is a pure function of capacity, so every invocation
	// reconstructs the same layout.
	geo := core.PlanPartition(*capacity, 32, 1024, core.PlanOpts{})
	store := core.NewStore(core.StoreConfigFor(geo, core.Config{
		Env:    k,
		Device: fileDev,
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
    leedctl -image FILE [-capacity N] {put K V | get K | del K | keys | stats | compact}
    leedctl -image FILE load [N]                       bulk-load N objects (default 10000)

  wall-clock commands (require -image; flags go before the subcommand):
    leedctl -image FILE [-clients N] [-device sync|async] [-durable] serve [N]
                                                       in-process concurrent serving
    leedctl -image FILE -listen ADDR [-partitions N] [-device sync|async] [-durable] serve
                                                       TCP server; SIGINT/SIGTERM drains

  fault drills (flags go before the subcommand; exit != 0 on any violation):
    leedctl [-image FILE] [-seed N] [-scenario LIST] chaos [ROUNDS]
        LIST is comma-separated, or all (the default). ROUNDS sets the sweeps
        per fault window (soak: power-cut cycles). Scenarios:
          message-loss, partition-heal, crash-restart, device-faults, mixed
                         netsim cluster on real goroutines
          proxy-drop, proxy-partition
                         TCP server behind a fault proxy
          kill           SIGKILL a serve child on -image mid-load, restart it,
                         verify zero acked-write loss (-capacity, -partitions,
                         -device, -durable shape the child)
          proc-kill-tail, proc-kill-head, proc-partition
                         manager + node children; SIGKILL or partition a live
                         chain member
          soak           store-level power-cut soak; REFORMATS -image
                         (-device, -durable)

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

  -metrics-addr ADDR serves /metrics, /metrics.json, /traces, and /debug/pprof
  during any wall-clock command.

  Throughput, latency and requests/Joule are measured by the benchmark:
  bash benchmark/run.sh --workload store-a|tcp-single-b|tcp-batch32-b|chain3-a

flags:
`)
	flag.PrintDefaults()
}

// openWallclockDevice opens the image through the requested device path:
// "sync" is the synchronous FileDevice (one in-context syscall per op),
// "async" the submission-queue AsyncFileDevice. durable opens the image
// O_DSYNC so writes complete at device latency instead of page-cache
// latency.
func openWallclockDevice(env *wallclock.Env, kind, image string, capacity int64, durable bool) (flashsim.Device, func() error, error) {
	switch kind {
	case "sync":
		d, err := flashsim.OpenFileDeviceOpts(env, image, capacity, flashsim.FileOptions{Durable: durable})
		if err != nil {
			return nil, nil, err
		}
		if err := d.SetSyncReads(true); err != nil {
			return nil, nil, err
		}
		return d, d.Close, nil
	case "async":
		d, err := flashsim.OpenAsyncFileDevice(env, image, capacity, flashsim.AsyncOptions{
			Workers: 8, Durable: durable,
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
	dev, closeDev, err := openWallclockDevice(env, device, image, capacity, durable)
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
	lat := obs.NewHistogram()
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
	dev, closeDev, err := openWallclockDevice(env, device, image, capacity, durable)
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
	fmt.Println("drained")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leedctl:", err)
	os.Exit(1)
}
