package proc

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leed/internal/cluster"
	"leed/internal/obs"
	"leed/internal/power"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
)

// Main implements the `leedctl manager` and `leedctl node` subcommands:
// one process per cluster role, assembled from nothing but a manager
// address. It returns the process exit code. Both roles run until SIGINT
// or SIGTERM, then drain and print "drained" so harnesses (and humans) can
// assert a clean exit.
func Main(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "proc: missing role (manager|node)")
		return 2
	}
	var err error
	switch args[0] {
	case "manager":
		err = managerMain(args[1:])
	case "node":
		err = nodeMain(args[1:])
	default:
		err = fmt.Errorf("proc: unknown role %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leedctl:", err)
		return 1
	}
	return 0
}

// awaitSignal blocks until SIGINT or SIGTERM.
func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// drainWait waits for the env to quiesce, bounded — a peer that never
// closes its connection must not wedge shutdown.
func drainWait(env *wallclock.Env, bound time.Duration) {
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

// traceSampleEvery is the whole-trace sampling cadence for proc roles: every
// N-th traced request is retained whole for /traces.
const traceSampleEvery = 32

func managerMain(args []string) error {
	fs := flag.NewFlagSet("manager", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "heartbeat listen address")
	r := fs.Int("r", 3, "replication factor")
	numpart := fs.Int("numpart", 8, "global partition count (must match nodes)")
	hbTimeout := fs.Duration("hb-timeout", 750*time.Millisecond, "silent-node failure timeout")
	checkEvery := fs.Duration("check-every", 0, "failure-detector period (default hb-timeout/4)")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address exposing the fleet-aggregated /metrics while running")
	metricsPoll := fs.Duration("metrics-poll", 250*time.Millisecond, "member metrics scrape cadence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env := wallclock.New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, traceSampleEvery, 256)
	fleet := obs.NewFleet(reg)
	pm := power.NewProcessMeter(reg, power.ProcessConfig{})
	defer pm.Close()
	m, err := StartManager(ManagerConfig{
		Env:              env,
		Listen:           *listen,
		R:                *r,
		NumPart:          *numpart,
		HeartbeatTimeout: runtime.Time(*hbTimeout),
		CheckEvery:       runtime.Time(*checkEvery),
		Obs:              reg,
		Fleet:            fleet,
		MetricsPoll:      *metricsPoll,
	})
	if err != nil {
		return err
	}
	// The manager's metrics page is the cluster-wide one: the same routes
	// every node serves, rendered from the fleet merge (counters summed,
	// histograms merged, gauges instance-labeled).
	msrv, err := obs.ServeMetrics(*metricsAddr, fleet.Raw, tr)
	if err != nil {
		return err
	}
	defer msrv.Close()
	fmt.Printf("leed manager listening on %s\n", m.Addr())
	awaitSignal()
	fmt.Println("draining...")
	m.Close()
	drainWait(env, 5*time.Second)
	fmt.Println("drained")
	return nil
}

func nodeMain(args []string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	id := fs.Uint64("id", 0, "node ID (required, nonzero)")
	listen := fs.String("listen", "127.0.0.1:0", "RPC listen address for clients and peers")
	advertise := fs.String("advertise", "", "address peers dial (default: the bound listen address)")
	manager := fs.String("manager", "", "manager heartbeat address (required)")
	numpart := fs.Int("numpart", 8, "global partition count (must match the manager)")
	ssds := fs.Int("ssds", 2, "simulated drives backing the engine")
	capacity := fs.Int64("capacity", 64<<20, "per-drive capacity in bytes")
	hbInterval := fs.Duration("hb-interval", 50*time.Millisecond, "heartbeat / view-pull cadence")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address exposing /metrics while running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env := wallclock.New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, traceSampleEvery, 256)
	pm := power.NewProcessMeter(reg, power.ProcessConfig{})
	defer pm.Close()
	// The metrics server comes up before the node so its bound address (the
	// caller may have passed :0) can ride the node's heartbeats — that is
	// how the manager's fleet aggregator discovers scrape targets.
	msrv, err := obs.ServeMetrics(*metricsAddr, reg.Raw, tr)
	if err != nil {
		return err
	}
	defer msrv.Close()
	n, err := StartNode(NodeConfig{
		Env:         env,
		ID:          cluster.NodeID(*id),
		Listen:      *listen,
		Advertise:   *advertise,
		Manager:     *manager,
		MetricsAddr: msrv.Addr(),
		NumPart:     *numpart,
		SSDs:        *ssds,
		SSDCapacity: *capacity,
		HBInterval:  runtime.Time(*hbInterval),
		Obs:         reg,
		Tracer:      tr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("leed node %d serving on %s\n", *id, n.Addr())
	awaitSignal()
	fmt.Println("draining...")
	n.Close()
	drainWait(env, 5*time.Second)
	fmt.Println("drained")
	return nil
}
