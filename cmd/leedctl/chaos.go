package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"syscall"
	"time"

	"leed/internal/chaos"
	"leed/internal/obs"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// chaosCmd dispatches the served-path chaos drills: the proxy scenarios run
// in-process through a transport.FaultProxy (chaos.RunServedDrill), while
// kill re-execs this binary as a real `serve -listen` child, SIGKILLs it
// mid-load, and verifies zero acked-write loss after restart-and-recover.
// Any violation exits non-zero.
func chaosCmd(image string, capacity int64, partitions int, device string, durable bool,
	seed int64, scenario, metricsAddr string) error {
	reg := obs.NewRegistry()
	msrv, err := startMetrics(metricsAddr, reg, nil)
	if err != nil {
		return err
	}
	defer msrv.Close()

	type step struct {
		name string
		run  func() error
	}
	var steps []step
	served := func(sc chaos.ServedScenario) step {
		return step{string(sc), func() error { return servedDrill(sc, seed, reg) }}
	}
	kill := step{"kill", func() error {
		return killDrill(image, capacity, partitions, device, durable, seed)
	}}
	switch scenario {
	case "all":
		for _, sc := range chaos.ServedScenarios() {
			steps = append(steps, served(sc))
		}
		steps = append(steps, kill)
	case string(chaos.ServedProxyDrop), string(chaos.ServedProxyPartition):
		steps = append(steps, served(chaos.ServedScenario(scenario)))
	case "kill":
		steps = append(steps, kill)
	case string(chaos.ProcKillTail), string(chaos.ProcKillHead), string(chaos.ProcPartition):
		// Multi-process cluster drills: spawn real manager/node children, no
		// image needed. Not part of "all" — they stand up a whole cluster and
		// have their own CI step.
		sc := chaos.ProcScenario(scenario)
		steps = append(steps, step{scenario, func() error { return procDrill(sc, seed) }})
	default:
		return fmt.Errorf("unknown chaos -scenario %q (want proxy-drop, proxy-partition, kill, "+
			"proc-kill-tail, proc-kill-head, proc-partition, or all)",
			scenario)
	}
	if scenario == "all" || scenario == "kill" {
		if image == "" {
			return fmt.Errorf("chaos %s needs -image for the kill drill", scenario)
		}
	}

	failed := 0
	for _, st := range steps {
		if err := st.run(); err != nil {
			fmt.Fprintf(os.Stderr, "chaos %s: %v\n", st.name, err)
			failed++
		}
	}
	printSnapshot(reg)
	if failed > 0 {
		return fmt.Errorf("%d of %d chaos drill(s) failed", failed, len(steps))
	}
	return nil
}

// servedDrill runs one proxy scenario and prints its report.
func servedDrill(sc chaos.ServedScenario, seed int64, reg *obs.Registry) error {
	rep, err := chaos.RunServedDrill(chaos.ServedConfig{
		Seed:     seed,
		Scenario: sc,
		Obs:      reg,
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	for _, v := range rep.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	if !rep.Pass {
		return fmt.Errorf("drill failed with %d violation(s)", len(rep.Violations))
	}
	return nil
}

// procDrill runs one multi-process cluster scenario: this binary re-execed
// as `leedctl manager` and `leedctl node` children, a fault injected into a
// live chain, and zero acked-write loss demanded through the manager's
// reconfiguration.
func procDrill(sc chaos.ProcScenario, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep, err := chaos.RunProcDrill(chaos.ProcConfig{
		Seed:     seed,
		Scenario: sc,
		Spawn: func(spec chaos.ProcSpec) (*exec.Cmd, error) {
			cmd := exec.Command(exe, spec.Args()...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return cmd, nil
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	for _, v := range rep.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	if !rep.Pass {
		return fmt.Errorf("drill failed with %d violation(s)", len(rep.Violations))
	}
	return nil
}

// killKey tracks one key's write history across the kill drill, with the
// same one-directional contract the chaos drills use: acked implies
// readable; an errored write leaves the key's final version ambiguous.
type killKey struct {
	maxIssued int
	lastAcked int
	poisoned  bool
}

// killDrill is the crash-durability drill on a real process boundary:
//
//  1. reformat the image and start `leedctl serve -listen` as a child;
//  2. drive versioned writes through a ReliableClient over real TCP;
//  3. kill -9 the child mid-load — acked writes live in the page cache
//     (pwrite returned), which survives process death;
//  4. restart the child on the same image, let recovery replay the
//     superblock and key-log scan;
//  5. read every key back and verify no acknowledged write was lost.
func killDrill(image string, capacity int64, partitions int, device string, durable bool, seed int64) error {
	if image == "" {
		return fmt.Errorf("chaos kill needs -image")
	}
	if err := os.Remove(image); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("reformat %s: %w", image, err)
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}

	child, out, err := startServeChild(image, capacity, partitions, device, durable, addr)
	if err != nil {
		return err
	}
	if err := awaitServer(addr, 15*time.Second); err != nil {
		syscall.Kill(child.Process.Pid, syscall.SIGKILL)
		child.Wait()
		return fmt.Errorf("serve child never came up: %w\nchild output:\n%s", err, out.String())
	}

	const nKeys = 48
	const nWriters = 4
	keys := make([]killKey, nKeys)
	env := wallclock.New()
	rc := newDrillClient(env, addr, seed)

	// The kill lands from a raw goroutine while writers are mid-load; the
	// writers then fail out (dead connection, refused redial) and stop.
	killed := make(chan struct{})
	killTimer := time.AfterFunc(400*time.Millisecond, func() {
		syscall.Kill(child.Process.Pid, syscall.SIGKILL)
		close(killed)
	})
	var acked, failedWrites int
	for w := 0; w < nWriters; w++ {
		w := w
		env.Spawn("kill-writer", func(p runtime.Task) {
			for round := 0; ; round++ {
				for i := w; i < nKeys; i += nWriters {
					ks := &keys[i]
					ver := ks.maxIssued + 1
					ks.maxIssued = ver
					err := rc.Put(p, killKeyName(i), killVal(i, ver))
					if err != nil {
						failedWrites++
						if !server.WriteNotExecuted(err) {
							ks.poisoned = true
						}
						return // server is gone; this writer is done
					}
					ks.lastAcked = ver
					acked++
				}
				p.Sleep(2 * runtime.Millisecond)
			}
		})
	}
	waitBounded(env, 30*time.Second)
	killTimer.Stop()
	select {
	case <-killed:
	default:
		// Writers errored out before the timer (should not happen on a
		// healthy child) — kill now so Wait below reaps a dead process.
		syscall.Kill(child.Process.Pid, syscall.SIGKILL)
	}
	rc.Close()
	child.Wait() // reap; exit status is "signal: killed", not an error here

	fmt.Printf("chaos kill seed=%d: killed serve child pid=%d mid-load: %d writes acked, %d writers errored, %d keys ambiguous\n",
		seed, child.Process.Pid, acked, failedWrites, countPoisoned(keys))

	// Restart on the same image: recovery replays the superblock and scans
	// the key log. The acked writes must all be there.
	child2, out2, err := startServeChild(image, capacity, partitions, device, durable, addr)
	if err != nil {
		return fmt.Errorf("restart serve child: %w", err)
	}
	if err := awaitServer(addr, 15*time.Second); err != nil {
		syscall.Kill(child2.Process.Pid, syscall.SIGKILL)
		child2.Wait()
		return fmt.Errorf("restarted child never came up: %w\nchild output:\n%s", err, out2.String())
	}

	env2 := wallclock.New()
	rc2 := newDrillClient(env2, addr, seed+1)
	var violations []string
	env2.Spawn("kill-verify", func(p runtime.Task) {
		for i := range keys {
			ks := &keys[i]
			val, err := rc2.Get(p, killKeyName(i))
			switch {
			case err != nil && ks.lastAcked > 0:
				violations = append(violations,
					fmt.Sprintf("key %04d: acked v%d but read failed after recovery: %v", i, ks.lastAcked, err))
			case err != nil:
				// Never acked: absence is fine.
			default:
				ver, ok := parseKillVal(val)
				if !ok {
					violations = append(violations, fmt.Sprintf("key %04d: unparseable value %q", i, val))
					continue
				}
				if ver > ks.maxIssued {
					violations = append(violations,
						fmt.Sprintf("key %04d: phantom v%d, max issued v%d", i, ver, ks.maxIssued))
				}
				if ver < ks.lastAcked {
					violations = append(violations,
						fmt.Sprintf("key %04d: lost acked write, read v%d < acked v%d", i, ver, ks.lastAcked))
				}
			}
		}
	})
	waitBounded(env2, 30*time.Second)
	rc2.Close()

	// Graceful shutdown: SIGTERM drains and flushes, and must exit 0.
	drainErr := drainChild(child2, out2, 15*time.Second)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Printf("  violation: %s\n", v)
		}
		return fmt.Errorf("kill drill lost data: %d violation(s)", len(violations))
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Printf("chaos kill: PASS — all %d acked writes survived kill -9 and recovery\n", acked)
	return nil
}

func killKeyName(i int) []byte { return []byte(fmt.Sprintf("kill-%04d", i)) }

func killVal(i, ver int) []byte { return []byte(fmt.Sprintf("%d|kill-%04d", ver, i)) }

func parseKillVal(val []byte) (int, bool) {
	var ver, i int
	if _, err := fmt.Sscanf(string(val), "%d|kill-%04d", &ver, &i); err != nil {
		return 0, false
	}
	return ver, true
}

func countPoisoned(keys []killKey) int {
	n := 0
	for i := range keys {
		if keys[i].poisoned {
			n++
		}
	}
	return n
}

// newDrillClient builds a ReliableClient dialing addr with drill-friendly
// settings: short deadline, few attempts, so a dead server surfaces as an
// error in about a second instead of a long retry tail.
func newDrillClient(env *wallclock.Env, addr string, seed int64) *server.ReliableClient {
	return server.NewReliableClient(server.ReliableConfig{
		Env: env,
		Dial: func(t runtime.Task) (transport.Conn, error) {
			return transport.DialTCPOpts(env, addr, transport.TCPOptions{
				ReadIdleTimeout: 10 * time.Second,
			})
		},
		Depth:       16,
		Deadline:    500 * runtime.Millisecond,
		MaxAttempts: 2,
		BackoffBase: 10 * runtime.Millisecond,
		Seed:        seed,
	})
}

// startServeChild re-execs this binary as `serve -listen addr` against the
// image. Output is buffered and only surfaced on failure.
func startServeChild(image string, capacity int64, partitions int, device string, durable bool, addr string) (*exec.Cmd, *bytes.Buffer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-image", image,
		"-capacity", fmt.Sprint(capacity),
		"-partitions", fmt.Sprint(partitions),
		"-device", device,
		"-listen", addr,
	}
	if durable {
		args = append(args, "-durable")
	}
	args = append(args, "serve")
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start serve child: %w", err)
	}
	return cmd, &out, nil
}

// drainChild SIGTERMs a serve child and demands the graceful-shutdown
// contract: exit status 0 within bound. A child still running at the bound
// is SIGKILLed and reaped, and the drill fails either way.
func drainChild(cmd *exec.Cmd, out *bytes.Buffer, bound time.Duration) error {
	cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			return fmt.Errorf("serve child exited dirty on SIGTERM: %w\nchild output:\n%s", err, out.String())
		}
		return nil
	case <-time.After(bound):
		syscall.Kill(cmd.Process.Pid, syscall.SIGKILL)
		<-waited
		return fmt.Errorf("serve child did not exit within %v of SIGTERM\nchild output:\n%s", bound, out.String())
	}
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// child to bind. The tiny race window is acceptable for a drill.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// awaitServer polls until addr accepts a TCP connection; serveListen binds
// its listener only after recovery completes, so connect == ready.
func awaitServer(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("no listener on %s within %v", addr, budget)
}

// waitBounded drains env.Wait with a hard timeout so a wedged task cannot
// hang the drill process.
func waitBounded(env *wallclock.Env, budget time.Duration) {
	done := make(chan struct{})
	go func() { env.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(budget):
	}
}
