package main

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"

	"leed/internal/chaos"
	"leed/internal/obs"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
)

// chaosCmd runs the drills named by list on the wall-clock backend and
// prints each report. Child processes — cluster roles, the kill drill's
// `serve -listen` — are this binary re-execed. Any violation or harness
// error exits non-zero.
func chaosCmd(image string, capacity int64, partitions int, durable bool,
	seed int64, list, metricsAddr string, args []string) error {
	rounds := 0 // 0 = each drill's default
	if len(args) > 1 {
		fmt.Sscanf(args[1], "%d", &rounds)
	}
	scenarios := chaos.Scenarios()
	if list != "all" {
		scenarios = nil
		for _, name := range strings.Split(list, ",") {
			sc := chaos.Scenario(name)
			if !slices.Contains(chaos.Scenarios(), sc) {
				return fmt.Errorf("unknown chaos -scenario %q (want a comma-separated list of %v, or all)",
					name, chaos.Scenarios())
			}
			scenarios = append(scenarios, sc)
		}
	}
	for _, sc := range scenarios {
		if (sc == chaos.Kill || sc == chaos.Soak) && image == "" {
			return fmt.Errorf("chaos %s needs -image", sc)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// One registry across the drills: the endpoint (and the final snapshot)
	// accumulates the whole run.
	reg := obs.NewRegistry()
	msrv, err := obs.ServeMetrics(metricsAddr, reg.Raw, nil)
	if err != nil {
		return err
	}
	defer msrv.Close()

	// The serve child runs on the drill's image; the cluster roles take
	// their subcommand first and need none of the store flags.
	serveFlags := []string{"-image", image, "-capacity", fmt.Sprint(capacity),
		"-partitions", fmt.Sprint(partitions)}
	if durable {
		serveFlags = append(serveFlags, "-durable")
	}
	spawn := func(spec chaos.Spec) *exec.Cmd {
		args := spec.Args()
		if spec.Role == "serve" {
			args = append(append([]string(nil), serveFlags...), args...)
		}
		return exec.Command(exe, args...)
	}

	failed := 0
	for _, sc := range scenarios {
		var rep *chaos.Report
		switch sc {
		case chaos.Soak:
			rep, err = soakImage(image, capacity, seed, durable, rounds, reg)
		case chaos.Kill:
			// A stale image would confuse the recovery scan with its old
			// high-sequence buckets: the drill starts from a fresh one.
			if err = os.Remove(image); err == nil || os.IsNotExist(err) {
				rep, err = chaos.Run(chaos.Config{Scenario: sc, Seed: seed, Rounds: rounds, Obs: reg, Spawn: spawn})
			}
		default:
			rep, err = chaos.Run(chaos.Config{Scenario: sc, Seed: seed, Backend: chaos.BackendWallclock,
				Rounds: rounds, Obs: reg, Spawn: spawn})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos %s: %v\n", sc, err)
			failed++
			continue
		}
		fmt.Print(rep)
		if !rep.Pass {
			failed++
		}
	}
	printSnapshot(reg)
	if failed > 0 {
		return fmt.Errorf("%d of %d chaos drill(s) failed", failed, len(scenarios))
	}
	return nil
}

// soakImage reformats the image and runs the store-level durability soak
// on it: crash-recovery cycles of seeded writes with a device-fault window
// in each, verifying after every recovery that all acknowledged writes
// survive. A stale image cannot be reused — its old high-sequence buckets
// would confuse the recovery scan — so the file is recreated from scratch.
func soakImage(image string, capacity int64, seed int64, durable bool, cycles int, reg *obs.Registry) (*chaos.Report, error) {
	if err := os.Remove(image); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("reformat %s: %w", image, err)
	}
	env := wallclock.New()
	dev, err := openWallclockDevice(env, image, capacity, durable)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	var rep *chaos.Report
	env.Spawn("soak", func(p runtime.Task) {
		rep = chaos.RunSoak(p, chaos.SoakConfig{Env: env, Seed: seed, Cycles: cycles, Device: dev, Obs: reg})
	})
	env.Wait()
	return rep, nil
}
