package chaos

import (
	"fmt"
	"math/rand"

	"leed/internal/core"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/runtime"
)

// SoakConfig shapes a store-level durability soak: repeated cycles of seeded
// writes (with a device-fault window in the middle of each), ended by a
// simulated power cut — a fresh Store over the same device, rebuilt through
// Recover — after which every acknowledged write must still read back.
//
// The soak is written against runtime.Task, so the same code runs on the
// deterministic sim backend and on the wall-clock backend against a real
// image file (`leedctl -scenario soak chaos`).
type SoakConfig struct {
	Env  runtime.Env
	Seed int64

	Cycles int // crash-recovery cycles; default 3

	// ErrorRate is the device fault probability during each cycle's middle
	// window. Default 0.05; set negative for a fault-free soak.
	ErrorRate float64

	// TornRate is the probability that a failing write is torn — its first
	// half reaches the medium before the error — instead of dropped whole.
	// Torn writes exercise the recovery scan's torn-chain and hole-probe
	// paths, the failure shape a crashed submission-queue device leaves
	// behind. Default 0.5 during fault windows; set negative to disable.
	TornRate float64

	// Device overrides the backing device (default: a fresh in-memory
	// device of soakCapacity bytes). The soak formats it from scratch —
	// existing contents are overwritten.
	Device flashsim.Device

	// Obs, when set, receives the soak device's leed_dev_* series;
	// Report.Metrics carries its final snapshot.
	Obs *obs.Registry
}

const (
	soakOpsPerCycle = 256
	soakValLen      = 128
	soakCapacity    = 24 << 20
)

func (cfg *SoakConfig) setDefaults() {
	if cfg.Cycles == 0 {
		cfg.Cycles = 3
	}
	if cfg.ErrorRate == 0 {
		cfg.ErrorRate = 0.05
	}
	if cfg.ErrorRate < 0 {
		cfg.ErrorRate = 0
	}
	if cfg.TornRate == 0 {
		cfg.TornRate = 0.5
	}
	if cfg.TornRate < 0 {
		cfg.TornRate = 0
	}
}

// soakKey tracks one key's driver-side truth. A failed Put taints the key —
// the write may or may not have landed — until the next acknowledged Put
// supersedes whatever it left behind (ops against a single store are
// synchronous, so there are no trailing duplicates as in cluster drills).
type soakKey struct {
	lastAcked string
	tainted   bool
}

// RunSoak drives one soak inside task p and returns its report.
func RunSoak(p runtime.Task, cfg SoakConfig) *Report {
	cfg.setDefaults()
	rep := &Report{Scenario: Soak, Seed: cfg.Seed}
	start := cfg.Env.Now()

	dev := cfg.Device
	if dev == nil {
		dev = flashsim.NewMemDevice(cfg.Env, soakCapacity)
	}
	if cfg.Obs != nil {
		flashsim.Observe(dev, cfg.Obs, nil, "soak")
	}
	fi := flashsim.NewFaultInjector(cfg.Env, dev, cfg.Seed+17)
	fi.TornWriteRate = cfg.TornRate // only failing writes tear, so windows gate it
	geo := core.PlanPartition(dev.Capacity(), 24, soakValLen, core.PlanOpts{})
	store := core.NewStore(core.StoreConfigFor(geo, core.Config{
		Env:    cfg.Env,
		Device: fi,
	}))

	rng := rand.New(rand.NewSource(cfg.Seed))
	const keyspace = soakOpsPerCycle / 2
	keys := make([]soakKey, keyspace)
	key := func(i int) []byte { return []byte(fmt.Sprintf("soak-%05d", i)) }

	// compactIfNeeded runs compactions with injection off: the soak tests
	// crash durability, and a compaction failing mid-move is an engine-level
	// concern the cluster drills cover.
	compactIfNeeded := func() error {
		saved := fi.ErrorRate
		fi.ErrorRate = 0
		defer func() { fi.ErrorRate = saved }()
		if store.NeedsValueCompaction() {
			if _, err := store.CompactValueLog(p); err != nil {
				return err
			}
		}
		if store.NeedsKeyCompaction() {
			if _, err := store.CompactKeyLog(p); err != nil {
				return err
			}
		}
		return nil
	}

	// One superblock up front so every later recovery has an anchor; writes
	// after it are recovered by the key-log scan past the persisted tail.
	if err := store.Flush(p); err != nil {
		rep.violate("initial flush: %v", err)
		rep.Pass = false
		return rep
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		val := func(i, op int) string {
			return fmt.Sprintf("c%d-%d|soak-%05d", cycle, op, i)
		}
		for op := 0; op < soakOpsPerCycle; op++ {
			// Device faults only in the middle half of the cycle, so every
			// cycle also exercises clean writes before and after.
			if op == soakOpsPerCycle/4 {
				fi.ErrorRate = cfg.ErrorRate
			}
			if op == 3*soakOpsPerCycle/4 {
				fi.ErrorRate = 0
			}
			i := rng.Intn(keyspace)
			v := val(i, op)
			if _, err := store.Put(p, key(i), []byte(v)); err != nil {
				keys[i].tainted = true
				rep.WritesFailed++
			} else {
				keys[i].lastAcked = v
				keys[i].tainted = false
				rep.WritesAcked++
			}
			if err := compactIfNeeded(); err != nil {
				rep.violate("cycle %d compaction: %v", cycle, err)
			}
			// Interleaved read of a random key, checked against the tracker.
			j := rng.Intn(keyspace)
			checkSoakKey(p, store, rep, key(j), &keys[j], fmt.Sprintf("cycle %d", cycle))
		}
		fi.ErrorRate = 0

		// Power cut: odd cycles flush first (superblock recovery), even
		// cycles don't (key-log scan recovery) — both must hold every ack.
		if cycle%2 == 1 {
			if err := store.Flush(p); err != nil {
				rep.violate("cycle %d flush: %v", cycle, err)
			}
		}
		store = core.NewStore(store.Config())
		segs, err := store.Recover(p)
		if err != nil {
			rep.violate("cycle %d recovery: %v", cycle, err)
			break
		}
		rep.Restarts++
		rep.RecoveredSegments += int64(segs)

		// Post-recovery audit: every acked write must have survived.
		for i := range keys {
			checkSoakKey(p, store, rep, key(i), &keys[i], fmt.Sprintf("after recovery %d", cycle))
		}
	}

	rep.Keys = keyspace
	rep.LiveObjects = store.Objects()
	rep.DeviceInjected = fi.Injected()
	rep.Elapsed = cfg.Env.Now() - start
	rep.Pass = len(rep.Violations) == 0
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot()
		rep.Metrics = &snap
	}
	return rep
}

// checkSoakKey reads one key and applies the durability invariants: an
// acknowledged write is never missing, and an untainted key reads exactly
// its last acknowledged value.
func checkSoakKey(p runtime.Task, store *core.Store, rep *Report, k []byte, ks *soakKey, when string) {
	rep.Reads++
	got, _, err := store.Get(p, k)
	switch {
	case err == core.ErrNotFound:
		if ks.lastAcked != "" {
			rep.violate("%s: lost acked write: %s NotFound, acked %q", when, k, ks.lastAcked)
		}
	case err != nil:
		// Injected read errors say nothing about durability.
	case ks.tainted:
		// A failed Put may or may not have landed; any value is legal.
	case ks.lastAcked != "" && string(got) != ks.lastAcked:
		rep.violate("%s: %s = %q, want acked %q", when, k, got, ks.lastAcked)
	}
}
