package chaos

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"leed/internal/cluster/proc"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/sim"
)

// The proc rows re-exec this test binary as the cluster's manager and node
// processes, exactly like the proc package's own integration battery:
// TestMain diverts to the subcommand dispatcher when LEED_PROC_ROLE is set.
func TestMain(m *testing.M) {
	if os.Getenv("LEED_PROC_ROLE") != "" {
		os.Exit(proc.Main(strings.Fields(os.Getenv("LEED_PROC_ARGS"))))
	}
	os.Exit(m.Run())
}

// testSpawner maps a Spec onto a re-exec of the test binary.
func testSpawner(t *testing.T) func(Spec) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return func(spec Spec) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"LEED_PROC_ROLE=1",
			"LEED_PROC_ARGS="+strings.Join(spec.Args(), " "))
		return cmd
	}
}

// drillCase is one row of the scenario table: what to run and which fault
// engagement to demand beyond a passing verdict.
type drillCase struct {
	sc      Scenario
	backend Backend
	rounds  int
	short   bool // also runs under -short
	check   func(t *testing.T, r *Report, reg *obs.Registry)
}

// drillCases maps each drill test to its row. Every scenario the test
// binary can host is here (kill needs a leedctl `serve` child;
// cmd/leedctl tests it).
var drillCases = map[string]drillCase{
	"TestDrillMessageLoss":            {MessageLoss, BackendSim, 0, true, lossEngaged},
	"TestDrillPartitionHeal":          {PartitionHeal, BackendSim, 0, true, partitionEngaged},
	"TestDrillCrashRestart":           {CrashRestart, BackendSim, 0, true, restarted},
	"TestDrillDeviceFaults":           {DeviceFaults, BackendSim, 0, false, deviceEngaged},
	"TestDrillMixed":                  {Mixed, BackendSim, 0, false, mixedEngaged},
	"TestWallclockDrillMessageLoss":   {MessageLoss, BackendWallclock, 1, true, lossEngaged},
	"TestWallclockDrillPartitionHeal": {PartitionHeal, BackendWallclock, 1, true, partitionEngaged},
	"TestWallclockDrillCrashRestart":  {CrashRestart, BackendWallclock, 1, true, restarted},
	"TestWallclockDrillDeviceFaults":  {DeviceFaults, BackendWallclock, 1, false, deviceEngaged},
	"TestWallclockDrillMixed":         {Mixed, BackendWallclock, 1, false, mixedEngaged},
	"TestServedDrillDrop":             {ProxyDrop, BackendWallclock, 0, true, dropEngaged},
	"TestServedDrillPartition":        {ProxyPartition, BackendWallclock, 0, false, breakerEngaged},
	"TestProcDrillKillTail":           {ProcKillTail, BackendWallclock, 0, false, nil},
	"TestProcDrillKillHead":           {ProcKillHead, BackendWallclock, 0, false, nil},
	"TestProcDrillPartition":          {ProcPartition, BackendWallclock, 0, false, nil},
}

func TestDrillMessageLoss(t *testing.T)            { runCase(t) }
func TestDrillPartitionHeal(t *testing.T)          { runCase(t) }
func TestDrillCrashRestart(t *testing.T)           { runCase(t) }
func TestDrillDeviceFaults(t *testing.T)           { runCase(t) }
func TestDrillMixed(t *testing.T)                  { runCase(t) }
func TestWallclockDrillMessageLoss(t *testing.T)   { runCase(t) }
func TestWallclockDrillPartitionHeal(t *testing.T) { runCase(t) }
func TestWallclockDrillCrashRestart(t *testing.T)  { runCase(t) }
func TestWallclockDrillDeviceFaults(t *testing.T)  { runCase(t) }
func TestWallclockDrillMixed(t *testing.T)         { runCase(t) }
func TestServedDrillDrop(t *testing.T)             { runCase(t) }
func TestServedDrillPartition(t *testing.T)        { runCase(t) }
func TestProcDrillKillTail(t *testing.T)           { runCase(t) }
func TestProcDrillKillHead(t *testing.T)           { runCase(t) }
func TestProcDrillPartition(t *testing.T)          { runCase(t) }

// runCase runs the calling test's row and fails on any invariant
// violation. Sim rows run twice and must render byte-identical reports —
// the seed-reproducibility contract. Real-time rows run in parallel; their
// counters are timing-dependent, so checks assert fault engagement, never
// exact values.
func runCase(t *testing.T) {
	c, ok := drillCases[t.Name()]
	if !ok {
		t.Fatalf("no drill case for %s", t.Name())
	}
	if c.backend == BackendWallclock {
		t.Parallel()
	}
	if testing.Short() && !c.short {
		t.Skip("short mode runs the core scenarios only")
	}
	reg := obs.NewRegistry()
	cfg := Config{Scenario: c.sc, Seed: 1, Backend: c.backend, Rounds: c.rounds, Obs: reg, Spawn: testSpawner(t)}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	checkVerdict(t, rep)
	// Under -short (the race step) only message-loss replays, as the
	// determinism check always did there: partition-heal takes tens of
	// seconds per run under the race detector.
	if c.backend == BackendSim && (!testing.Short() || c.sc == MessageLoss) {
		cfg.Obs = nil
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		if rep.String() != again.String() {
			t.Errorf("same seed, different reports:\n--- run A\n%s--- run B\n%s", rep, again)
		}
	}
	if c.check != nil {
		c.check(t, rep, reg)
	}
}

func lossEngaged(t *testing.T, r *Report, _ *obs.Registry) {
	if r.DroppedByLoss == 0 {
		t.Error("message-loss drill dropped nothing; the fault never engaged")
	}
	if r.WritesAcked == 0 {
		t.Error("no writes were acknowledged under message loss")
	}
}

func partitionEngaged(t *testing.T, r *Report, _ *obs.Registry) {
	if r.DroppedByPartition == 0 {
		t.Error("partition-heal drill dropped nothing; the partition never engaged")
	}
	if r.Poisoned == r.Keys {
		t.Error("every key poisoned: no chain avoided the victim, the drill checked nothing")
	}
}

func restarted(t *testing.T, r *Report, _ *obs.Registry) {
	if r.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", r.Restarts)
	}
	if r.RecoveredParts == 0 {
		t.Error("the restarted node recovered no partitions from flash")
	}
	if r.PartitionsLost != 0 {
		t.Errorf("PartitionsLost = %d on a single-failure drill", r.PartitionsLost)
	}
}

func deviceEngaged(t *testing.T, r *Report, _ *obs.Registry) {
	if r.DeviceInjected == 0 {
		t.Error("device-faults drill injected nothing")
	}
}

func mixedEngaged(t *testing.T, r *Report, _ *obs.Registry) {
	if r.Restarts != 1 || r.DroppedByLoss == 0 {
		t.Errorf("mixed drill engaged restarts=%d droppedByLoss=%d; want both", r.Restarts, r.DroppedByLoss)
	}
}

// dropEngaged: clients reconnected and retried through killed connections,
// and the drill's registry carries the server-side series in Prometheus
// text: a request count that moved and the per-partition latency buckets.
func dropEngaged(t *testing.T, r *Report, reg *obs.Registry) {
	if r.WritesAcked == 0 {
		t.Error("no writes were acknowledged under connection drops")
	}
	if r.ProxyKills == 0 {
		t.Error("drop drill killed no connections; the fault never engaged")
	}
	var page bytes.Buffer
	reg.WritePrometheus(&page)
	var requests int64
	sc := bufio.NewScanner(bytes.NewReader(page.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "leed_server_requests_total") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		requests += n
	}
	if requests <= 0 {
		t.Errorf("leed_server_requests_total = %d, want > 0; page:\n%s", requests, page.String())
	}
	if !bytes.Contains(page.Bytes(), []byte("leed_server_partition_latency_ns_bucket")) {
		t.Errorf("no leed_server_partition_latency_ns_bucket series; page:\n%s", page.String())
	}
}

func breakerEngaged(t *testing.T, r *Report, _ *obs.Registry) {
	if !r.BreakerOpened {
		t.Error("partition drill never opened a client breaker")
	}
	if r.Timeouts == 0 {
		t.Error("partition drill produced no client timeouts")
	}
	if r.WritesAcked == 0 {
		t.Error("no writes were acknowledged across the partition drill")
	}
}

// TestDrillSeedChangesSchedule guards against the rng being wired to a
// constant: different seeds must explore different fault schedules.
func TestDrillSeedChangesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the long run")
	}
	a, errA := Run(Config{Seed: 1, Scenario: MessageLoss})
	b, errB := Run(Config{Seed: 2, Scenario: MessageLoss})
	if errA != nil || errB != nil {
		t.Fatalf("drill errors: %v / %v", errA, errB)
	}
	if a.String() == b.String() {
		t.Error("seeds 1 and 2 produced identical reports; the schedule ignores the seed")
	}
	if !strings.Contains(a.String(), "verdict=") {
		t.Errorf("report missing verdict line:\n%s", a)
	}
}

// TestBudgetTimeoutReturnsUnsharedReport: a drill that outruns its budget
// is a harness error, and the report handed back is not one the abandoned
// drill task keeps writing — reading it must be race-free under -race.
func TestBudgetTimeoutReturnsUnsharedReport(t *testing.T) {
	for _, sc := range []Scenario{MessageLoss, ProxyDrop} {
		rep, err := Run(Config{Scenario: sc, Seed: 1, Backend: BackendWallclock, Budget: 5 * time.Millisecond})
		if err == nil {
			t.Fatalf("%s: a 5ms budget did not time out", sc)
		}
		if rep.Pass || rep.String() == "" || rep.Scenario != sc {
			t.Errorf("%s: timed-out report: %s", sc, rep)
		}
	}
}

// checkVerdict logs the report and fails the test unless it passed and
// renders the verdict line that CLI output and logs are read by.
func checkVerdict(t *testing.T, rep *Report) {
	t.Helper()
	t.Logf("\n%s", rep)
	if !rep.Pass {
		t.Errorf("%s failed:\n%s", rep.Scenario, rep)
	}
	if !strings.Contains(rep.String(), "verdict=PASS") {
		t.Errorf("report renders no verdict=PASS line:\n%s", rep)
	}
}

// runSoak drives one soak on kernel k and fails the test on a violation.
func runSoak(t *testing.T, k *sim.Kernel, cfg SoakConfig) *Report {
	t.Helper()
	cfg.Env = k
	var rep *Report
	k.Go("soak", func(p *sim.Proc) {
		rep = RunSoak(p, cfg)
	})
	k.Run()
	if rep == nil {
		t.Fatal("soak driver never finished")
	}
	checkVerdict(t, rep)
	return rep
}

// TestSoakSurvivesCrashRecoveryCycles runs the faulted soak twice on fresh
// kernels: every power cut must recover every acked write, and one seed
// must render a byte-identical report (elapsed is virtual time, so even it
// must match).
func TestSoakSurvivesCrashRecoveryCycles(t *testing.T) {
	var reps [2]*Report
	for i := range reps {
		k := sim.New()
		reps[i] = runSoak(t, k, SoakConfig{Seed: 5})
		k.Close()
	}
	r := reps[0]
	if r.Restarts != 3 {
		t.Errorf("power-cut recoveries = %d, want 3", r.Restarts)
	}
	if r.RecoveredSegments == 0 {
		t.Error("recovery rebuilt no segments")
	}
	if r.DeviceInjected == 0 && r.WritesFailed == 0 {
		t.Error("the fault window never engaged")
	}
	if r.String() != reps[1].String() {
		t.Errorf("same seed, different soak reports:\n--- run A\n%s--- run B\n%s", r, reps[1])
	}
}

func TestSoakFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the faulted soak")
	}
	k := sim.New()
	defer k.Close()
	rep := runSoak(t, k, SoakConfig{Seed: 3, ErrorRate: -1, Cycles: 2})
	if rep.WritesFailed != 0 || rep.DeviceInjected != 0 {
		t.Errorf("fault-free soak injected faults: failed=%d injected=%d",
			rep.WritesFailed, rep.DeviceInjected)
	}
}

// TestSoakAsyncFileDevice runs the durability soak against the
// submission-queue device over a real image file, with torn writes enabled:
// fault windows kill batches mid-write (half the payload lands), and every
// crash-recovery cycle must still hold every acknowledged write. This is the
// crash-consistency acceptance test for the async device path.
func TestSoakAsyncFileDevice(t *testing.T) {
	img := t.TempDir() + "/soak.img"
	k := sim.New()
	defer k.Close()
	dev, err := flashsim.OpenAsyncFileDevice(k, img, 24<<20, flashsim.AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	rep := runSoak(t, k, SoakConfig{Seed: 23, Device: dev, TornRate: 1.0})
	if rep.DeviceInjected == 0 {
		t.Error("the fault window never engaged; torn batches untested")
	}
	if dev.Stats().Batches == 0 {
		t.Error("the soak never exercised the submission queue")
	}
}
