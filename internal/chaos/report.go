package chaos

import (
	"fmt"
	"strings"

	"leed/internal/cluster"
	"leed/internal/obs"
	"leed/internal/runtime"
)

// Report is one drill's outcome, whatever its shape; counters a shape has
// no use for stay zero. On the sim backend every field is filled from
// deterministic state (seeded rngs, virtual clocks, sorted iteration), so
// the same seed renders a byte-identical String — the property CI leans on
// to catch any nondeterminism that creeps into the protocol stack.
type Report struct {
	Scenario Scenario
	Seed     int64
	Pass     bool
	// Violations are invariant breaches, in detection order.
	Violations []string

	// Working-set accounting.
	Keys     int
	Poisoned int // keys whose write may or may not have landed (version ambiguous)
	DupRisk  int // keys whose acked write needed retries (duplicate may trail)

	// Client-observed traffic.
	WritesAcked, WritesFailed int64
	AckedAfterFault           int64 // writes acked after the fault landed (liveness)
	Reads, ReadErrors         int64

	// Client recovery machinery, summed across clients.
	Backoffs, Retries, Nacks, Timeouts int64
	Reconnects, FastFails              int64
	BreakerOpened                      bool         // some client breaker left closed state
	MaxStall                           runtime.Time // longest single driver op

	// Faults injected.
	DroppedByLoss, DroppedByPartition, Delayed int64 // netsim fabric
	DeviceInjected                             int64 // device fault injectors
	ProxyKills                                 int64 // connections a FaultProxy killed

	// Recovery machinery.
	Restarts                    int64 // node restarts, serve-child restarts, soak power cuts
	RecoveredParts              int64 // partitions a restarted node recovered from flash
	RecoveredSegments           int64 // segments the soak's recoveries rebuilt
	CopyRetries, ShieldedCopies int64
	PartitionsLost              int64
	DirtyResidue                int64 // leaked dirty marks after quiescence (metric, not invariant)
	LiveObjects                 int64 // soak: objects in the store at the end

	Victim      cluster.NodeID // node the fault hit, when it hit one
	EpochBefore uint64         // view epoch just before the fault
	FinalEpoch  uint64
	Elapsed     runtime.Time // backend time from start to the end of the checks

	// Metrics is the drill registry's final snapshot. It is excluded from
	// String() so the byte-compared transcript stays small; under sim the
	// snapshot itself is deterministic too.
	Metrics *obs.Snapshot
}

// String renders the report with a fixed field order; tests compare these
// strings byte-for-byte across runs of the same seed.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "drill scenario=%s seed=%d verdict=%s\n", r.Scenario, r.Seed, verdict)
	fmt.Fprintf(&b, "  keys=%d poisoned=%d dupRisk=%d\n", r.Keys, r.Poisoned, r.DupRisk)
	fmt.Fprintf(&b, "  writesAcked=%d writesFailed=%d ackedAfterFault=%d reads=%d readErrors=%d\n",
		r.WritesAcked, r.WritesFailed, r.AckedAfterFault, r.Reads, r.ReadErrors)
	fmt.Fprintf(&b, "  backoffs=%d retries=%d nacks=%d timeouts=%d reconnects=%d fastFails=%d breakerOpened=%v maxStall=%v\n",
		r.Backoffs, r.Retries, r.Nacks, r.Timeouts, r.Reconnects, r.FastFails, r.BreakerOpened, r.MaxStall)
	fmt.Fprintf(&b, "  droppedByLoss=%d droppedByPartition=%d delayed=%d deviceInjected=%d proxyKills=%d\n",
		r.DroppedByLoss, r.DroppedByPartition, r.Delayed, r.DeviceInjected, r.ProxyKills)
	fmt.Fprintf(&b, "  restarts=%d recoveredParts=%d recoveredSegments=%d copyRetries=%d shieldedCopies=%d\n",
		r.Restarts, r.RecoveredParts, r.RecoveredSegments, r.CopyRetries, r.ShieldedCopies)
	fmt.Fprintf(&b, "  partitionsLost=%d dirtyResidue=%d liveObjects=%d victim=%d epoch=%d→%d elapsed=%v\n",
		r.PartitionsLost, r.DirtyResidue, r.LiveObjects, r.Victim, r.EpochBefore, r.FinalEpoch, r.Elapsed)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	return b.String()
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}
