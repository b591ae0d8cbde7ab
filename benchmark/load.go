package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"leed/internal/core"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/ycsb"
)

// The load generator: closed loops only. A lane is one connection (or, for
// the embedded store, one caller); a phase runs perLane issuer tasks on each
// lane, every task waiting for its reply before it sends again. Issuers are
// tasks of the SUT's client Env, so the execution contract orders every
// access to the runner's shared state; the main goroutine reads it only
// after a phase's done channel closes.

const (
	keyLen = 16
	valLen = 256

	satWindow = 8  // outstanding calls per lane in the saturation regime
	windows   = 10 // equal windows per phase; a phase reports their median
)

// ---- values that verify themselves ---------------------------------------

// Every value carries its key's hash, a per-key version and a body derived
// from both, so any GET can be checked without knowing which PUT it
// observes: the hash must match the key, the version must be one that was
// issued for that key, and the body must match hash and version.

func bodyWord(h uint64, ver uint32, i int) uint64 {
	x := h ^ uint64(ver)*0x9E3779B97F4A7C15 + uint64(i)
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	return x ^ x>>32
}

func fillValue(buf []byte, h uint64, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:], h)
	binary.LittleEndian.PutUint64(buf[8:], uint64(ver))
	for i := 16; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], bodyWord(h, ver, i))
	}
}

// checkValue reports why val is not a value ever issued for the key with
// hash h, or "" if it is one. maxVer is the highest version issued so far.
func checkValue(val []byte, h uint64, maxVer uint32) string {
	if len(val) != valLen {
		return fmt.Sprintf("value has %d bytes, want %d", len(val), valLen)
	}
	if got := binary.LittleEndian.Uint64(val[0:]); got != h {
		return fmt.Sprintf("value carries key hash %x, want %x", got, h)
	}
	ver := binary.LittleEndian.Uint64(val[8:])
	if ver < 1 || ver > uint64(maxVer) {
		return fmt.Sprintf("value carries version %d, issued 1..%d", ver, maxVer)
	}
	for i := 16; i+8 <= len(val); i += 8 {
		if binary.LittleEndian.Uint64(val[i:]) != bodyWord(h, uint32(ver), i) {
			return fmt.Sprintf("value body differs at byte %d (version %d)", i, ver)
		}
	}
	return ""
}

// rankOf recovers i from ycsb.KeyAt(i) ("user" + 12 digits).
func rankOf(key []byte) int {
	n := 0
	for _, c := range key[4:] {
		n = n*10 + int(c-'0')
	}
	return n
}

// ---- runner ----------------------------------------------------------------

type runner struct {
	sp    *spec
	s     sut
	lanes int
	seed  int64

	gens   [][]*ycsb.Generator // [lane][slot], kept across phases
	issued []uint32            // per key rank: highest version issued

	attempted, failed int64
	firstFailure      string
}

func newRunner(sp *spec, s sut, lanes int, seed int64) *runner {
	r := &runner{sp: sp, s: s, lanes: lanes, seed: seed, issued: make([]uint32, sp.records)}
	r.gens = make([][]*ycsb.Generator, lanes)
	for l := range r.gens {
		for k := 0; k < satWindow; k++ {
			gseed := seed*1_000_003 + int64(l*satWindow+k) + 1
			r.gens[l] = append(r.gens[l], ycsb.NewGenerator(sp.mix, sp.records, valLen, gseed))
		}
	}
	return r
}

// result books one verified call (or sub-op of a batch).
func (r *runner) result(why string) bool {
	r.attempted++
	if why == "" {
		return true
	}
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = why
	}
	return false
}

func (r *runner) nextVersion(rank int) uint32 {
	r.issued[rank]++
	return r.issued[rank]
}

func (r *runner) checkGet(key, val []byte, err error) string {
	if err != nil {
		// No workload deletes, so a miss on a preloaded key is an error too.
		return fmt.Sprintf("GET %s: %v", key, err)
	}
	if why := checkValue(val, core.HashKey(key), r.issued[rankOf(key)]); why != "" {
		return fmt.Sprintf("GET %s: %s", key, why)
	}
	return ""
}

// phase is one timed stretch of load.
type phase struct {
	name    string
	lanes   int // lanes in use; 0 = all of the runner's
	perLane int
	dur     time.Duration
}

type window struct {
	lat  [2][]int32 // per op type: raw call latencies in ns, sorted after the phase
	ops  int64      // ops completed (a batch counts its sub-ops)
	gets int64
	puts int64 // PUT sub-ops acknowledged
}

type boundary struct {
	total snap
	parts []snap
	self  int64 // this process's CPU, µs
	steal int64
	host  int64
}

type phaseResult struct {
	phase
	start  time.Time
	winLen time.Duration
	wins   []window
	marks  []boundary // windows+1 of them
	// Every call of the phase, inside a window or not.
	calls  [2]int64
	callNS [2]int64
}

type recorder struct {
	wins   []window
	calls  [2]int64
	callNS [2]int64
}

func (rc *recorder) call(pr *phaseResult, op int, t0, t1 time.Time, subOps, gets, puts int64) {
	d := t1.Sub(t0)
	rc.calls[op]++
	rc.callNS[op] += int64(d)
	w := int(t1.Sub(pr.start) / pr.winLen)
	if w < 0 || w >= len(rc.wins) {
		return
	}
	if d > 1<<31-1 {
		d = 1<<31 - 1
	}
	win := &rc.wins[w]
	win.lat[op] = append(win.lat[op], int32(d))
	win.ops += subOps
	win.gets += gets
	win.puts += puts
}

func (r *runner) mark() (boundary, error) {
	var b boundary
	var err error
	b.total, b.parts, err = r.s.snap()
	b.self, _ = selfUsage()
	b.steal, b.host = hostCPU()
	return b, err
}

// runPhase drives one phase and snapshots the SUT at every window boundary.
// Main goroutine.
func (r *runner) runPhase(ph phase) (*phaseResult, error) {
	pr := &phaseResult{phase: ph, winLen: ph.dur / windows}
	lanes := r.lanes
	if ph.lanes > 0 {
		lanes = min(lanes, ph.lanes)
	}
	n := lanes * ph.perLane
	recs := make([]*recorder, n)
	done := make(chan struct{})
	left := n
	pr.start = time.Now()
	end := pr.start.Add(pr.winLen * windows)
	for l := 0; l < lanes; l++ {
		for k := 0; k < ph.perLane; k++ {
			rc := &recorder{wins: make([]window, windows)}
			recs[l*ph.perLane+k] = rc
			l, gen := l, r.gens[l][k]
			r.s.env().Spawn("issuer", func(t runtime.Task) {
				if r.sp.batch > 1 {
					r.issueBatches(t, l, gen, pr, rc, end)
				} else {
					r.issueSingles(t, l, gen, pr, rc, end)
				}
				if left--; left == 0 {
					close(done)
				}
			})
		}
	}
	for i := 0; i <= windows; i++ {
		time.Sleep(time.Until(pr.start.Add(time.Duration(i) * pr.winLen)))
		b, err := r.mark()
		if err != nil {
			return nil, err
		}
		pr.marks = append(pr.marks, b)
	}
	<-done

	pr.wins = make([]window, windows)
	for _, rc := range recs {
		for op := range rc.calls {
			pr.calls[op] += rc.calls[op]
			pr.callNS[op] += rc.callNS[op]
		}
		for w := range rc.wins {
			dst, src := &pr.wins[w], &rc.wins[w]
			dst.ops += src.ops
			dst.gets += src.gets
			dst.puts += src.puts
			for op := range src.lat {
				dst.lat[op] = append(dst.lat[op], src.lat[op]...)
			}
		}
	}
	for w := range pr.wins {
		for op := range pr.wins[w].lat {
			slices.Sort(pr.wins[w].lat[op])
		}
	}
	return pr, nil
}

func (r *runner) issueSingles(t runtime.Task, lane int, gen *ycsb.Generator, pr *phaseResult, rc *recorder, end time.Time) {
	val := make([]byte, valLen)
	dst := make([]byte, 0, valLen)
	for time.Now().Before(end) {
		op := gen.Next()
		if op.Type == ycsb.OpRead {
			t0 := time.Now()
			got, err := r.s.get(t, lane, op.Key, dst[:0])
			t1 := time.Now()
			if got != nil {
				dst = got
			}
			r.result(r.checkGet(op.Key, got, err))
			rc.call(pr, opGet, t0, t1, 1, 1, 0)
			continue
		}
		fillValue(val, core.HashKey(op.Key), r.nextVersion(rankOf(op.Key)))
		t0 := time.Now()
		err := r.s.put(t, lane, op.Key, val)
		t1 := time.Now()
		why := ""
		if err != nil {
			why = fmt.Sprintf("PUT %s: %v", op.Key, err)
		}
		acked := int64(0)
		if r.result(why) {
			acked = 1
		}
		rc.call(pr, opPut, t0, t1, 1, 0, acked)
	}
}

// issueBatches collects sp.batch generated ops, ships the reads as one
// MultiGet and the writes as one MultiPut, and books every sub-op.
func (r *runner) issueBatches(t runtime.Task, lane int, gen *ycsb.Generator, pr *phaseResult, rc *recorder, end time.Time) {
	n := r.sp.batch
	slab := make([]byte, n*valLen)
	getKeys := make([][]byte, 0, n)
	putKeys := make([][]byte, 0, n)
	putVals := make([][]byte, 0, n)
	var out []rpcproto.BatchRespItem
	for time.Now().Before(end) {
		getKeys, putKeys, putVals = getKeys[:0], putKeys[:0], putVals[:0]
		for i := 0; i < n; i++ {
			op := gen.Next()
			if op.Type == ycsb.OpRead {
				getKeys = append(getKeys, op.Key)
				continue
			}
			v := slab[len(putKeys)*valLen:][:valLen]
			fillValue(v, core.HashKey(op.Key), r.nextVersion(rankOf(op.Key)))
			putKeys = append(putKeys, op.Key)
			putVals = append(putVals, v)
		}
		if len(getKeys) > 0 {
			t0 := time.Now()
			items, err := r.s.(batcher).multiGet(t, lane, getKeys, out[:0])
			t1 := time.Now()
			out = items
			r.checkMultiGet(getKeys, items, err)
			rc.call(pr, opGet, t0, t1, int64(len(getKeys)), int64(len(getKeys)), 0)
		}
		if len(putKeys) > 0 {
			t0 := time.Now()
			items, err := r.s.(batcher).multiPut(t, lane, putKeys, putVals, out[:0])
			t1 := time.Now()
			out = items
			acked := r.checkMultiPut(putKeys, items, err)
			rc.call(pr, opPut, t0, t1, int64(len(putKeys)), 0, acked)
		}
	}
}

func (r *runner) checkMultiGet(keys [][]byte, items []rpcproto.BatchRespItem, err error) {
	for i, key := range keys {
		switch {
		case err != nil:
			r.result(fmt.Sprintf("MultiGet: %v", err))
		case i >= len(items):
			r.result(fmt.Sprintf("MultiGet: %d items for %d keys", len(items), len(keys)))
		case items[i].Status != rpcproto.StatusOK:
			r.result(fmt.Sprintf("MultiGet %s: status %v", key, items[i].Status))
		default:
			r.result(r.checkGet(key, items[i].Value, nil))
		}
	}
}

func (r *runner) checkMultiPut(keys [][]byte, items []rpcproto.BatchRespItem, err error) (acked int64) {
	for i, key := range keys {
		switch {
		case err != nil:
			r.result(fmt.Sprintf("MultiPut: %v", err))
		case i >= len(items):
			r.result(fmt.Sprintf("MultiPut: %d items for %d keys", len(items), len(keys)))
		case items[i].Status != rpcproto.StatusOK:
			r.result(fmt.Sprintf("MultiPut %s: status %v", key, items[i].Status))
		default:
			r.result("")
			acked++
		}
	}
	return acked
}

// inTasks runs fn(task, lane, slot) on perLane tasks per lane and waits.
func (r *runner) inTasks(perLane int, fn func(t runtime.Task, lane, slot int)) {
	done := make(chan struct{})
	left := r.lanes * perLane
	for l := 0; l < r.lanes; l++ {
		for k := 0; k < perLane; k++ {
			l, k := l, k
			r.s.env().Spawn("worker", func(t runtime.Task) {
				fn(t, l, k)
				if left--; left == 0 {
					close(done)
				}
			})
		}
	}
	<-done
}

// preload writes version 1 of every record through the path the workload
// uses (single PUTs, or MultiPut frames of sp.batch), then reads a seeded
// sample back.
func (r *runner) preload() error {
	next := 0
	total := int(r.sp.records)
	before := r.failed
	r.inTasks(satWindow, func(t runtime.Task, lane, _ int) {
		n := max(r.sp.batch, 1)
		slab := make([]byte, n*valLen)
		keys := make([][]byte, 0, n)
		vals := make([][]byte, 0, n)
		var out []rpcproto.BatchRespItem
		for next < total && r.failed == before {
			keys, vals = keys[:0], vals[:0]
			for len(keys) < n && next < total {
				key := ycsb.KeyAt(int64(next))
				v := slab[len(keys)*valLen:][:valLen]
				fillValue(v, core.HashKey(key), r.nextVersion(next))
				keys, vals = append(keys, key), append(vals, v)
				next++
			}
			if r.sp.batch > 1 {
				items, err := r.s.(batcher).multiPut(t, lane, keys, vals, out[:0])
				out = items
				r.checkMultiPut(keys, items, err)
				continue
			}
			why := ""
			if err := r.s.put(t, lane, keys[0], vals[0]); err != nil {
				why = fmt.Sprintf("PUT %s: %v", keys[0], err)
			}
			r.result(why)
		}
	})
	if r.failed != before {
		return fmt.Errorf("preload: %s", r.firstFailure)
	}
	return r.readBack("preload read-back", 256, false)
}

// readBack GETs a seeded sample of n keys and verifies each. With hot set,
// half the sample is drawn from keys the run has updated; every version
// read must be one that was issued for its key, whichever in-flight PUT won.
func (r *runner) readBack(step string, n int, hot bool) error {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5EED))
	var updated []int
	if hot {
		for rank, v := range r.issued {
			if v > 1 {
				updated = append(updated, rank)
			}
		}
	}
	ranks := make([]int, n)
	for i := range ranks {
		if len(updated) > 0 && i%2 == 0 {
			ranks[i] = updated[rng.Intn(len(updated))]
		} else {
			ranks[i] = rng.Intn(int(r.sp.records))
		}
	}
	before := r.failed
	next := 0
	r.inTasks(satWindow, func(t runtime.Task, lane, _ int) {
		bn := max(r.sp.batch, 1)
		keys := make([][]byte, 0, bn)
		var out []rpcproto.BatchRespItem
		var dst []byte
		for next < len(ranks) {
			keys = keys[:0]
			for len(keys) < bn && next < len(ranks) {
				keys = append(keys, ycsb.KeyAt(int64(ranks[next])))
				next++
			}
			if r.sp.batch > 1 {
				items, err := r.s.(batcher).multiGet(t, lane, keys, out[:0])
				out = items
				r.checkMultiGet(keys, items, err)
				continue
			}
			got, err := r.s.get(t, lane, keys[0], dst[:0])
			if got != nil {
				dst = got
			}
			r.result(r.checkGet(keys[0], got, err))
		}
	})
	if r.failed != before {
		return fmt.Errorf("%s: %s", step, r.firstFailure)
	}
	return nil
}
