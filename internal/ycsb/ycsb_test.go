package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWorkloadMixProportions(t *testing.T) {
	cases := []struct {
		w        Workload
		read, wr float64 // expected fractions (update+insert+rmw as writes)
	}{
		{WorkloadA, 0.5, 0.5},
		{WorkloadB, 0.95, 0.05},
		{WorkloadC, 1.0, 0.0},
		{WorkloadD, 0.95, 0.05},
		{WorkloadF, 0.5, 0.5},
		{WorkloadWR, 0.0, 1.0},
	}
	for _, tc := range cases {
		g := NewGenerator(tc.w, 10000, 64, 1)
		reads := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if g.Next().Type == OpRead {
				reads++
			}
		}
		frac := float64(reads) / n
		if frac < tc.read-0.02 || frac > tc.read+0.02 {
			t.Errorf("%s: read fraction = %.3f, want %.2f", tc.w.Name, frac, tc.read)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(WorkloadA, 1000, 32, 7)
	b := NewGenerator(WorkloadA, 1000, 32, 7)
	for i := 0; i < 500; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Type != ob.Type || string(oa.Key) != string(ob.Key) {
			t.Fatalf("divergence at op %d", i)
		}
	}
}

func TestZipfSkewOrdersRanks(t *testing.T) {
	z := NewZipfGen(1000, 0.99)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Next(rng)]++
	}
	if counts[0] < counts[10] || counts[10] < counts[500] {
		t.Fatalf("zipf not skewed: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// At theta 0.99 the hottest rank should take a large share.
	if counts[0] < 200000/20 {
		t.Fatalf("hottest rank only %d/200000", counts[0])
	}
}

func TestZipfLowSkewIsFlat(t *testing.T) {
	z := NewZipfGen(1000, 0.1)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Next(rng)]++
	}
	// Rank 0 should take far less than at high skew.
	if counts[0] > 200000/50 {
		t.Fatalf("theta=0.1 too skewed: c0=%d", counts[0])
	}
}

func TestZipfRanksInRange(t *testing.T) {
	f := func(seed int64, nRaw uint16, thetaRaw uint8) bool {
		n := int64(nRaw)%5000 + 2
		theta := 0.05 + 0.9*float64(thetaRaw)/255
		z := NewZipfGen(n, theta)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			r := z.Next(rng)
			if r < 0 || r >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfGrowMatchesStatic(t *testing.T) {
	grown := NewZipfGen(100, 0.9)
	grown.Grow(200)
	direct := NewZipfGen(200, 0.9)
	if diff := grown.zetan - direct.zetan; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("incremental zeta diverges: %v vs %v", grown.zetan, direct.zetan)
	}
}

func TestScrambledZipfDisperses(t *testing.T) {
	// The hottest keys must not be adjacent ranks.
	g := NewGenerator(WorkloadC, 100000, 8, 5)
	seen := map[string]int{}
	for i := 0; i < 50000; i++ {
		seen[string(g.Next().Key)]++
	}
	var hotIDs []int64
	for k, c := range seen {
		if c > 500 {
			var id int64
			for _, ch := range k[4:] {
				id = id*10 + int64(ch-'0')
			}
			hotIDs = append(hotIDs, id)
		}
	}
	if len(hotIDs) < 2 {
		t.Skip("not enough hot keys to check dispersion")
	}
	// Unscrambled Zipf would make ranks 0,1,2,... hot; scrambled hot ids
	// must be spread across the keyspace.
	minID, maxID := hotIDs[0], hotIDs[0]
	for _, id := range hotIDs {
		if id < minID {
			minID = id
		}
		if id > maxID {
			maxID = id
		}
	}
	if maxID-minID < 10000 {
		t.Fatalf("hot keys clustered in [%d, %d]", minID, maxID)
	}
}

func TestLatestFavorsRecentKeys(t *testing.T) {
	g := NewGenerator(WorkloadD, 10000, 8, 9)
	recent := 0
	total := 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Type != OpRead {
			continue
		}
		total++
		var id int64
		// key format user%012d
		for _, ch := range op.Key[4:] {
			id = id*10 + int64(ch-'0')
		}
		if id >= g.Records()-1000 {
			recent++
		}
	}
	frac := float64(recent) / float64(total)
	if frac < 0.5 {
		t.Fatalf("latest distribution: only %.2f of reads in newest 10%%", frac)
	}
}

func TestInsertGrowsKeyspace(t *testing.T) {
	g := NewGenerator(WorkloadD, 1000, 8, 2)
	before := g.Records()
	inserts := 0
	for i := 0; i < 5000; i++ {
		if g.Next().Type == OpInsert {
			inserts++
		}
	}
	if g.Records() != before+int64(inserts) {
		t.Fatalf("records = %d, want %d", g.Records(), before+int64(inserts))
	}
	if inserts == 0 {
		t.Fatal("no inserts in YCSB-D")
	}
}

func TestKeyAtFormat(t *testing.T) {
	if string(KeyAt(42)) != "user000000000042" {
		t.Fatalf("KeyAt = %q", KeyAt(42))
	}
}

// TestKeyAtMatchesSprintf pins KeyAt to the fmt format it replaced: keys are
// durable (they name stored objects and route requests), so the bytes must
// never change.
func TestKeyAtMatchesSprintf(t *testing.T) {
	ranks := []int64{0, 1, 9, 10, 42, 999_999_999_999, 1_000_000_000_000, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ranks = append(ranks, rng.Int63n(int64(1)<<(1+rng.Intn(62))))
	}
	for _, i := range ranks {
		if got, want := string(KeyAt(i)), fmt.Sprintf("user%012d", i); got != want {
			t.Fatalf("KeyAt(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { KeyAt(123456) }); n > 1 {
		t.Fatalf("KeyAt = %.1f allocs, want 1", n)
	}
}

func TestByName(t *testing.T) {
	if w, ok := ByName("YCSB-F"); !ok || w.RMWProp != 0.5 {
		t.Fatal("ByName failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown workload found")
	}
}

func TestWithSkew(t *testing.T) {
	w := WorkloadB.WithSkew(0.5)
	if w.Skew != 0.5 || w.Dist != Zipfian {
		t.Fatalf("%+v", w)
	}
	u := WorkloadB.WithSkew(0)
	if u.Dist != Uniform {
		t.Fatal("skew 0 should become uniform")
	}
}
