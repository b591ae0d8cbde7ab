// Package ycsb generates YCSB-style key-value workloads (Cooper et al.,
// SoCC'10): the standard A/B/C/D/F mixes plus the paper's write-only
// YCSB-WR, over uniform, Zipfian (scrambled), and latest request
// distributions with configurable skewness — the workloads behind Figures
// 5-8, 10, and 14.
package ycsb

import (
	"math"
	"math/rand"
	"strconv"
)

// OpType is one workload operation.
type OpType uint8

// Operation types.
const (
	OpRead OpType = iota + 1
	OpUpdate
	OpInsert
	OpReadModifyWrite
)

func (o OpType) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpReadModifyWrite:
		return "RMW"
	}
	return "?"
}

// Distribution selects how keys are drawn.
type Distribution uint8

// Request distributions.
const (
	Uniform Distribution = iota + 1
	Zipfian              // scrambled Zipf over the whole keyspace
	Latest               // Zipf biased toward recently inserted keys
)

// Workload is a YCSB mix definition.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	RMWProp    float64
	Dist       Distribution
	// Skew is the Zipfian theta; YCSB's default is 0.99.
	Skew float64
}

// The six workloads the paper evaluates (§4.1): A (update heavy), B (read
// mostly), C (read only), D (read latest), F (read-modify-write), and WR
// (write only).
var (
	WorkloadA  = Workload{Name: "YCSB-A", ReadProp: 0.5, UpdateProp: 0.5, Dist: Zipfian, Skew: 0.99}
	WorkloadB  = Workload{Name: "YCSB-B", ReadProp: 0.95, UpdateProp: 0.05, Dist: Zipfian, Skew: 0.99}
	WorkloadC  = Workload{Name: "YCSB-C", ReadProp: 1.0, Dist: Zipfian, Skew: 0.99}
	WorkloadD  = Workload{Name: "YCSB-D", ReadProp: 0.95, InsertProp: 0.05, Dist: Latest, Skew: 0.99}
	WorkloadF  = Workload{Name: "YCSB-F", ReadProp: 0.5, RMWProp: 0.5, Dist: Zipfian, Skew: 0.99}
	WorkloadWR = Workload{Name: "YCSB-WR", UpdateProp: 1.0, Dist: Zipfian, Skew: 0.99}
)

// Workloads lists the paper's six mixes in presentation order.
var Workloads = []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadF, WorkloadWR}

// ByName returns the workload with the given name.
func ByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// WithSkew returns a copy of the workload with a different Zipf theta.
func (w Workload) WithSkew(theta float64) Workload {
	w.Skew = theta
	if theta == 0 {
		w.Dist = Uniform
	}
	return w
}

// Op is one generated operation.
type Op struct {
	Type  OpType
	Key   []byte
	Value []byte // nil for reads
}

// Generator produces a deterministic operation stream.
type Generator struct {
	w            Workload
	rng          *rand.Rand
	records      int64 // current keyspace size
	valLen       int
	zipf         *ZipfGen
	keyBuf       []byte
	valBuf       []byte
	opsGenerated int64
}

// NewGenerator creates a generator over a keyspace of records keys with
// valLen-byte values, seeded for reproducibility.
func NewGenerator(w Workload, records int64, valLen int, seed int64) *Generator {
	if records <= 0 {
		panic("ycsb: records must be positive")
	}
	g := &Generator{
		w:       w,
		rng:     rand.New(rand.NewSource(seed)),
		records: records,
		valLen:  valLen,
		valBuf:  make([]byte, valLen),
	}
	if w.Dist == Zipfian || w.Dist == Latest {
		theta := w.Skew
		if theta <= 0 {
			theta = 0.99
		}
		g.zipf = NewZipfGen(records, theta)
	}
	return g
}

// Records returns the current keyspace size (grows with inserts).
func (g *Generator) Records() int64 { return g.records }

// keyDigits is the zero-padded width of KeyAt's rank.
const keyDigits = 12

// KeyAt formats the canonical key for rank i ≥ 0: "user" and the rank padded
// with zeros to 12 digits, wider ranks in full — the bytes of
// fmt.Sprintf("user%012d", i), in one allocation.
func KeyAt(i int64) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], i, 10)
	key := make([]byte, 0, len("user")+max(keyDigits, len(digits)))
	key = append(key, "user"...)
	for n := len(digits); n < keyDigits; n++ {
		key = append(key, '0')
	}
	return append(key, digits...)
}

// nextKeyRank draws a key rank per the workload distribution.
func (g *Generator) nextKeyRank() int64 {
	switch g.w.Dist {
	case Uniform:
		return g.rng.Int63n(g.records)
	case Latest:
		// Bias toward recently inserted keys: rank counts back from the
		// newest record.
		off := g.zipf.Next(g.rng)
		if off >= g.records {
			off = g.records - 1
		}
		return g.records - 1 - off
	default: // Zipfian, scrambled so hot keys spread over the keyspace
		r := g.zipf.Next(g.rng)
		return int64(scramble(uint64(r)) % uint64(g.records))
	}
}

// fillValue writes a deterministic payload for the op sequence number.
func (g *Generator) fillValue(seq int64) []byte {
	v := g.valBuf
	for i := range v {
		v[i] = byte(seq>>uint(8*(i%4))) ^ byte(i)
	}
	return v
}

// Next generates the next operation. The returned slices are reused across
// calls; callers that retain them must copy.
func (g *Generator) Next() Op {
	g.opsGenerated++
	u := g.rng.Float64()
	w := &g.w
	switch {
	case u < w.ReadProp:
		return Op{Type: OpRead, Key: KeyAt(g.nextKeyRank())}
	case u < w.ReadProp+w.UpdateProp:
		return Op{Type: OpUpdate, Key: KeyAt(g.nextKeyRank()), Value: g.fillValue(g.opsGenerated)}
	case u < w.ReadProp+w.UpdateProp+w.RMWProp:
		return Op{Type: OpReadModifyWrite, Key: KeyAt(g.nextKeyRank()), Value: g.fillValue(g.opsGenerated)}
	default: // insert
		key := KeyAt(g.records)
		g.records++
		if g.w.Dist == Latest && g.zipf != nil && g.records > g.zipf.n {
			g.zipf.Grow(g.records)
		}
		return Op{Type: OpInsert, Key: key, Value: g.fillValue(g.opsGenerated)}
	}
}

// scramble is the splitmix64 finalizer, used as YCSB's FNV-style hash to
// de-cluster hot Zipf ranks.
func scramble(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ZipfGen draws ranks from a Zipf(theta) distribution over [0, n) using
// Gray et al.'s incremental method (the algorithm YCSB itself uses), which
// supports any theta in (0, 1) and cheap growth of n.
type ZipfGen struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfGen builds a generator for ranks [0, n).
func NewZipfGen(n int64, theta float64) *ZipfGen {
	if theta <= 0 || theta >= 1 {
		// Clamp: YCSB skews are in (0,1); 0.99 is the default.
		if theta >= 1 {
			theta = 0.9999
		} else {
			theta = 0.0001
		}
	}
	z := &ZipfGen{n: n, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.finish()
	return z
}

func (z *ZipfGen) finish() {
	z.alpha = 1.0 / (1.0 - z.theta)
	z.eta = (1 - math.Pow(2.0/float64(z.n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
}

// Grow extends the rank space to n2, updating zeta incrementally.
func (z *ZipfGen) Grow(n2 int64) {
	for i := z.n + 1; i <= n2; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	z.n = n2
	z.finish()
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws a rank in [0, n), rank 0 being the hottest.
func (z *ZipfGen) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
