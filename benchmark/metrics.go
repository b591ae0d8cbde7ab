package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named number of the result: what the JSON line and the
// printed table carry. n is the sample count behind it (0 = not a sampled
// quantity); note explains a value that is "not measured" on this workload.
type metric struct {
	unit  string
	value float64
	n     int
	note  string
}

// metricSet holds computed metrics by name; units and print order come
// from the metricDef tables.
type metricSet map[string]metric

func (s metricSet) put(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s[name] = metric{unit: unitOf(name), value: v, n: n}
}

// na records a metric this workload cannot measure from outside: it prints
// as "n/a" with the reason and travels as 0 in the JSON line.
func (s metricSet) na(name, why string) {
	s[name] = metric{unit: unitOf(name), note: why}
}

// table prints the metrics defs names, in that order.
func (s metricSet) table(title string, defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, d := range defs {
		m, ok := s[d.name]
		switch {
		case !ok:
			fatalf("internal: metric %s was never computed", d.name)
		case m.note != "":
			fmt.Fprintf(&b, "  %-34s %14s %-7s (%s)\n", d.name, "n/a", m.unit, m.note)
		case m.n > 0:
			fmt.Fprintf(&b, "  %-34s %14.4f %-7s n=%d\n", d.name, m.value, m.unit, m.n)
		default:
			fmt.Fprintf(&b, "  %-34s %14.4f %s\n", d.name, m.value, m.unit)
		}
	}
	return b.String()
}

// percentile returns the exact q-quantile (nearest rank) of sorted samples.
func percentile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max-min)/median: how far the windows of one phase disagree.
func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(v); m > 0 {
		return (hi - lo) / m
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfUsage reads this process's CPU time and peak RSS. getrusage reports
// the same kernel accounting as /proc/<pid>/stat and VmHWM, at microsecond
// rather than clock-tick resolution.
func selfUsage() (cpuUS, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	us := func(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime), int64(ru.Maxrss)
}

// selfIO reads this process's read and write syscall counts from
// /proc/self/io; both are 0 where the kernel does not account them.
func selfIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// hostCPU reads the aggregate cpu line of /proc/stat: steal and total
// jiffies since boot.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		n, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

var spinSink uint64

// spinMS times a fixed integer loop: a reading of how fast this host runs
// single-threaded code right now, independent of the system under test.
func spinMS() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return best
}
