package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"leed/internal/core"
)

// The smoke test runs the real binary at -quick scale over all four
// workloads, untraced and traced, so that tier-1 catches a broken ruler
// before the pipeline does: every metric BENCHMARK.json names is present
// with the declared unit, finite and in range, every call verified, and no
// child process or scratch file is left behind.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type resultJSON struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the tables the
// program prints from.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program {%s %s %s}", kind, i, g, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound < 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside [0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	specs := allSpecs()
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, sp := range specs {
		if bf.Workloads[i].Name != sp.name || bf.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, sp.name)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", sp.name)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestValuesVerifyThemselves: a value is accepted only for its own key, at
// a version that was issued, with an intact body.
func TestValuesVerifyThemselves(t *testing.T) {
	v := make([]byte, valLen)
	h := core.HashKey([]byte("user000000000007"))
	fillValue(v, h, 3)
	if why := checkValue(v, h, 3); why != "" {
		t.Fatalf("fresh value rejected: %s", why)
	}
	if checkValue(v, h, 2) == "" {
		t.Error("version above the highest issued was accepted")
	}
	if checkValue(v, core.HashKey([]byte("user000000000008")), 3) == "" {
		t.Error("another key's value was accepted")
	}
	v[100] ^= 1
	if checkValue(v, h, 3) == "" {
		t.Error("a flipped body bit was accepted")
	}
	if checkValue(v[:valLen-1], h, 3) == "" {
		t.Error("a short value was accepted")
	}
}

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "leedbench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// survivors lists processes still running bin.
func survivors(bin string) []string {
	var out []string
	procs, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			out = append(out, p)
		}
	}
	return out
}

func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and runs for ~25 s")
	}
	bf := readBenchmarkFile(t)
	bin := buildBinary(t)
	for _, mode := range []struct {
		trace string
		want  []benchMetric
	}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
		work := t.TempDir() // the run's checkout: .bench_build/ lands here
		cmd := exec.Command(bin, "--quick", "--seconds", "2.5", "--seed", "7", "--trace", mode.trace)
		cmd.Dir = work
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %s: %v\nstderr:\n%s\nstdout:\n%s", mode.trace, err, stderr.String(), stdout)
		}
		var results []resultJSON
		for _, line := range strings.Split(string(stdout), "\n") {
			if !strings.HasPrefix(line, `{"correct"`) {
				continue
			}
			var r resultJSON
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("trace %s: result line %q: %v", mode.trace, line, err)
			}
			results = append(results, r)
		}
		if len(results) != len(bf.Workloads) {
			t.Fatalf("trace %s: %d result lines for %d workloads\n%s", mode.trace, len(results), len(bf.Workloads), stdout)
		}
		for i, r := range results {
			wl := bf.Workloads[i].Name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %s %s: correct=%v attempted=%d failed=%d", mode.trace, wl, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(mode.want) {
				t.Errorf("trace %s %s: %d metrics, want %d", mode.trace, wl, len(r.Metrics), len(mode.want))
			}
			for _, w := range mode.want {
				m, ok := r.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("trace %s %s: metric %s missing", mode.trace, wl, w.Name)
				case m.Unit != w.Unit:
					t.Errorf("trace %s %s: %s has unit %q, want %q", mode.trace, wl, w.Name, m.Unit, w.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("trace %s %s: %s = %v", mode.trace, wl, w.Name, m.Value)
				case mode.trace == "0" && m.Value <= 0:
					t.Errorf("trace %s %s: end-to-end %s = %v, want > 0", mode.trace, wl, w.Name, m.Value)
				case w.Name == "obs.trace_overhead" && math.Abs(m.Value) > 1:
					t.Errorf("trace %s %s: %s = %v, want within [-1, 1]", mode.trace, wl, w.Name, m.Value)
				case w.Name != "obs.trace_overhead" && m.Value < 0:
					t.Errorf("trace %s %s: %s = %v, want >= 0", mode.trace, wl, w.Name, m.Value)
				}
			}
			if mode.trace == "1" && wl == "chain3-a" {
				if v := r.Metrics["cluster.view_epochs"].Value; v != 0 {
					t.Errorf("chain3-a: the view changed %v times during the run", v)
				}
				if v := r.Metrics["cluster.forwards_per_put"].Value; math.Abs(v-2) > 0.05 {
					t.Errorf("chain3-a: %v forwards per PUT, want 2 at R=3", v)
				}
			}
		}
		if left := survivors(bin); len(left) > 0 {
			t.Errorf("trace %s: processes survive the run: %v", mode.trace, left)
		}
		if left, _ := filepath.Glob(filepath.Join(work, ".bench_build", "tmp", "*")); len(left) > 0 {
			t.Errorf("trace %s: scratch files survive the run: %v", mode.trace, left)
		}
	}
}

// TestRunScriptRefusesBareDirectory: in a directory holding only
// BENCHMARK.json and the benchmark's own files there is nothing to build;
// the launcher must fail without printing a result.
func TestRunScriptRefusesBareDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), script, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", "store-a", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = nil
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded in a bare directory; stdout:\n%s", out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Errorf("run.sh printed to stdout before failing:\n%s", out)
	}
}
