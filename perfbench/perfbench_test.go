package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
)

func tinyOptions(workload string) options {
	return options{workload: workload, seed: 3, seconds: 0, size: tiny, jobs: 2, setups: 1}
}

func metricNames(specs []metricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func resultNames(res *result) []string {
	var out []string
	for k := range res.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// A seed fixes the inputs: the same seed gives identical operands and
// fleet configs, another seed different operands.
func TestSeedReproducesInputs(t *testing.T) {
	a, err := gemmInputs(7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gemmInputs(7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gemmInputs(8, tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s: seed 7 gave different operands twice", gemmFormats[i])
		}
		if reflect.DeepEqual(a[i].A.Codes, c[i].A.Codes) {
			t.Errorf("%s: seeds 7 and 8 gave identical activations", gemmFormats[i])
		}
	}
	for _, config := range []func(int64, size) any{
		func(s int64, z size) any { return prefillConfig(s, z) },
		func(s int64, z size) any { return decodeConfig(s, z) },
	} {
		if !reflect.DeepEqual(config(7, full), config(7, full)) {
			t.Error("fleet config differs for one seed")
		}
	}
	// The fleet's arrivals derive from the seed: same seed, same outputs.
	e := &env{seed: 7, size: tiny, jobs: 2}
	st, err := fleetSetup(prefillConfig)(e)
	if err != nil {
		t.Fatal(err)
	}
	if p, q := fleetPass(e, st), fleetPass(e, st); p.digest != q.digest || p.failed+q.failed != 0 {
		t.Errorf("fleet outputs differ for one seed: %s vs %s", p.digest, q.digest)
	}
}

// Every workload passes its checks at tiny size and reports exactly the
// end-to-end metrics.
func TestWorkloadsPassTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, err := bench(tinyOptions(w.name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := resultNames(res), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// A traced run reports exactly the per-layer metrics, measures the
// layers each workload exercises, and writes well-formed spans.
func TestTracedRun(t *testing.T) {
	for _, tc := range []struct {
		workload string
		nonzero  []string
		call     string
	}{
		{"figures", []string{"experiments.fig09_s", "sim.costmodel_err"}, "experiments.Suite.RunFigure fig09"},
		{"gemm-fullgrid", []string{"gemm.localut.w1a3.us_per_tile", "gemm.allocs_per_tile", "lut.cache_misses", "sim.kernel_cycles"}, "gemm.Engine.Run localut.w1a3"},
		{"fleet-prefill", []string{"cluster.allocs_per_req", "serve.distinct_forward_sims", "sim.goodput_per_s"}, "localut.System.ServeCluster"},
		{"fleet-decode-traced", []string{"obs.trace_mb", "sim.ttft_p99_s"}, "localut.System.ServeCluster"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			o := tinyOptions(tc.workload)
			o.trace = true
			o.spansOut = filepath.Join(t.TempDir(), "spans.json")
			res, _, err := bench(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed its checks: %+v", res)
			}
			if got, want := resultNames(res), metricNames(perLayer()); !reflect.DeepEqual(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			for _, name := range tc.nonzero {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			data, err := os.ReadFile(o.spansOut)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			ids := map[int]bool{0: true}
			calls := 0
			for _, sp := range spans {
				if !ids[sp.Parent] || sp.EndUS < sp.StartUS {
					t.Errorf("span %+v: unknown parent or negative duration", sp)
				}
				ids[sp.ID] = true
				if sp.Name == tc.call {
					calls++
				}
			}
			if calls == 0 {
				t.Errorf("no %q span", tc.call)
			}
		})
	}
}

// A wrong expected digest fails every check of the run.
func TestCorruptExpectedDigestFails(t *testing.T) {
	o := tinyOptions("gemm-fullgrid")
	o.expected = map[string]map[string]string{"gemm-fullgrid": {"3": "0000"}}
	res, _, err := bench(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("corrupted digest: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if res.Metrics["ok_frac"].Value != 0 {
		t.Errorf("ok_frac = %v, want 0", res.Metrics["ok_frac"].Value)
	}
}

// BENCHMARK.json lists the workloads and metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, specs []metricSpec) {
		if len(got) != len(specs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(specs))
			return
		}
		for i, m := range specs {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/ais-snu/localut/internal/gemm.(*Engine).Run.func1":  "gemm",
		"github.com/ais-snu/localut/internal/trace.(*LogHistogram).Add": "trace",
		"github.com/ais-snu/localut.(*System).ServeCluster":             "localut",
		"main.bench":             "bench",
		"math.Log":               "",
		"github.com/other/pkg.F": "",
	} {
		got, ok := moduleOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if !isGCFrame("runtime.gcBgMarkWorker") || isGCFrame("runtime.mallocgc") {
		t.Error("isGCFrame misclassifies")
	}
}

// spin burns CPU in this package so a profile has samples to charge.
func spin(n int) float64 {
	x := 0.0
	for i := 0; i < n; i++ {
		x += float64(i%7) * 1.0000001
	}
	return x
}

var sink float64

// A real CPU profile decodes, and its samples land in the benchmark's
// own bucket.
func TestSelfSecondsFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	sink = spin(300_000_000)
	pprof.StopCPUProfile()
	self, err := selfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if self["bench"] <= 0 {
		t.Errorf("no CPU charged to the benchmark's own code: %v", self)
	}
}

// Simulated outputs, and so the stored digests, do not depend on the
// host parallelism.
func TestDigestIndependentOfParallelism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, jobs := range []int{1, 2} {
				e := &env{seed: 5, size: tiny, jobs: jobs}
				st, err := w.setup(e)
				if err != nil {
					t.Fatal(err)
				}
				po := w.pass(e, st)
				if po.failed != 0 || po.digest == "" {
					t.Fatalf("jobs=%d: %d of %d ops failed", jobs, po.failed, po.ops)
				}
				digests = append(digests, po.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("digest differs between 1 and 2 workers: %s vs %s", digests[0], digests[1])
			}
		})
	}
}
