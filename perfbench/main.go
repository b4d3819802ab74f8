// Command perfbench is the repository's benchmark. It runs one workload
// of the simulator from a seed for a fixed host-time budget, checks the
// simulated outputs, and prints every metric by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.py, which builds
// this module first:
//
//	python3 perfbench/run.py --workload gemm-fullgrid --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 spends half the
// budget untraced and half under a CPU profile with spans, and reports
// the per-layer metrics. README.md in this directory describes the
// workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ais-snu/localut/internal/lut"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	jobs     int
	setups   int
	spansOut string
	// expected maps workload -> seed -> digest every pass must reproduce.
	expected map[string]map[string]string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

//go:embed expected.json
var expectedJSON []byte

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: figures, gemm-fullgrid, fleet-prefill, fleet-decode-traced")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 15, "host seconds of timed passes (at least one pass runs)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: bad -trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	}
	o.trace = *traceFlag == 1
	o.size = full
	o.jobs = min(runtime.NumCPU(), 2)
	o.setups = 7
	o.spansOut = fmt.Sprintf(".bench_build/spans/%s-%d.json", o.workload, o.seed)
	if err := json.Unmarshal(expectedJSON, &o.expected); err != nil {
		fmt.Fprintln(stderr, "perfbench: expected.json:", err)
		return 1
	}
	res, summary, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	io.WriteString(stdout, summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runState accumulates the checked outcome of every pass.
type runState struct {
	reference string // digest every pass must reproduce
	source    string // "expected" or "first pass"
	attempted int
	failed    int
	lastSim   map[string]float64
	lastWork  float64
}

// account checks one pass against the reference digest and counts its
// operations; a pass whose digest differs fails every operation it ran.
func (s *runState) account(po *passOut) {
	s.attempted += po.ops
	s.failed += po.failed
	if po.digest == "" {
		return
	}
	if s.reference == "" {
		s.reference, s.source = po.digest, "first pass"
	}
	if po.digest != s.reference {
		s.failed += po.ops - po.failed
	}
	s.lastSim, s.lastWork = po.sim, po.work
}

// bench runs one workload: setups, untraced passes, and for a traced run
// the twin and traced passes. It returns the result and a readable
// summary; an error means the benchmark itself could not run.
func bench(o options) (*result, string, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, "", err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	e := &env{seed: o.seed, size: o.size, jobs: o.jobs, tr: tr}
	root := tr.begin("workload "+w.name, 0)
	st := &runState{}
	if want, ok := o.expected[w.name][strconv.FormatInt(o.seed, 10)]; ok {
		st.reference, st.source = want, "expected"
	}

	// Setup, repeated from a cold LUT cache and a collected heap each time.
	var state any
	var setupTimes, setupMisses []float64
	for i := 0; i < max(o.setups, 1); i++ {
		lut.ResetCache()
		debug.FreeOSMemory()
		sp := tr.begin("setup", root)
		e.parent = sp
		t0 := hostNow()
		state, err = w.setup(e)
		setupTimes = append(setupTimes, hostNow().Sub(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, "", err
		}
		_, misses, _ := lut.CacheStats()
		setupMisses = append(setupMisses, float64(misses))
	}

	// Untraced passes: the end-to-end numbers. Every pass starts from a
	// collected heap with freed memory returned to the OS, so passes start
	// alike and each reaches its own peak resident set. Where a pass's
	// last collection falls decides whether it peaks near one or two
	// times its live heap; the highest peak over the passes is the steady
	// figure.
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	e.tr = nil
	var hostTimes, rates, rss []float64
	t0 := hostNow()
	for len(hostTimes) == 0 || hostNow().Sub(t0).Seconds() < budget {
		debug.FreeOSMemory()
		var po *passOut
		var d float64
		peak, err := peakRSSDuring(func() {
			p0 := hostNow()
			po = w.pass(e, state)
			d = hostNow().Sub(p0).Seconds()
		})
		if err != nil {
			return nil, "", err
		}
		rss = append(rss, peak)
		hostTimes = append(hostTimes, d)
		rates = append(rates, po.work/d)
		st.account(po)
	}

	res := &result{Metrics: map[string]metric{}}
	var sb strings.Builder
	if !o.trace {
		set := func(name string, v float64) { res.Metrics[name] = metric{finite(v), unitOf(endToEnd, name)} }
		set("host_s", median(hostTimes))
		set("setup_s", median(setupTimes))
		set("ops_per_s", median(rates))
		set("peak_rss_mb", slices.Max(rss))
		set("ok_frac", 1-float64(st.failed)/float64(st.attempted))
		fmt.Fprintf(&sb, "perfbench %s seed=%d: %d setups, %d passes, pass seconds min %.4g median %.4g max %.4g\n",
			w.name, o.seed, len(setupTimes), len(hostTimes), slices.Min(hostTimes), median(hostTimes), slices.Max(hostTimes))
	} else {
		layer, err := tracedPasses(o, w, e, tr, root, state, st, hostTimes)
		if err != nil {
			return nil, "", err
		}
		layer["lut.cache_misses"] = median(setupMisses)
		for _, m := range perLayer() {
			v := layer[m.name]
			if strings.HasPrefix(m.name, "sim.") {
				v = st.lastSim[m.name]
			}
			res.Metrics[m.name] = metric{finite(v), m.unit}
		}
		tr.end(root)
		if err := tr.write(o.spansOut); err != nil {
			return nil, "", fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(&sb, "perfbench %s seed=%d traced: %d setups, %d untraced passes; spans in %s\n",
			w.name, o.seed, len(setupTimes), len(hostTimes), o.spansOut)
	}
	res.Attempted, res.Failed = st.attempted, st.failed
	res.Correct = st.failed == 0 && st.attempted > 0

	fmt.Fprintf(&sb, "  outputs: digest %s checked against %s; %d of %d checks failed\n",
		st.reference, st.source, st.failed, st.attempted)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "  %-34s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	simKeys := make([]string, 0, len(st.lastSim))
	for k := range st.lastSim {
		simKeys = append(simKeys, k)
	}
	sort.Strings(simKeys)
	for _, k := range simKeys {
		fmt.Fprintf(&sb, "  %-34s %14.10g (simulated, identical for a seed)\n", k, st.lastSim[k])
	}
	sb.WriteString("  note: simulated values come from the repository's cycle and energy models, which have no hardware reference here; they are unvalidated.\n")
	return res, sb.String(), nil
}

// tracedPasses runs the obs-off twins and then the traced passes under a
// CPU profile, and derives the per-layer metrics.
func tracedPasses(o options, w *workloadDef, e *env, tr *tracer, root int, state any,
	st *runState, hostTimes []float64) (map[string]float64, error) {
	layer := map[string]float64{}
	if w.twin != nil && st.lastWork > 0 {
		var twins []float64
		for i := 0; i < 3; i++ {
			debug.FreeOSMemory()
			d, err := w.twin(e, state)
			if err != nil {
				return nil, fmt.Errorf("obs-off twin: %w", err)
			}
			twins = append(twins, d)
		}
		layer["obs.overhead_us_per_req"] = (median(hostTimes) - median(twins)) / st.lastWork * 1e6
	}

	// Each traced pass is profiled on its own, so the forced collection
	// between passes stays out of the profile and the counters.
	e.tr = tr
	var times []float64
	var passLayers []map[string]float64
	var work, mallocs, bytesAlloc, gcCPU, totalCPU, lutHits, lutMisses float64
	self := map[string]float64{}
	budget := o.seconds / 2
	t0 := hostNow()
	for len(times) == 0 || hostNow().Sub(t0).Seconds() < budget {
		debug.FreeOSMemory()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rt0 := readCPUClasses()
		lh0, lm0, _ := lut.CacheStats()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		sp := tr.begin(fmt.Sprintf("pass %d", len(times)+1), root)
		e.parent = sp
		p0 := hostNow()
		po := w.pass(e, state)
		times = append(times, hostNow().Sub(p0).Seconds())
		tr.end(sp)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		rt1 := readCPUClasses()
		lh1, lm1, _ := lut.CacheStats()

		st.account(po)
		passLayers = append(passLayers, po.layer)
		work += po.work
		mallocs += float64(ms1.Mallocs - ms0.Mallocs)
		bytesAlloc += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		gcCPU += rt1[0] - rt0[0]
		totalCPU += rt1[1] - rt0[1]
		lutHits += float64(lh1 - lh0)
		lutMisses += float64(lm1 - lm0)
		ps, err := selfSeconds(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for _, mod := range modules {
			self[mod] += ps[mod]
		}
	}

	n := float64(len(times))
	for _, mod := range modules {
		layer[mod+".self_s"] = self[mod] / n
	}
	// collect gathers one pass-measured value across the traced passes.
	collect := func(k string) []float64 {
		var vs []float64
		for _, l := range passLayers {
			if v, ok := l[k]; ok {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for _, m := range perLayer() {
		if vs := collect(m.name); len(vs) > 0 {
			layer[m.name] = median(vs)
		}
	}
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	sum := func(k string) float64 {
		t := 0.0
		for _, v := range collect(k) {
			t += v
		}
		return t
	}
	layer["costmodel.cache_hit_ratio"] = ratio(sum("costmodel.cache_hits"), sum("costmodel.cache_misses"))
	layer["gemm.costmemo_hit_ratio"] = ratio(sum("gemm.costmemo_hits"), sum("gemm.costmemo_misses"))
	layer["lut.cache_hit_ratio"] = ratio(lutHits, lutMisses)

	layer["runtime.mallocs"] = mallocs / n
	layer["runtime.alloc_mb"] = bytesAlloc / n / (1 << 20)
	if totalCPU > 0 {
		layer["runtime.gc_cpu_frac"] = gcCPU / totalCPU
	}
	if work > 0 {
		switch w.unit {
		case "tile":
			layer["gemm.allocs_per_tile"] = mallocs / work
			layer["gemm.bytes_per_tile"] = bytesAlloc / work
		case "req":
			layer["cluster.allocs_per_req"] = mallocs / work
			layer["cluster.bytes_per_req"] = bytesAlloc / work
		}
	}
	layer["bench.trace_overhead_frac"] = median(times)/median(hostTimes) - 1
	return layer, nil
}

// readCPUClasses samples the runtime's GC and total CPU-seconds.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// rssMiB reads the process's resident set from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSDuring runs fn while polling the resident set every 5 ms and
// returns the highest value seen. The Go heap holds freed pages until the
// scavenger returns them, so peaks last far longer than the poll period.
func peakRSSDuring(fn func()) (float64, error) {
	peak, err := rssMiB()
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		p := peak
		tick := time.NewTicker(5 * time.Millisecond) //determlint:walltime polls host memory while a pass runs
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-stop:
				if v, err := rssMiB(); err == nil {
					p = max(p, v)
				}
				done <- p
				return
			}
			if v, err := rssMiB(); err == nil {
				p = max(p, v)
			}
		}
	}()
	fn()
	close(stop)
	return <-done, nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finite keeps the JSON encodable: NaN and infinities become 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
