package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strconv"
	"strings"

	"github.com/ais-snu/localut"
	"github.com/ais-snu/localut/internal/banksim"
	"github.com/ais-snu/localut/internal/experiments"
	"github.com/ais-snu/localut/internal/gemm"
	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/quant"
	"github.com/ais-snu/localut/internal/workload"
)

// size selects the benchmark's inputs: full is what the benchmark
// measures, tiny keeps every code path but finishes in a unit test.
type size int

const (
	full size = iota
	tiny
)

// env is what a workload's setup and passes see: the seed, the input
// size, the host parallelism, and the tracer (nil when untraced).
type env struct {
	seed int64
	size size
	jobs int
	tr   *tracer
	// parent is the span the workload's calls hang under.
	parent int
}

// passOut is one pass's checked outcome.
type passOut struct {
	// digest hashes the pass's simulated outputs.
	digest string
	// ops counts checked operations (figures, GEMMs, fleet runs);
	// failed counts those whose check failed.
	ops, failed int
	// work counts the units behind ops_per_s: regenerated figures, verified
	// bank tiles, or completed requests.
	work float64
	// sim holds simulated headline values (identical for a seed).
	sim map[string]float64
	// layer holds per-layer values the pass measured itself.
	layer map[string]float64
}

// workloadDef is one benchmark workload. setup prepares the inputs and
// the process-wide warm state the timed passes start from; pass is the
// timed unit; twin, when set, is the same pass with the observability
// layer off (for obs.overhead_us_per_req).
type workloadDef struct {
	name string
	// unit names what work counts (for the per-unit allocation metrics).
	unit  string
	setup func(e *env) (any, error)
	pass  func(e *env, st any) *passOut
	twin  func(e *env, st any) (float64, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []*workloadDef{
	{
		name:  "figures",
		unit:  "figure",
		setup: figuresSetup,
		pass:  figuresPass,
	},
	{
		name:  "gemm-fullgrid",
		unit:  "tile",
		setup: gemmSetup,
		pass:  gemmPass,
	},
	{
		name:  "fleet-prefill",
		unit:  "req",
		setup: fleetSetup(prefillConfig),
		pass:  fleetPass,
	},
	{
		name:  "fleet-decode-traced",
		unit:  "req",
		setup: fleetSetup(decodeConfig),
		pass:  fleetPass,
		twin:  fleetTwin,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// digester accumulates a pass's outputs in a fixed text encoding.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(fields ...any) {
	for _, f := range fields {
		switch v := f.(type) {
		case float64:
			d.h.Write([]byte(strconv.FormatFloat(v, 'g', -1, 64)))
		default:
			fmt.Fprint(d.h, v)
		}
		d.h.Write([]byte{'|'})
	}
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// ---- figures ----

// figureIDs lists the paper figures in paper order.
var figureIDs = []string{
	"fig03", "fig06", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
}

func newSuite(e *env, quick bool) *experiments.Suite {
	s := experiments.New()
	if quick {
		s = experiments.NewQuick()
	}
	s.Seed = e.seed
	s.Mode = kernels.CyclesOnly
	s.Parallelism = e.jobs
	return s
}

// figuresSetup runs every figure but fig17 once at quick scale: a cold
// smoke pass over the suite's code. fig17 is left out because its quick
// scale alone costs as much as all the others together.
func figuresSetup(e *env) (any, error) {
	s := newSuite(e, true)
	for _, id := range figureIDs {
		if id == "fig17" {
			continue
		}
		if _, err := s.RunFigure(id); err != nil {
			return nil, fmt.Errorf("figures setup: %w", err)
		}
	}
	return nil, nil
}

// figuresPass regenerates every figure on a fresh suite. Untraced it is
// one Suite.All call; traced it dispatches the same figures over the
// same pool with one span per figure, and must produce identical tables.
func figuresPass(e *env, _ any) *passOut {
	s := newSuite(e, e.size == tiny)
	out := &passOut{ops: len(figureIDs), work: float64(len(figureIDs)),
		sim: map[string]float64{}, layer: map[string]float64{}}
	var results []*experiments.Result
	var err error
	if e.tr == nil {
		results, err = s.All()
	} else {
		results, err = tracedFigures(e, s, out.layer)
	}
	if err != nil {
		out.failed = out.ops
		return out
	}
	d := newDigester()
	for _, r := range results {
		if r == nil {
			out.failed++
			continue
		}
		var sb strings.Builder
		r.Render(&sb)
		d.add(r.ID, sb.String())
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d.add(k, r.Values[k])
		}
		if r.ID == "fig18" {
			out.sim["sim.costmodel_err"] = r.Values["mean_rel_error"]
		}
	}
	out.digest = d.sum()
	hits, misses := s.Engine.Decisions.Stats()
	out.layer["costmodel.cache_hits"], out.layer["costmodel.cache_misses"] = float64(hits), float64(misses)
	hits, misses = s.Engine.CostRecords.Stats()
	out.layer["gemm.costmemo_hits"], out.layer["gemm.costmemo_misses"] = float64(hits), float64(misses)
	return out
}

// tracedFigures is Suite.All spelled out with public calls: the same
// strided worker pool, each figure on a clone sharing the suite's caches.
func tracedFigures(e *env, s *experiments.Suite, layer map[string]float64) ([]*experiments.Result, error) {
	results := make([]*experiments.Result, len(figureIDs))
	durs := make([]float64, len(figureIDs))
	err := banksim.ForEachShard(len(figureIDs), s.Parallelism, func(i int) error {
		c := *s
		c.Engine = s.Engine.Clone()
		sp := e.tr.begin("experiments.Suite.RunFigure "+figureIDs[i], e.parent)
		r, err := c.RunFigure(figureIDs[i])
		durs[i] = e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", figureIDs[i], err)
		}
		results[i] = r
		return nil
	})
	for i, id := range figureIDs {
		layer["experiments."+id+"_s"] = durs[i]
	}
	return results, err
}

// ---- gemm-fullgrid ----

// designKeys names kernels.Variants in metric keys, in the same order.
var designKeys = []string{"naive", "ltc", "op", "oplc", "oplcrc", "localut"}

// gemmFormats are the two precisions: at W1A3 LoCaLUT streams LUT
// slices, at W4A4 every design keeps its LUT resident.
var gemmFormats = []string{"W1A3", "W4A4"}

func gemmShape(sz size) (m, k, n int) {
	if sz == tiny {
		return 96, 64, 24
	}
	return 768, 768, 128
}

// gemmInputs generates the seeded operand pair of every format.
func gemmInputs(seed int64, sz size) ([]*workload.GEMMPair, error) {
	m, k, n := gemmShape(sz)
	var pairs []*workload.GEMMPair
	for _, name := range gemmFormats {
		f, err := quant.ParseFormat(name)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, workload.NewGEMMPair(m, k, n, f, seed))
	}
	return pairs, nil
}

// gemmSetup generates the operands and builds every LUT the designs use
// from a cold cache, by running each GEMM on its representative bank
// tile only (same plan, same LUTs, 1/2048 of the grid).
func gemmSetup(e *env) (any, error) {
	pairs, err := gemmInputs(e.seed, e.size)
	if err != nil {
		return nil, err
	}
	eng := gemm.NewEngine()
	eng.Exec = gemm.ExecOptions{Parallelism: e.jobs}
	for _, pair := range pairs {
		for _, v := range kernels.Variants {
			if _, err := eng.Run(pair, gemm.Options{Variant: v}); err != nil {
				return nil, fmt.Errorf("gemm setup: %s: %w", v, err)
			}
		}
	}
	return pairs, nil
}

// gemmPass runs the 12 full-grid GEMMs on a fresh engine; every bank
// tile is checked against the reference product.
func gemmPass(e *env, sv any) *passOut {
	pairs := sv.([]*workload.GEMMPair)
	eng := gemm.NewEngine()
	eng.Exec = gemm.ExecOptions{Parallelism: e.jobs, FullGrid: true}
	out := &passOut{sim: map[string]float64{}, layer: map[string]float64{}}
	d := newDigester()
	var cycles int64
	for fi, pair := range pairs {
		fkey := strings.ToLower(gemmFormats[fi])
		for vi, v := range kernels.Variants {
			out.ops++
			sp := e.tr.begin("gemm.Engine.Run "+designKeys[vi]+"."+fkey, e.parent)
			r, err := eng.Run(pair, gemm.Options{Variant: v})
			dur := e.tr.end(sp)
			if err != nil || !r.Verified {
				out.failed++
				d.add(gemmFormats[fi], v, "failed")
				continue
			}
			out.work += float64(r.BanksSimulated)
			cycles += r.KernelCycles
			if e.tr != nil {
				out.layer["gemm."+designKeys[vi]+"."+fkey+".us_per_tile"] = dur * 1e6 / float64(r.BanksSimulated)
			}
			d.add(gemmFormats[fi], v, r.P, r.K, r.Streaming, r.GridM, r.GridN, r.TileM, r.TileN,
				r.Rounds, r.KernelCycles, r.BanksSimulated, r.KernelSeconds, r.HostSeconds,
				r.Transfer, r.InitSeconds, r.Total, r.HostOps, r.Verified)
		}
	}
	out.digest = d.sum()
	out.sim["sim.kernel_cycles"] = float64(cycles)
	hits, misses := eng.Decisions.Stats()
	out.layer["costmodel.cache_hits"], out.layer["costmodel.cache_misses"] = float64(hits), float64(misses)
	hits, misses = eng.CostRecords.Stats()
	out.layer["gemm.costmemo_hits"], out.layer["gemm.costmemo_misses"] = float64(hits), float64(misses)
	return out
}

// ---- fleets ----

// prefillConfig is the million-request static BERT-base fleet.
func prefillConfig(seed int64, sz size) localut.ClusterConfig {
	cfg := localut.ClusterConfig{
		Model: localut.BERTBase, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       8,
		Router:          localut.RouteLeastOutstanding,
		RatePerSec:      17000,
		DurationSeconds: 60,
		Seed:            seed,
		Audit:           true,
	}
	if sz == tiny {
		cfg.DurationSeconds = 1
	}
	return cfg
}

// decodeConfig is the chaos-tested decode fleet with recording on; its
// writers are attached per pass.
func decodeConfig(seed int64, sz size) localut.ClusterConfig {
	cfg := localut.ClusterConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		Instances:       16,
		Replicas:        4,
		OutTokensMean:   16,
		RatePerSec:      250,
		DurationSeconds: 300,
		Seed:            seed,
		Audit:           true,
		Deadlines:       localut.ClusterDeadlines{DefaultSeconds: 8},
		Faults:          localut.ClusterFaults{Enabled: true, MTTFSeconds: 600, MTTRSeconds: 2},
		Domains:         localut.ClusterDomains{Enabled: true, Count: 4, MTBFSeconds: 300, MTTRSeconds: 2},
		Stragglers:      localut.ClusterStragglers{Enabled: true, MTBFSeconds: 120, MeanDurationSeconds: 5, Slowdown: 4},
		Hedge:           localut.ClusterHedge{Enabled: true, DelaySeconds: 1},
		Obs:             localut.ObsConfig{MetricsIntervalSeconds: 1},
	}
	if sz == tiny {
		cfg.DurationSeconds = 5
	}
	return cfg
}

// recording reports whether the config asks for the observability layer.
func recording(cfg localut.ClusterConfig) bool { return cfg.Obs.MetricsIntervalSeconds > 0 }

// fleetSetup warms the process (LUTs the pricing oracle builds, code)
// with the same fleet over a short simulated window.
func fleetSetup(config func(int64, size) localut.ClusterConfig) func(e *env) (any, error) {
	return func(e *env) (any, error) {
		cfg := config(e.seed, e.size)
		warm := cfg
		warm.DurationSeconds = cfg.DurationSeconds / 10
		if _, _, err := serveCluster(e, warm); err != nil {
			return nil, fmt.Errorf("fleet setup: %w", err)
		}
		return cfg, nil
	}
}

// byteCounter is a discarding writer that counts what it is given.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

// serveCluster runs one fleet on a fresh system, attaching discarding
// writers when the config records, and returns the trace byte count.
func serveCluster(e *env, cfg localut.ClusterConfig) (*localut.ClusterReport, int64, error) {
	var trace byteCounter
	if recording(cfg) {
		cfg.Obs.TraceWriter = &trace
		cfg.Obs.MetricsWriter = &byteCounter{}
	}
	sys := localut.NewSystem(localut.WithSeed(e.seed), localut.WithParallelism(e.jobs))
	rep, err := sys.ServeCluster(cfg)
	return rep, trace.n, err
}

// fleetPass serves the fleet once; the auditor runs inside ServeCluster
// and any violation comes back as an error.
func fleetPass(e *env, sv any) *passOut {
	cfg := sv.(localut.ClusterConfig)
	out := &passOut{ops: 1, sim: map[string]float64{}, layer: map[string]float64{}}
	sp := e.tr.begin("localut.System.ServeCluster", e.parent)
	rep, traceBytes, err := serveCluster(e, cfg)
	e.tr.end(sp)
	if err != nil {
		out.failed = 1
		return out
	}
	out.work = float64(rep.Completed)
	out.digest = clusterDigest(rep)
	out.sim["sim.ttft_p99_s"] = rep.TTFT.P99
	out.sim["sim.latency_p99_s"] = rep.Latency.P99
	out.sim["sim.goodput_per_s"] = rep.GoodputPerSec
	out.layer["serve.distinct_forward_sims"] = float64(rep.DistinctForwardSims)
	out.layer["obs.trace_mb"] = float64(traceBytes) / 1e6
	return out
}

// fleetTwin times the same fleet with the observability layer off.
func fleetTwin(e *env, sv any) (float64, error) {
	cfg := sv.(localut.ClusterConfig)
	cfg.Obs = localut.ObsConfig{}
	t0 := hostNow()
	_, _, err := serveCluster(e, cfg)
	return hostNow().Sub(t0).Seconds(), err
}

// clusterDigest hashes a fixed projection of the cluster report: the
// counts, latency distributions, reliability rows and per-instance and
// per-class rows. New report fields do not change it.
func clusterDigest(r *localut.ClusterReport) string {
	d := newDigester()
	stats := func(s localut.LatencyStats) { d.add(s.P50, s.P95, s.P99, s.Mean, s.Max) }
	d.add(r.Model, r.Format, r.Router, r.Admission, r.InstancesInitial, r.InstancesPeak, r.InstancesFinal)
	d.add(r.Offered, r.Admitted, r.Rejected, r.Completed, r.DurationSeconds, r.MakespanSeconds)
	d.add(r.OfferedPerSec, r.ThroughputPerSec, r.TokensPerSec, r.Good, r.GoodputPerSec, r.DeadlineMisses)
	d.add(r.Retries, r.ReprefillTokens, r.Shed, r.ShedExpired, r.ShedKV, r.ShedQueueFull, r.ShedRetries)
	d.add(r.Crashes, r.DegradedEvents, r.UnavailableSeconds, r.LUTRematSeconds)
	stats(r.TimeToRecover)
	d.add(r.DomainOutages, r.DomainOverlapExtensions, r.StragglerWindows)
	d.add(r.HedgesIssued, r.HedgeWins, r.HedgeCancels, r.HedgeDrops, r.HedgeWastedSeconds, r.BusySeconds)
	for _, s := range []localut.LatencyStats{r.Queue, r.Service, r.Latency, r.TTFT, r.TPOT} {
		stats(s)
	}
	d.add(r.TokensIn, r.TokensPadded, r.TokensOut, r.EnergyJ, r.EnergyPerRequestJ)
	d.add(r.KVPeakBytes, r.KVCapacityBytes, r.KVMeanBytes, r.KVMeanUtilization, r.DistinctForwardSims)
	for _, in := range r.Instances {
		d.add(in.ID, in.Design, in.Replicas, in.UpSeconds, in.ActiveSeconds, in.Requests, in.Completed,
			in.Shed, in.Batches, in.DecodeSteps, in.Crashes, in.BusySeconds, in.TokensOut, in.EnergyJ)
	}
	for _, c := range r.Classes {
		d.add(c.Name, c.Offered, c.Admitted, c.Completed, c.Good, c.Shed, c.Retries)
		stats(c.Latency)
		stats(c.TTFT)
	}
	return d.sum()
}
