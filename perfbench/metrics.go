package main

import "strings"

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. An op is a regenerated figure (figures), a verified bank tile
// (gemm-fullgrid) or a completed request (fleets).
var endToEnd = []metricSpec{
	{"host_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// modules are the program's packages a CPU sample can be charged to,
// plus the benchmark itself, the garbage collector and everything else.
var modules = []string{
	"audit", "banksim", "cluster", "costmodel", "dnn", "energy", "experiments", "fp",
	"gemm", "hostops", "hostsim", "kernels", "lut", "obs", "perm", "pim", "pq", "quant",
	"serve", "stripemap", "trace", "workload", "localut", "bench", "runtime.gc", "other",
}

// perLayer lists the metrics of a traced run. A layer that does no work
// on a workload reports 0.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, m := range modules {
		out = append(out, metricSpec{m + ".self_s", "s", "lower"})
	}
	for _, id := range figureIDs {
		out = append(out, metricSpec{"experiments." + id + "_s", "s", "lower"})
	}
	for _, f := range gemmFormats {
		for _, d := range designKeys {
			out = append(out, metricSpec{"gemm." + d + "." + strings.ToLower(f) + ".us_per_tile", "us", "lower"})
		}
	}
	return append(out,
		metricSpec{"gemm.allocs_per_tile", "count", "lower"},
		metricSpec{"gemm.bytes_per_tile", "B", "lower"},
		metricSpec{"costmodel.cache_hit_ratio", "ratio", "higher"},
		metricSpec{"gemm.costmemo_hit_ratio", "ratio", "higher"},
		metricSpec{"lut.cache_misses", "count", "lower"},
		metricSpec{"lut.cache_hit_ratio", "ratio", "higher"},
		metricSpec{"cluster.allocs_per_req", "count", "lower"},
		metricSpec{"cluster.bytes_per_req", "B", "lower"},
		metricSpec{"runtime.gc_cpu_frac", "frac", "lower"},
		metricSpec{"runtime.alloc_mb", "MiB", "lower"},
		metricSpec{"runtime.mallocs", "count", "lower"},
		metricSpec{"serve.distinct_forward_sims", "count", "lower"},
		metricSpec{"obs.overhead_us_per_req", "us", "lower"},
		metricSpec{"obs.trace_mb", "MB", "lower"},
		metricSpec{"bench.trace_overhead_frac", "frac", "lower"},
		metricSpec{"sim.ttft_p99_s", "s", "lower"},
		metricSpec{"sim.latency_p99_s", "s", "lower"},
		metricSpec{"sim.goodput_per_s", "1/s", "higher"},
		metricSpec{"sim.kernel_cycles", "cycles", "lower"},
		metricSpec{"sim.costmodel_err", "ratio", "lower"},
	)
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
