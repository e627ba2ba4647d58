package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef is one entry of the metric catalogue. The catalogue is the
// single list of what the benchmark reports; BENCHMARK.json at the root
// of the repository repeats its names, units and directions, and a test
// keeps the two equal.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "higher" or "lower"
	Layer     string // module / layer the metric describes
	Workloads []string
	EndToEnd  bool
}

const (
	wSwarm       = "swarm-sweep"
	wGrid        = "gossip-grid"
	wGridDurable = "gossip-grid-durable"
	wDelivery    = "delivery-local"
)

var (
	// allWorkloads can be run; BENCHMARK.json gates on benchmarked.
	// The durable workloads are left out of the gate: their wall clock
	// is mostly fsyncs, which moved by up to 2x between runs minutes
	// apart on a shared disk, so a bound on them would gate on the disk,
	// not the code. Compare them with paired, alternating runs instead.
	allWorkloads = []string{wSwarm, wGrid, wDelivery, wGridDurable}
	benchmarked  = []string{wSwarm, wGrid}
	localOnly    = []string{wSwarm, wDelivery}
	grids        = []string{wGrid, wGridDurable}
	cached       = []string{wGrid, wDelivery, wGridDurable}
)

func e2e(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: "end-to-end", Workloads: allWorkloads, EndToEnd: true}
}

func layer(name, unit, better, layer string, workloads []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: layer, Workloads: workloads}
}

// catalogue lists every metric in report order. A per-layer metric is
// reported by every traced run; on a workload outside its Workloads the
// layer is absent and the value is 0.
var catalogue = []metricDef{
	e2e("scores_per_s", "scores/s", "higher"),
	e2e("task_ms_p50", "ms", "lower"),
	e2e("task_ms_tail", "ms", "lower"),
	e2e("cpu_ms_per_score", "ms", "lower"),
	e2e("setup_s", "s", "lower"),
	e2e("recovery_s", "s", "lower"),
	e2e("peak_rss_mb", "MB", "lower"),

	layer("sim.points", "count", "lower", "simulate", allWorkloads),
	layer("sim.busy_s", "s", "lower", "simulate", allWorkloads),
	layer("sim.us_per_point", "us", "lower", "simulate", allWorkloads),
	layer("sim.share", "share", "higher", "simulate", allWorkloads),

	layer("job.tasks", "count", "lower", "job pool + sink", allWorkloads),
	layer("job.pool_idle_share", "share", "lower", "job pool + sink", localOnly),
	layer("job.unattributed_share", "share", "lower", "job pool + sink", localOnly),

	layer("io.write_syscalls_per_task", "count", "lower", "storage", allWorkloads),
	layer("io.write_bytes_per_score", "B", "lower", "storage", allWorkloads),
	layer("store.files_per_task", "count", "lower", "storage", allWorkloads),
	layer("store.bytes_per_score", "B", "lower", "storage", allWorkloads),

	layer("cache.gets", "count", "lower", "cache", cached),
	layer("cache.hit_ratio", "ratio", "higher", "cache", cached),
	layer("cache.get_us_mean", "us", "lower", "cache", cached),
	layer("cache.puts", "count", "lower", "cache", cached),
	layer("cache.put_us_mean", "us", "lower", "cache", cached),
	layer("cache.gets_per_task", "count", "lower", "cache", cached),
	layer("cache.open_ms", "ms", "lower", "cache", cached),

	layer("rpc.lease_ms_p50", "ms", "lower", "grid worker client", grids),
	layer("rpc.lease_ms_tail", "ms", "lower", "grid worker client", grids),
	layer("rpc.upload_ms_p50", "ms", "lower", "grid worker client", grids),
	layer("rpc.upload_ms_tail", "ms", "lower", "grid worker client", grids),
	layer("rpc.calls_per_task", "count", "lower", "grid worker client", grids),
	layer("rpc.retries", "count", "lower", "grid worker client", grids),
	layer("rpc.lease_useful_ratio", "ratio", "higher", "grid worker client", grids),
	layer("rpc.transport_ms_p50", "ms", "lower", "grid worker client", grids),
	layer("worker.idle_share", "share", "lower", "grid worker client", grids),

	layer("coord.lease_ms_p50", "ms", "lower", "grid coordinator", grids),
	layer("coord.lease_ms_tail", "ms", "lower", "grid coordinator", grids),
	layer("coord.ingest_ms_p50", "ms", "lower", "grid coordinator", grids),
	layer("coord.ingest_ms_tail", "ms", "lower", "grid coordinator", grids),
	layer("coord.busy_share", "share", "lower", "grid coordinator", grids),
	layer("coord.replay_ms", "ms", "lower", "grid coordinator", grids),
	layer("coord.restore_ms", "ms", "lower", "grid coordinator", grids),

	layer("output.assemble_ms", "ms", "lower", "output", allWorkloads),

	layer("trace.overhead_ratio", "ratio", "lower", "benchmark tracing", allWorkloads),
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalogue {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func printCatalogue(w io.Writer) {
	fmt.Fprintf(w, "%-28s %-9s %-7s %-20s %s\n", "metric", "unit", "better", "layer", "workloads")
	for _, m := range catalogue {
		fmt.Fprintf(w, "%-28s %-9s %-7s %-20s %s\n", m.Name, m.Unit, m.Better, m.Layer, strings.Join(m.Workloads, ","))
	}
}
