// Command perfbench is the repository's benchmark: it times how fast a
// design space becomes correct scores, end to end and at every layer's
// public seam, on three workloads.
//
//	go run . -workload swarm-sweep -seed 1 -seconds 20 -trace 0
//	go run . -catalogue
//
// Each run prepares its inputs and reference outputs from the seed
// outside the timed region, then repeats whole passes of the workload
// for the given seconds and reports the median over passes. Every pass
// checks its CSV output byte for byte against the reference. The last
// line of standard output is one JSON object: correct, attempted,
// failed and the metrics, end-to-end ones with -trace 0 and per-layer
// ones with -trace 1. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/delivery"
	_ "repro/internal/gossip"
	_ "repro/internal/pra"
)

// passResult is what one pass of a workload measured.
type passResult struct {
	wall, setup, cpu, recovery time.Duration
	scores                     int
	lat                        []time.Duration
	recoveries                 []float64 // seconds, one per restart
	attempted, failed          int
	layer                      map[string]float64 // traced passes only
	split                      split              // traced passes only
}

// check compares one output against its reference; a mismatch fails
// every one of the n scores it carries.
func (r *passResult) check(ref, got []byte, n int) {
	r.attempted += n
	if !bytes.Equal(ref, got) {
		r.failed += n
	}
}

// split divides the workers' slot time over the sweep window by layer.
type split struct {
	sim, cache, sink, rpc, coord, idle float64
	outsideMS                          float64 // local: pass time with no task running
}

// workload is one benchmark workload: prepare runs once, outside any
// timed region; pass runs one whole timed sweep (rec nil: untraced).
type workload interface {
	prepare(ctx context.Context) error
	pass(ctx context.Context, rec *recorder) (passResult, error)
}

// minPasses is the fewest passes a run measures, whatever -seconds says,
// so every reported median is over at least this many.
const minPasses = 3

func newWorkload(name string, seed int64, root string) (workload, error) {
	switch name {
	case wSwarm:
		return newSwarmSweep(seed, root)
	case wGrid:
		return newGossipGrid(seed, root, false), nil
	case wGridDurable:
		return newGossipGrid(seed, root, true), nil
	case wDelivery:
		return newDeliveryLocal(seed, root)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(allWorkloads, ", "))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced passes")
	state := flag.String("state", ".bench_build/state", "directory for state dirs and span files")
	cat := flag.Bool("catalogue", false, "print the metric catalogue and exit")
	flag.Parse()
	if *cat {
		printCatalogue(os.Stdout)
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, state string) error {
	ctx := context.Background()
	root := filepath.Join(state, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(root)
	w, err := newWorkload(name, seed, root)
	if err != nil {
		return err
	}
	env, _ := json.Marshal(stamp(root, seed, name, seconds, traced))
	fmt.Printf("env %s\n", env)
	if err := w.prepare(ctx); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	budget := time.Duration(seconds) * time.Second
	if !traced {
		passes, err := measure(ctx, w, budget, nil)
		if err != nil {
			return err
		}
		return report(passes, endToEnd(passes))
	}
	// A traced run spends half its time untraced, so the tracing
	// overhead is measured in the same process, then traces.
	plain, err := measure(ctx, w, budget/2, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	tracedPasses, err := measure(ctx, w, budget/2, rec)
	if err != nil {
		return err
	}
	spanFile := filepath.Join(state, "spans-"+name+".jsonl")
	if err := rec.writeJSONL(spanFile); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", spanFile)
	metrics := perLayer(tracedPasses)
	untracedRate := endToEnd(plain)["scores_per_s"]
	tracedRate := endToEnd(tracedPasses)["scores_per_s"]
	metrics["trace.overhead_ratio"] = 1 - tracedRate/untracedRate
	printSplit(name, tracedPasses)
	fmt.Printf("tracing overhead: scores_per_s %.4g untraced, %.4g traced (%.1f%%)\n",
		untracedRate, tracedRate, 100*metrics["trace.overhead_ratio"])
	return report(append(plain, tracedPasses...), metrics)
}

// measure runs passes until budget has elapsed and at least minPasses
// have run.
func measure(ctx context.Context, w workload, budget time.Duration, rec *recorder) ([]passResult, error) {
	var out []passResult
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < budget {
		// Start every pass from a collected heap and clean page cache:
		// writeback of earlier passes' (or earlier runs') data would
		// otherwise land inside this pass's fsyncs.
		runtime.GC()
		syscall.Sync()
		r, err := w.pass(ctx, rec)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(out)+1, err)
		}
		out = append(out, r)
		st := summarise(r.lat)
		fmt.Printf("pass %d: wall %.3fs setup %.3fms cpu %.3fs recovery %.4fs tasks %d p50 %.4fms tail %.4fms\n",
			len(out), r.wall.Seconds(), float64(r.setup)/1e6, r.cpu.Seconds(), r.recovery.Seconds(), len(r.lat), st.P50, st.TailMS)
	}
	return out, nil
}

// endToEnd reduces passes to the end-to-end metrics: the median over
// passes of each pass's value, and for recovery_s over every restart.
func endToEnd(passes []passResult) map[string]float64 {
	var rate, p50, tail, cpu, setup, recov []float64
	tailP, tailN := 0.0, 0
	for _, p := range passes {
		rate = append(rate, float64(p.scores)/p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu)/1e6/float64(p.scores))
		setup = append(setup, p.setup.Seconds())
		recov = append(recov, p.recoveries...)
		st := summarise(p.lat)
		p50 = append(p50, st.P50)
		tail = append(tail, st.TailMS)
		tailP, tailN = st.TailP, st.N
	}
	rss, err := peakRSSMB()
	if err != nil {
		rss = 0
	}
	fmt.Printf("task_ms_tail is p%g of n=%d tasks per pass, median over %d passes\n", tailP, tailN, len(passes))
	perPass := map[string][]float64{
		"scores_per_s":     rate,
		"task_ms_p50":      p50,
		"task_ms_tail":     tail,
		"cpu_ms_per_score": cpu,
		"setup_s":          setup,
		"recovery_s":       recov,
	}
	out := map[string]float64{"peak_rss_mb": rss}
	for _, m := range catalogue {
		xs, ok := perPass[m.Name]
		if !ok {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		out[m.Name] = q2
		fmt.Printf("%-18s samples: Q1 %.6g median %.6g Q3 %.6g\n", m.Name, q1, q2, q3)
	}
	return out
}

// perLayer is the median over traced passes of each per-layer metric;
// a layer the workload does not have reports 0.
func perLayer(passes []passResult) map[string]float64 {
	out := map[string]float64{}
	for _, m := range catalogue {
		if m.EndToEnd {
			continue
		}
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.layer[m.Name])
		}
		out[m.Name] = median(xs)
	}
	return out
}

func printSplit(name string, passes []passResult) {
	var s split
	for _, p := range passes {
		s.sim += p.split.sim / float64(len(passes))
		s.cache += p.split.cache / float64(len(passes))
		s.sink += p.split.sink / float64(len(passes))
		s.rpc += p.split.rpc / float64(len(passes))
		s.coord += p.split.coord / float64(len(passes))
		s.idle += p.split.idle / float64(len(passes))
		s.outsideMS += p.split.outsideMS / float64(len(passes))
	}
	fmt.Printf("split %s (share of worker-slot time over the sweep, mean of %d traced passes):\n", name, len(passes))
	fmt.Printf("  simulate %.3f | cache %.3f | sink+storage %.3f | rpc client %.3f | coordinator server %.3f | idle %.3f\n",
		s.sim, s.cache, s.sink, s.rpc, s.coord, s.idle)
	if s.outsideMS > 0 {
		fmt.Printf("  pass time with no task running (set-up, output): %.1f ms\n", s.outsideMS)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints every metric by name and unit, then the result line.
func report(passes []passResult, values map[string]float64) error {
	res := result{Metrics: map[string]metricOut{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		def, ok := lookupMetric(n)
		if !ok {
			return fmt.Errorf("metric %q missing from the catalogue", n)
		}
		res.Metrics[n] = metricOut{Value: values[n], Unit: def.Unit}
		fmt.Printf("%-28s %14.6g %s\n", n, values[n], def.Unit)
	}
	fmt.Printf("error_ratio %.6g (%d failed of %d attempted) over %d passes\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, len(passes))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
