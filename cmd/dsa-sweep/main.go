// Command dsa-sweep runs a Design Space Analysis sweep over any
// registered domain and writes a CSV consumed by dsa-report.
//
// Usage:
//
//	dsa-sweep [-domain swarming|gossip|delivery] [-preset quick|paper]
//	          [-stride N] [-opponents N]
//	          [-peers N] [-rounds N] [-perfruns N] [-encruns N]
//	          [-seed N] [-out results.csv] [-explore]
//	          [-checkpoint-dir DIR] [-resume] [-cache-dir DIR]
//	          [-shards N] [-shard-index I] [-chunk N] [-trace-dir DIR]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// -domain selects the design space: swarming is the 3270-protocol
// file-swarming space of Section 4 (the default), gossip the
// 216-protocol dissemination space of Section 3.1, delivery the
// 576-strategy download-orchestration space (Section 7's
// generalisation claim made concrete). An unknown name errors with the
// registered list. Every domain runs through the same sharded,
// checkpointed job engine — the flags below behave identically for all
// of them.
//
// The quick preset reproduces the shape of the paper's results in
// minutes on a laptop; the paper preset is the full-scale experiment
// (for swarming, the 107-million-run Section 4.3 sweep — the authors
// used 25 hours on a 50-node cluster, plan accordingly). -stride N
// evaluates every Nth point, shrinking the point set itself. -explore
// additionally runs the Section 7 heuristic explorers (hill climbing
// and evolutionary search) against the domain's primary measure and
// prints what they find.
//
// Paper-scale runs go through the job engine (internal/job):
// -checkpoint-dir journals every completed task so an interrupted run
// (Ctrl-C, crash, kill) restarted with -resume skips finished work and
// produces byte-identical scores. -shards N -shard-index I runs shard I
// of an N-way split — launch N processes (or machines) with the same
// flags and distinct indices, give each its own checkpoint dir (or
// share one on a common filesystem), then merge with
//
//	dsa-report -domain D -checkpoint DIR -out results.csv merge
//
// after copying the shard dirs' manifest-*.jsonl files together. The shard that finishes last assembles and writes the CSV
// itself when the dirs are shared.
//
// -cache-dir DIR memoises raw scores in a content-addressed store
// (internal/cache): a re-run of the same or an overlapping spec —
// different stride, different chunking, an -explore pass, another
// process sharing the directory — reuses every score it already has
// and produces byte-identical output. The cache key covers everything
// a score depends on, so changing the seed, config or domain makes
// entries miss rather than mis-hit. Inspect a cache with
// `dsa-report -cache-dir DIR cache`.
//
// -trace-dir DIR appends a span journal (trace-s<I>of<N>.jsonl, one
// line per completed span: the sweep root, every task with its
// cache-hit/simulated split, cache lookups and simulate slices) into
// DIR. Journals from different shards of the same sweep merge cleanly:
// point `dsa-report trace DIR` at the directory for critical path,
// per-measure latency, stragglers and cache attribution. Tracing costs
// no steady-state allocations and well under 5% of sweep time.
//
// -cpuprofile / -memprofile write pprof profiles of the sweep (the CPU
// profile covers the whole run; the heap profile is taken after a
// final GC on clean exit), so perf work on the simulators measures
// the real workload instead of guessing — see the README's
// "Benchmarking and profiling" guide. Profiles are written on normal
// completion, including the shard-incomplete path; a run that dies on
// a flag or I/O error leaves no usable profile.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/exp"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/pra"
	"repro/internal/profiling"

	// Register the domains this tool can sweep.
	_ "repro/internal/delivery"
	_ "repro/internal/gossip"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsa-sweep: ")
	var (
		domain    = flag.String("domain", pra.DomainName, "design space to sweep, one of: "+strings.Join(dsa.Names(), ", "))
		preset    = flag.String("preset", "quick", "quick or paper")
		stride    = flag.Int("stride", 1, "evaluate every Nth point of the space")
		opponents = flag.Int("opponents", -1, "opponent panel size (0 = full round-robin)")
		peers     = flag.Int("peers", 0, "population size override")
		rounds    = flag.Int("rounds", 0, "rounds per run override")
		perfRuns  = flag.Int("perfruns", 0, "performance runs override")
		encRuns   = flag.Int("encruns", 0, "encounter runs override")
		seed      = flag.Int64("seed", 1, "master seed")
		out       = flag.String("out", "results.csv", "output CSV path")
		explore   = flag.Bool("explore", false, "also run the heuristic explorers")
		ckptDir   = flag.String("checkpoint-dir", "", "journal completed work here; survives interruption")
		resume    = flag.Bool("resume", false, "continue from an existing checkpoint dir, skipping finished tasks")
		cacheDir  = flag.String("cache-dir", "", "content-addressed score cache; reruns and overlapping sweeps reuse scores")
		shards    = flag.Int("shards", 1, "total shard processes splitting this sweep")
		shardIdx  = flag.Int("shard-index", 0, "this process's shard in [0,shards)")
		chunk     = flag.Int("chunk", 0, "points per job task (0 = default)")
		traceDir  = flag.String("trace-dir", "", "append a span journal (trace-s<I>of<N>.jsonl) into DIR; analyze with dsa-report trace")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on completion")
	)
	flag.Parse()

	// Validate every flag up front, before any sweep state exists: a
	// bad invocation must exit non-zero with a one-line error, never
	// panic later or silently sweep the wrong shard.
	if *stride < 1 {
		log.Fatal("stride must be >= 1")
	}
	if *chunk < 0 {
		log.Fatalf("chunk must be >= 0 (0 = default), got %d", *chunk)
	}
	if *shards < 1 {
		log.Fatalf("shards must be >= 1, got %d", *shards)
	}
	if *shardIdx < 0 || *shardIdx >= *shards {
		log.Fatalf("shard-index must be in [0,%d) for -shards %d, got %d", *shards, *shards, *shardIdx)
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume needs -checkpoint-dir")
	}
	d, err := dsa.Get(*domain)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := d.DefaultConfig(*preset)
	if err != nil {
		log.Fatal(err)
	}
	cfg = dsa.ApplyOverrides(cfg, *seed, *opponents, *peers, *rounds, *perfRuns, *encRuns)
	if *shards > 1 && *ckptDir == "" {
		// Without a journal a shard's results evaporate on exit and
		// there is nothing to merge.
		log.Fatal("-shards needs -checkpoint-dir, or the shard results cannot be merged")
	}
	if *ckptDir != "" && !*resume && *shards == 1 {
		// Refuse to silently mix a new run into old state; the job
		// engine would reject an incompatible spec anyway, but a
		// compatible leftover dir deserves an explicit choice. With
		// -shards > 1 sharing a dir is the documented workflow, so
		// concurrently-started shards are exempt.
		if entries, err := os.ReadDir(*ckptDir); err == nil && len(entries) > 0 {
			log.Fatalf("checkpoint dir %s is not empty; pass -resume to continue it or pick a fresh dir", *ckptDir)
		}
	}

	points := dsa.StridePoints(d, *stride)
	log.Printf("sweeping %d %s points (%s preset, %d peers, %d rounds, %d opponents, shard %d/%d)",
		len(points), d.Name(), *preset, cfg.Peers, cfg.Rounds, cfg.Opponents, *shardIdx, *shards)

	// Profiles cover everything from here on; stopProf is idempotent
	// and is called explicitly on the interrupted path too, so a
	// Ctrl-C'd sweep still leaves a usable CPU profile.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	// The recorder is always live — memory-only without -trace-dir — so
	// the progress line's cache-hit rate and points/sec cost nothing
	// extra when journalling is off.
	writer := fmt.Sprintf("s%dof%d", *shardIdx, *shards)
	var rec *obs.Recorder
	if *traceDir != "" {
		if rec, err = obs.OpenDir(*traceDir, writer); err != nil {
			log.Fatal(err)
		}
		log.Printf("tracing to %s", obs.JournalPath(*traceDir, writer))
	} else {
		rec = obs.NewRecorder(writer)
	}
	defer rec.Close()

	var scoreCache *cache.Store
	if *cacheDir != "" {
		var err error
		if scoreCache, err = cache.Open(cache.Options{Dir: *cacheDir}); err != nil {
			log.Fatal(err)
		}
		defer scoreCache.Close()
		scoreCache.SetTracer(rec)
		st := scoreCache.Stats()
		log.Printf("score cache %s: %d entries, %d bytes on disk", *cacheDir, st.Entries, st.Bytes)
	}

	// First Ctrl-C / SIGTERM cancels the sweep cleanly: in-flight
	// tasks drain (and are journalled), no new ones start. Once the
	// cancellation fires the handler unregisters itself, so a second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	jobOpts := job.Options{
		Dir:        *ckptDir,
		Shards:     *shards,
		ShardIndex: *shardIdx,
		Chunk:      *chunk,
		Trace:      rec,
		Progress:   progressLogger(rec),
	}
	if scoreCache != nil {
		// Assign only when non-nil: a typed-nil *cache.Store in the
		// interface field would read as "cache present".
		jobOpts.Cache = scoreCache
	}
	start := time.Now()
	scores, err := job.Run(ctx, d, points, cfg, jobOpts)
	switch {
	case errors.Is(err, job.ErrIncomplete):
		log.Printf("shard %d/%d done in %v; %v", *shardIdx, *shards, time.Since(start).Round(time.Second), err)
		log.Printf("merge once all shards finish: dsa-report -domain %s -checkpoint %s -out %s merge", d.Name(), *ckptDir, *out)
		return
	case errors.Is(err, context.Canceled):
		// log.Fatal skips defers: flush the journal and profile so an
		// interrupted sweep still leaves usable artifacts.
		rec.Close()
		stopProf()
		if *ckptDir != "" {
			log.Fatalf("interrupted after %v; rerun with -resume -checkpoint-dir %s to continue", time.Since(start).Round(time.Second), *ckptDir)
		}
		log.Fatal("interrupted (no -checkpoint-dir, progress lost)")
	case err != nil:
		rec.Close()
		stopProf() // a sweep dying mid-run still leaves a usable profile
		log.Fatal(err)
	}
	log.Printf("sweep done in %v", time.Since(start).Round(time.Second))
	if st := rec.Stats(); st.PointsSimulated+st.PointsCached > 0 {
		log.Printf("trace: %d tasks, %d points simulated, %d cache-served (%.0f%% hit rate)",
			st.TasksDone, st.PointsSimulated, st.PointsCached,
			100*float64(st.PointsCached)/float64(st.PointsSimulated+st.PointsCached))
	}
	// The profiles' subject — the sweep — is over; finish them now so
	// even a failed CSV write cannot discard an hours-long profile.
	stopProf()

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(f, d, scores); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d rows)", *out, len(scores.Points))

	if *explore {
		runExplorers(d, cfg, scoreCache, rec)
	}
	if scoreCache != nil {
		st := scoreCache.Stats()
		log.Printf("score cache: %d hits, %d misses, %d entries (%d bytes on disk)",
			st.Hits, st.Misses, st.Entries, st.Bytes)
	}
	// Close explicitly so a journal that cannot be flushed fails the
	// run loudly instead of dying silently in a defer.
	if err := rec.Close(); err != nil {
		log.Fatalf("trace journal: %v", err)
	}
}

// writeCSV picks the output format through the shared layout policy:
// the swarming domain keeps its original dsa-sweep CSV layout (the
// figure and table extractors of dsa-report parse it), every other
// domain uses the generic layout.
func writeCSV(f *os.File, d dsa.Domain, scores *dsa.Scores) error {
	return exp.WriteDomainCSV(f, d, scores)
}

// progressLogger returns a job progress callback that logs at most one
// line every few seconds: task counts, elapsed time, an ETA for this
// process's remaining share, and the live cache-hit rate and simulated
// throughput read off the recorder's counters.
func progressLogger(rec *obs.Recorder) func(job.Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(p job.Progress) {
		mu.Lock()
		defer mu.Unlock()
		done := p.FreshTasks >= p.MineTasks
		if !done && time.Since(last) < 5*time.Second {
			return
		}
		last = time.Now()
		eta := "n/a"
		if p.ETA > 0 {
			eta = p.ETA.Round(time.Second).String()
		}
		st := rec.Stats()
		hitRate := 0.0
		if total := st.PointsSimulated + st.PointsCached; total > 0 {
			hitRate = 100 * float64(st.PointsCached) / float64(total)
		}
		rate := 0.0
		if p.Elapsed > 0 {
			rate = float64(st.PointsSimulated) / p.Elapsed.Seconds()
		}
		log.Printf("progress: %d/%d tasks (%d this run), elapsed %v, ETA %s, cache-hit %.0f%%, %.0f pts/s",
			p.DoneTasks, p.TotalTasks, p.FreshTasks, p.Elapsed.Round(time.Second), eta, hitRate, rate)
	}
}

// runExplorers demonstrates the Section 7 heuristic exploration on the
// selected domain against its primary measure, with a shared memoised
// objective. With -cache-dir the two searches also share raw scores
// with each other, with previous runs and with the sweep itself (the
// sweep fills the cache at full PerfRuns scale; the explorers use
// PerfRuns 1, a different config hash, so their entries are disjoint —
// a warm second -explore run is where the cache pays off).
func runExplorers(d dsa.Domain, cfg dsa.Config, store *cache.Store, rec *obs.Recorder) {
	var sc dsa.ScoreCache
	if store != nil {
		sc = store
	}
	perfCfg := cfg
	perfCfg.PerfRuns = 1
	primary := d.Measures()[0]
	weights := dsa.Weights{primary: 1}
	hc, hcCalls, err := dsa.HillClimbTraced(d, weights, perfCfg, core.HillClimbConfig{Restarts: 3, MaxSteps: 30, Seed: cfg.Seed}, sc, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hill climb: %s  raw %s=%.1f  (%d objective calls vs %d exhaustive)\n",
		d.Label(hc.Point), primary, hc.Score, hcCalls, d.Space().Size())
	ev, evCalls, err := dsa.EvolveTraced(d, weights, perfCfg, core.EvolveConfig{Population: 24, Generations: 12, Seed: cfg.Seed}, sc, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evolution:  %s  raw %s=%.1f  (%d objective calls)\n",
		d.Label(ev.Point), primary, ev.Score, evCalls)
}
