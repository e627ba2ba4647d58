package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/exp"
	"repro/internal/job"
)

// localWorkload is a job.Run sweep in this process: swarm-sweep (in
// memory, simulator-bound) and delivery-local (checkpoint directory and
// a half-filled disk score cache, plumbing-bound).
type localWorkload struct {
	domain  dsa.Domain // scores the pass; tests swap in a corrupting wrapper
	cfg     dsa.Config
	block   int   // > 0: one point from each block of this many; 0: the whole space
	seed    int64 // shuffles a block subset's order
	chunk   int
	workers int
	durable bool // checkpoint dir + disk cache, half-filled before each pass
	root    string

	ref       []byte // reference CSV, from an in-memory job.Run
	goldCache string // durable: the half-filled cache every pass starts from
	restartCP string // in memory: a finished checkpoint the recovery restarts over
}

// restarts is how many times a pass restarts over its finished state to
// measure recovery, each after a GC; a run reports the median over every
// restart of every pass.
const restarts = 15

func newSwarmSweep(seed int64, root string) (*localWorkload, error) {
	d, err := dsa.Get("swarming")
	if err != nil {
		return nil, err
	}
	// The quick preset as shipped, master seed included: the master
	// seed also picks the tournament opponent panel, and the panel alone
	// moves a sweep's cost by up to 2x, so varying it would make the
	// seed, not the code, the largest effect on this workload.
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		return nil, err
	}
	return &localWorkload{domain: d, cfg: cfg, block: 80, seed: seed,
		chunk: 1, workers: 2, root: root}, nil
}

func newDeliveryLocal(seed int64, root string) (*localWorkload, error) {
	d, err := dsa.Get("delivery")
	if err != nil {
		return nil, err
	}
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	return &localWorkload{domain: d, cfg: cfg, chunk: 1, workers: 2, durable: true, root: root}, nil
}

// points enumerates the space and picks the sweep's points: a jittered
// stride, one point from each block of w.block in enumeration order,
// in an order shuffled by the seed. The position within the block
// advances by a step coprime to the block size, so the subset covers
// every position class of the fast-varying dimensions evenly. The
// subset itself is the same for every seed: the cost of a point varies
// widely across the space, and a seeded subset made the seed, not the
// code, move a run's cost by a sixth. Scores depend on a point's
// ID, not its place in the sweep, so the seed changes only the order in
// which the pool takes the tasks.
func (w *localWorkload) points() []core.Point {
	all := w.domain.Space().Enumerate()
	if w.block <= 0 {
		return all
	}
	const step = 37
	var out []core.Point
	for b, lo := 0, 0; lo < len(all); b, lo = b+1, lo+w.block {
		n := min(w.block, len(all)-lo)
		out = append(out, all[lo+(b*step)%w.block%n])
	}
	r := rand.New(rand.NewPCG(uint64(w.seed), 0))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// prepare builds what every pass checks against or starts from, outside
// any timed region: the reference CSV and, for the durable workload,
// the half-filled cache; for the in-memory one, the finished checkpoint
// its recovery restarts over.
func (w *localWorkload) prepare(ctx context.Context) error {
	pts := w.points()
	ref, err := job.Run(ctx, w.domain, pts, w.cfg, job.Options{Chunk: w.chunk, Workers: w.workers})
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	if w.ref, err = csvBytes(w.domain, ref); err != nil {
		return err
	}
	if w.durable {
		// A previous process scored every other point.
		w.goldCache = filepath.Join(w.root, "gold-cache")
		store, err := cache.Open(cache.Options{Dir: w.goldCache})
		if err != nil {
			return err
		}
		var half []core.Point
		for i := 0; i < len(pts); i += 2 {
			half = append(half, pts[i])
		}
		if _, err := job.Run(ctx, w.domain, half, w.cfg, job.Options{Chunk: w.chunk, Workers: w.workers, Cache: store}); err != nil {
			store.Close()
			return fmt.Errorf("half-fill cache: %w", err)
		}
		return store.Close()
	}
	// The in-memory sweep leaves nothing to restart over, so recovery
	// restarts over a checkpoint of the same sweep, written here from
	// the reference scores through a warm memory cache (no simulation).
	store, err := cache.Open(cache.Options{})
	if err != nil {
		return err
	}
	keyer, err := dsa.NewScoreKeyer(w.domain, w.domain.SampleOpponents(w.cfg), w.cfg)
	if err != nil {
		return err
	}
	for _, m := range w.domain.Measures() {
		for i, p := range pts {
			id, err := w.domain.PointID(p)
			if err != nil {
				return err
			}
			store.Put(keyer.Key(m, id), ref.Raw[m][i])
		}
	}
	w.restartCP = filepath.Join(w.root, "restart-checkpoint")
	_, err = job.Run(ctx, w.domain, pts, w.cfg, job.Options{Dir: w.restartCP, Chunk: w.chunk, Workers: w.workers, Cache: store})
	return err
}

func (w *localWorkload) pass(ctx context.Context, rec *recorder) (passResult, error) {
	var res passResult
	dir := filepath.Join(w.root, "pass")
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	cpDir, cacheDir := filepath.Join(dir, "checkpoint"), filepath.Join(dir, "cache")
	if w.durable {
		if err := copyDirSynced(w.goldCache, cacheDir); err != nil {
			return res, fmt.Errorf("cache fixture: %w", err)
		}
	}
	defer removeSynced(dir)

	var root int32
	var tally *cacheTally
	mark := 0
	if rec != nil {
		mark = rec.mark()
		tally = &cacheTally{}
	}
	io0, cpu0 := readIO(), cpuTime()
	clock := newTaskClock(rec, 0)
	t0 := clock.now()
	if rec != nil {
		root = rec.add(span{Name: "pass", Start: t0})
		clock.parent = root
	}

	pts := w.points()
	d := &hookedDomain{Domain: w.domain, clock: clock, rec: rec}
	opts := job.Options{Chunk: w.chunk, Workers: w.workers, Progress: func(job.Progress) { clock.done() }}
	var store *cache.Store
	if w.durable {
		opts.Dir = cpDir
		if err := rec.timed(root, "cache.open", func() (err error) {
			store, err = cache.Open(cache.Options{Dir: cacheDir})
			return err
		}); err != nil {
			return res, err
		}
		opts.Cache = &hookedCache{inner: store, clock: clock, tally: tally}
	}
	scores, err := job.Run(ctx, d, pts, w.cfg, opts)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return res, err
	}
	var csv []byte
	if err := rec.timed(root, "output", func() (err error) {
		csv, err = csvBytes(w.domain, scores)
		return err
	}); err != nil {
		return res, err
	}
	if store != nil {
		if err := store.Close(); err != nil {
			return res, err
		}
	}
	t1 := clock.now()
	cpu1, io1 := cpuTime(), readIO()
	if rec != nil {
		rec.setEnd(root, t1)
	}

	files, bytes, err := dirUsage(dir)
	if err != nil {
		return res, err
	}
	n := len(pts) * len(w.domain.Measures())
	res.wall = time.Duration(t1 - t0)
	res.setup = time.Duration(clock.first - t0)
	res.cpu = cpu1 - cpu0
	res.scores = n
	res.lat = clock.lat
	res.attempted += len(clock.lat)
	res.check(w.ref, csv, n)

	recoverDir := w.restartCP
	if w.durable {
		recoverDir = cpDir
	}
	var recs []float64
	for i := 0; i < restarts; i++ {
		runtime.GC()
		r, csv, err := w.restart(ctx, recoverDir, cacheDir, pts)
		if err != nil {
			return res, fmt.Errorf("restart: %w", err)
		}
		recs = append(recs, r.Seconds())
		res.check(w.ref, csv, n)
	}
	res.recovery = time.Duration(median(recs) * 1e9)
	res.recoveries = recs

	if rec != nil {
		res.layer, res.split = w.layerMetrics(rec.since(mark), root, clock, tally.snapshot(), io1.minus(io0), files, bytes, n)
	}
	return res, nil
}

// restart reopens the finished state of a pass — the checkpoint and,
// for the durable workload, the cache — and runs the sweep again, which
// restores every task and assembles without dispatching any. It returns
// the time until the scores are back, and their CSV.
func (w *localWorkload) restart(ctx context.Context, cpDir, cacheDir string, pts []core.Point) (time.Duration, []byte, error) {
	start := time.Now()
	opts := job.Options{Dir: cpDir, Chunk: w.chunk, Workers: w.workers}
	var store *cache.Store
	if w.durable {
		var err error
		if store, err = cache.Open(cache.Options{Dir: cacheDir}); err != nil {
			return 0, nil, err
		}
		defer store.Close()
		opts.Cache = store
	}
	scores, err := job.Run(ctx, w.domain, pts, w.cfg, opts)
	if err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(start)
	csv, err := csvBytes(w.domain, scores)
	return elapsed, csv, err
}

// layerMetrics derives the per-layer numbers of one traced local pass
// from its spans.
func (w *localWorkload) layerMetrics(spans []span, root int32, clock *taskClock, cc cacheCounts, dio ioCounters, files int, bytes int64, scores int) (map[string]float64, split) {
	m := map[string]float64{}
	children := map[int32][]interval{}
	var simNS, simPoints, taskNS, taskSelf int64
	var tasks []span
	var passSpan span
	for _, s := range spans {
		switch s.Name {
		case "sim":
			simNS += s.dur()
			simPoints += int64(s.N)
			children[s.Parent] = append(children[s.Parent], s.interval())
		case "task":
			tasks = append(tasks, s)
			children[s.Parent] = append(children[s.Parent], s.interval())
		case "pass":
			passSpan = s
		case "cache.open":
			m["cache.open_ms"] = float64(s.dur()) / 1e6
		case "output":
			m["output.assemble_ms"] = float64(s.dur()) / 1e6
		}
	}
	for _, t := range tasks {
		taskNS += t.dur()
		taskSelf += selfTime(t.interval(), children[t.ID])
	}
	window := float64(clock.last-clock.first) * float64(w.workers)
	cacheNS := cc.getNS + cc.putNS
	m["sim.points"] = float64(simPoints)
	m["sim.busy_s"] = float64(simNS) / 1e9
	if simPoints > 0 {
		m["sim.us_per_point"] = float64(simNS) / 1e3 / float64(simPoints)
	}
	nt := float64(len(tasks))
	m["job.tasks"] = nt
	m["io.write_syscalls_per_task"] = float64(dio.syscw) / nt
	m["io.write_bytes_per_score"] = float64(dio.wchar) / float64(scores)
	m["store.files_per_task"] = float64(files) / nt
	m["store.bytes_per_score"] = float64(bytes) / float64(scores)
	if w.durable {
		cacheMetrics(m, cc, nt)
	}
	s := split{
		sim:       float64(simNS) / window,
		cache:     float64(cacheNS) / window,
		sink:      float64(taskSelf-cacheNS) / window,
		idle:      1 - float64(taskNS)/window,
		outsideMS: float64(selfTime(passSpan.interval(), children[root])) / 1e6,
	}
	m["sim.share"] = s.sim
	m["job.pool_idle_share"] = s.idle
	m["job.unattributed_share"] = s.sink
	return m, s
}

func cacheMetrics(m map[string]float64, cc cacheCounts, tasks float64) {
	m["cache.gets"] = float64(cc.gets)
	m["cache.puts"] = float64(cc.puts)
	if cc.gets > 0 {
		m["cache.hit_ratio"] = float64(cc.hits) / float64(cc.gets)
		m["cache.get_us_mean"] = float64(cc.getNS) / 1e3 / float64(cc.gets)
	}
	if cc.puts > 0 {
		m["cache.put_us_mean"] = float64(cc.putNS) / 1e3 / float64(cc.puts)
	}
	m["cache.gets_per_task"] = float64(cc.gets) / tasks
}

func (a ioCounters) minus(b ioCounters) ioCounters {
	return ioCounters{a.syscw - b.syscw, a.wchar - b.wchar}
}

func csvBytes(d dsa.Domain, s *dsa.Scores) ([]byte, error) {
	var buf bytes.Buffer
	if err := exp.WriteDomainCSV(&buf, d, s); err != nil {
		return nil, fmt.Errorf("write CSV: %w", err)
	}
	return buf.Bytes(), nil
}

// removeSynced removes dir and syncs its parent, which commits the
// unlinks to the journal, so one pass's clean-up does not land inside
// the next pass.
func removeSynced(dir string) {
	os.RemoveAll(dir)
	if d, err := os.Open(filepath.Dir(dir)); err == nil {
		d.Sync()
		d.Close()
	}
}

// copyDirSynced copies the regular files of src into a new dst and
// syncs them, so a fixture's writeback does not land inside the timed
// pass that follows.
func copyDirSynced(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFileSynced(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func copyFileSynced(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
