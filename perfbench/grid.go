package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/dsa"
	"repro/internal/grid"
	"repro/internal/gridobs"
	"repro/internal/job"
)

// gridWorkload is gossip-grid: one process hosts a coordinator with a
// state dir (checkpoint + WAL) and a disk score cache behind a loopback
// listener, and two multi-job grid workers with one task slot each
// drain eight concurrent one-point-per-task gossip jobs.
type gridWorkload struct {
	seed    int64
	jobs    int
	workers int
	durable bool // coordinator state dir (checkpoint + WAL)
	root    string
	ref     [][]byte // reference CSV per job, from in-memory job.Run
}

func newGossipGrid(seed int64, root string, durable bool) *gridWorkload {
	return &gridWorkload{seed: seed, jobs: 8, workers: 2, durable: durable, root: root}
}

// specs builds the sweep's job specs: the whole gossip space, tiny
// simulations, chunk 1, master seeds 1 … jobs. The run's seed shuffles
// each job's point order, which the tasks are leased in. The master
// seeds stay fixed because they also pick the opponent panel and the
// simulations' random streams, which moved the simulation time of a
// pass by a tenth from seed to seed.
func (w *gridWorkload) specs() ([]job.Spec, error) {
	d, err := dsa.Get("gossip")
	if err != nil {
		return nil, err
	}
	base, err := d.DefaultConfig("quick")
	if err != nil {
		return nil, err
	}
	out := make([]job.Spec, w.jobs)
	for i := range out {
		pts := slices.Clone(d.Space().Enumerate()) // Enumerate's slice is shared
		r := rand.New(rand.NewPCG(uint64(w.seed), uint64(i)))
		r.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		cfg := dsa.ApplyOverrides(base, int64(i+1), 4, 8, 40, 0, 0)
		out[i] = job.Spec{Domain: d, Points: pts, Cfg: cfg, Chunk: 1}
	}
	return out, nil
}

func scoresIn(specs []job.Spec) int {
	n := 0
	for _, s := range specs {
		n += len(s.Points) * len(s.Domain.Measures())
	}
	return n
}

func (w *gridWorkload) prepare(ctx context.Context) error {
	specs, err := w.specs()
	if err != nil {
		return err
	}
	for _, s := range specs {
		sc, err := job.Run(ctx, s.Domain, s.Points, s.Cfg, job.Options{Chunk: s.Chunk, Workers: w.workers})
		if err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		csv, err := csvBytes(s.Domain, sc)
		if err != nil {
			return err
		}
		w.ref = append(w.ref, csv)
	}
	return nil
}

// service is a coordinator serving on a loopback listener.
type service struct {
	store *cache.Store
	coord *grid.Coordinator
	srv   *http.Server
	url   string
	done  chan error
}

// open starts a coordinator over dir: cache.Open, NewCoordinator (WAL
// replay), AddJob for every spec (checkpoint restore), the listener.
// With a recorder each step is a span under parent and the handler
// records server spans; with a tally the coordinator's cache calls are
// counted and timed.
func (w *gridWorkload) open(dir string, specs []job.Spec, rec *recorder, parent int32, tally *cacheTally) (*service, []string, error) {
	s := &service{done: make(chan error, 1)}
	if err := rec.timed(parent, "cache.open", func() (err error) {
		s.store, err = cache.Open(cache.Options{Dir: filepath.Join(dir, "cache")})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var c dsa.ScoreCache = s.store
	if tally != nil {
		c = &hookedCache{inner: s.store, tally: tally}
	}
	opts := grid.CoordinatorOptions{Cache: c}
	if w.durable {
		opts.Dir = filepath.Join(dir, "coord")
	}
	rec.timed(parent, "coord.replay", func() error {
		s.coord = grid.NewCoordinator(opts)
		return nil
	})
	ids := make([]string, len(specs))
	if err := rec.timed(parent, "coord.restore", func() error {
		for i, sp := range specs {
			id, err := s.coord.AddJob(sp)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		return nil
	}); err != nil {
		s.close()
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, nil, err
	}
	h := s.coord.Handler()
	if rec != nil {
		h = serverSpans(rec, h)
	}
	s.srv = &http.Server{Handler: h}
	s.url = "http://" + ln.Addr().String()
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, ids, nil
}

// close stops the server (waiting for its goroutine) and releases the
// coordinator and the cache.
func (s *service) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	errs = append(errs, s.store.Close())
	return errors.Join(errs...)
}

// passTimeout bounds a pass that stops making progress, so a stuck run
// fails well inside its time limit instead of hanging.
const passTimeout = 120 * time.Second

func (w *gridWorkload) pass(ctx context.Context, rec *recorder) (passResult, error) {
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	var res passResult
	dir := filepath.Join(w.root, "pass")
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	defer removeSynced(dir)

	var root int32
	var tally *cacheTally
	mark := 0
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	if rec != nil {
		mark = rec.mark()
		tally = &cacheTally{}
		clock = rec.now
	}
	io0, cpu0 := readIO(), cpuTime()
	t0 := clock()
	if rec != nil {
		root = rec.add(span{Name: "pass", Start: t0})
	}

	specs, err := w.specs()
	if err != nil {
		return res, err
	}
	svc, ids, err := w.open(dir, specs, rec, root, tally)
	if err != nil {
		return res, err
	}
	var setupCache cacheCounts
	if tally != nil {
		setupCache = tally.snapshot()
	}

	stats := &rpcStats{firstLease: -1}
	metrics := make([]*gridobs.WorkerMetrics, w.workers)
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	// waitCtx ends the wait for completion once every worker has exited,
	// so workers that all fail stop the pass instead of hanging it.
	waitCtx, stopWait := context.WithCancel(ctx)
	defer stopWait()
	var wg sync.WaitGroup
	werrs := make([]error, w.workers)
	for i := range metrics {
		metrics[i] = gridobs.NewWorkerMetrics(nil)
		name := fmt.Sprintf("w%d", i)
		client := &http.Client{Timeout: grid.DefaultHTTPTimeout, Transport: &workerTransport{
			base: http.DefaultTransport, worker: name, rec: rec, stats: stats, clock: clock}}
		opts := grid.WorkerOptions{Name: name, Workers: 1, TasksPerLease: 1, Poll: 10 * time.Millisecond,
			Client: client, Metrics: metrics[i]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = grid.Work(wctx, svc.url, "", opts)
		}()
	}
	go func() {
		wg.Wait()
		stopWait()
	}()

	csvs := make([][]byte, len(ids))
	var runErr error
	for i, id := range ids {
		sc, err := svc.coord.WaitComplete(waitCtx, id)
		if err != nil {
			runErr = err
			break
		}
		if err := rec.timed(root, "output", func() (err error) {
			csvs[i], err = csvBytes(specs[i].Domain, sc)
			return err
		}); err != nil {
			runErr = err
			break
		}
	}
	t1 := clock()
	cpu1, io1 := cpuTime(), readIO()
	if runErr != nil {
		stopWorkers()
	}
	wg.Wait()
	if err := errors.Join(werrs...); err != nil && (runErr == nil || errors.Is(runErr, context.Canceled)) {
		runErr = fmt.Errorf("worker: %w", err)
	}
	if err := svc.close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return res, runErr
	}
	if rec != nil {
		rec.setEnd(root, t1)
	}
	files, bytes, err := dirUsage(dir)
	if err != nil {
		return res, err
	}

	n := scoresIn(specs)
	stats.mu.Lock()
	res.wall = time.Duration(t1 - t0)
	res.setup = time.Duration(stats.firstLease - t0)
	res.lat = stats.lat
	res.attempted += stats.attempts + len(stats.lat)
	res.failed += stats.failures
	first, last := stats.firstLease, stats.lastAck
	stats.mu.Unlock()
	res.cpu = cpu1 - cpu0
	res.scores = n
	for i := range csvs {
		res.check(w.ref[i], csvs[i], n/len(csvs))
	}

	var recs, replays, restores []float64
	for i := 0; i < restarts; i++ {
		runtime.GC()
		r, err := w.restart(ctx, dir, specs, &res)
		if err != nil {
			return res, fmt.Errorf("restart: %w", err)
		}
		recs = append(recs, r.total.Seconds())
		replays = append(replays, r.replayMS)
		restores = append(restores, r.restoreMS)
	}
	res.recovery = time.Duration(median(recs) * 1e9)
	res.recoveries = recs

	if rec != nil {
		var snaps []*gridobs.WorkerSnapshot
		for _, m := range metrics {
			snaps = append(snaps, m.Snapshot())
		}
		sweepCache := tally.snapshot().minus(setupCache)
		res.layer, res.split = w.layerMetrics(rec.since(mark), snaps, tally.snapshot(), sweepCache,
			io1.minus(io0), files, bytes, n, first, last, stats)
		res.layer["coord.replay_ms"] = median(replays)
		res.layer["coord.restore_ms"] = median(restores)
	}
	return res, nil
}

type restartTimes struct {
	total               time.Duration
	replayMS, restoreMS float64
}

// restart brings a fresh coordinator up over the finished state dir: cache.Open, WAL replay,
// every job restored, listener, until the first request is served.
// The restored jobs' results are then checked against the reference.
func (w *gridWorkload) restart(ctx context.Context, dir string, specs []job.Spec, res *passResult) (restartTimes, error) {
	var rt restartTimes
	rec := newRecorder()
	start := rec.now()
	svc, ids, err := w.open(dir, specs, rec, 0, nil)
	if err != nil {
		return rt, err
	}
	if _, err := grid.ListJobs(ctx, http.DefaultClient, svc.url); err != nil {
		svc.close()
		return rt, err
	}
	rt.total = time.Duration(rec.now() - start)
	for _, s := range rec.since(0) {
		switch s.Name {
		case "coord.replay":
			rt.replayMS = float64(s.dur()) / 1e6
		case "coord.restore":
			rt.restoreMS = float64(s.dur()) / 1e6
		}
	}
	for i, id := range ids {
		sc, ok, err := svc.coord.Scores(id)
		if err != nil || !ok {
			res.attempted += len(specs[i].Points) * len(specs[i].Domain.Measures())
			res.failed += len(specs[i].Points) * len(specs[i].Domain.Measures())
			continue
		}
		csv, err := csvBytes(specs[i].Domain, sc)
		if err != nil {
			svc.close()
			return rt, err
		}
		res.check(w.ref[i], csv, len(specs[i].Points)*len(specs[i].Domain.Measures()))
	}
	return rt, svc.close()
}

// layerMetrics derives the per-layer numbers of one traced grid pass.
// The split divides the two worker slots' time over the sweep window
// (first lease response to last upload ack): worker compute, the
// coordinator's cache calls, the rest of the coordinator's handler
// time, client-side RPC time outside the handler, and what remains.
func (w *gridWorkload) layerMetrics(spans []span, snaps []*gridobs.WorkerSnapshot, allCache, sweepCache cacheCounts,
	dio ioCounters, files int, bytes int64, scores int, first, last int64, stats *rpcStats) (map[string]float64, split) {
	m := map[string]float64{}
	var tasks, simPoints, leases, leased float64
	var computeS float64
	for _, s := range snaps {
		tasks += s.Tasks
		simPoints += s.PointsSimulated
		leases += s.Leases
		leased += s.LeasedTasks
		for _, h := range s.TaskSeconds {
			computeS += h.Sum
		}
	}
	server := map[string]span{}
	var serverIv []interval
	var clientLease, clientUpload, srvLease, srvIngest []time.Duration
	for _, s := range spans {
		switch s.Name {
		case "srv.lease", "srv.upload", "srv.other":
			server[s.RID] = s
			if s.End > first && s.Start < last {
				serverIv = append(serverIv, interval{max(s.Start, first), min(s.End, last)})
			}
			if s.Name == "srv.lease" {
				srvLease = append(srvLease, time.Duration(s.dur()))
			} else if s.Name == "srv.upload" {
				srvIngest = append(srvIngest, time.Duration(s.dur()))
			}
		case "cache.open":
			m["cache.open_ms"] = float64(s.dur()) / 1e6
		case "output":
			m["output.assemble_ms"] += float64(s.dur()) / 1e6
		}
	}
	var clientNS, serverNS int64
	var transport []float64
	for _, s := range spans {
		if s.Name != "rpc.lease" && s.Name != "rpc.upload" && s.Name != "rpc.other" {
			continue
		}
		switch s.Name {
		case "rpc.lease":
			clientLease = append(clientLease, time.Duration(s.dur()))
		case "rpc.upload":
			clientUpload = append(clientUpload, time.Duration(s.dur()))
		}
		if sv, ok := server[s.RID]; ok {
			transport = append(transport, float64(s.dur()-sv.dur())/1e6)
			if s.Start >= first && s.End <= last {
				serverNS += sv.dur()
			}
		}
		if s.Start >= first && s.End <= last {
			clientNS += s.dur()
		}
	}
	window := float64(last-first) * float64(w.workers)
	cacheNS := float64(sweepCache.getNS + sweepCache.putNS)
	sp := split{
		sim:   computeS * 1e9 / window,
		cache: cacheNS / window,
		coord: (float64(serverNS) - cacheNS) / window,
		rpc:   float64(clientNS-serverNS) / window,
	}
	sp.idle = 1 - sp.sim - sp.cache - sp.coord - sp.rpc

	m["sim.points"] = simPoints
	m["sim.busy_s"] = computeS
	if simPoints > 0 {
		m["sim.us_per_point"] = computeS * 1e6 / simPoints
	}
	m["sim.share"] = sp.sim
	m["job.tasks"] = tasks
	m["io.write_syscalls_per_task"] = float64(dio.syscw) / tasks
	m["io.write_bytes_per_score"] = float64(dio.wchar) / float64(scores)
	m["store.files_per_task"] = float64(files) / tasks
	m["store.bytes_per_score"] = float64(bytes) / float64(scores)
	cacheMetrics(m, allCache, tasks)

	cl, cu := summarise(clientLease), summarise(clientUpload)
	m["rpc.lease_ms_p50"], m["rpc.lease_ms_tail"] = cl.P50, cl.TailMS
	m["rpc.upload_ms_p50"], m["rpc.upload_ms_tail"] = cu.P50, cu.TailMS
	stats.mu.Lock()
	m["rpc.calls_per_task"] = float64(stats.attempts) / tasks
	m["rpc.retries"] = float64(stats.retries)
	stats.mu.Unlock()
	if leases > 0 {
		m["rpc.lease_useful_ratio"] = leased / leases
	}
	m["rpc.transport_ms_p50"] = median(transport)
	m["worker.idle_share"] = sp.idle

	sl, si := summarise(srvLease), summarise(srvIngest)
	m["coord.lease_ms_p50"], m["coord.lease_ms_tail"] = sl.P50, sl.TailMS
	m["coord.ingest_ms_p50"], m["coord.ingest_ms_tail"] = si.P50, si.TailMS
	m["coord.busy_share"] = float64(unionLength(serverIv)) / float64(last-first)
	return m, sp
}
