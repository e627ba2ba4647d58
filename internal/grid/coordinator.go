package grid

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dsa"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/profiling"
)

// Defaults for CoordinatorOptions zero values.
const (
	DefaultLeaseTTL = 30 * time.Second
	DefaultMaxLease = 4
	// DefaultMaxBody caps request bodies; a result upload for a huge
	// task fits comfortably, a runaway or hostile body does not.
	DefaultMaxBody = 64 << 20
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Dir is the checkpoint root; each job journals into Dir/<job-id>
	// in the internal/job checkpoint format, so a restarted
	// coordinator resumes where it left off and job.Load/dsa-report
	// read the directory directly. Shipped worker traces are collected
	// under Dir/<job-id>/trace/ in the internal/obs journal format.
	// "" keeps results in memory only (collected traces then live in a
	// temp dir removed on Close).
	Dir string
	// LeaseTTL is how long a lease lives without a heartbeat before
	// its task is re-queued. 0 = DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxLease caps tasks granted per lease call. 0 = DefaultMaxLease.
	MaxLease int
	// Logf, if non-nil, receives coordinator event logs.
	Logf func(format string, args ...any)
	// CSV renders assembled scores for the results endpoint's
	// ?format=csv. nil = the generic dsa.WriteCSV layout; callers that
	// want domain-bespoke layouts (exp.WriteDomainCSV keeps swarming
	// CSVs interchangeable with dsa-sweep output) inject them here —
	// the grid itself stays domain-agnostic.
	CSV func(w io.Writer, d dsa.Domain, s *dsa.Scores) error
	// Cache, if non-nil, is the coordinator's cross-job score cache.
	// Every ingested or checkpoint-restored result feeds it, and every
	// job draws from it: a task whose per-point scores are all already
	// known is served as an ingested result (journalled, counted done)
	// instead of ever being leased — so overlapping jobs, whatever
	// their chunking, pay for each score once. Stats are served on
	// GET /v1/cache.
	Cache dsa.ScoreCache

	// AuthToken, when non-empty, switches on shared-secret worker
	// auth: lease, heartbeat, result upload, job creation and drain
	// require `Authorization: Bearer <token>` (compared in constant
	// time). Read-only endpoints — listings, progress, results,
	// metrics, the dashboard — stay open so operators can observe a
	// grid they cannot drive.
	AuthToken string
	// RateLimit is the per-client admission rate in requests/second
	// against the /v1 API (metrics scrapes are never limited); 0
	// disables limiting. Clients are keyed by remote IP.
	RateLimit float64
	// RateBurst is the token-bucket burst capacity; 0 derives a
	// one-second burst from RateLimit.
	RateBurst float64
	// MaxBody caps request body bytes; oversized bodies are rejected
	// with 413 before any decoding. 0 = DefaultMaxBody.
	MaxBody int64
	// Pprof, when set, mounts net/http/pprof under /debug/pprof/ on
	// the coordinator mux, behind the same bearer auth as the write
	// endpoints when AuthToken is set.
	Pprof bool

	// AuditRate is the fraction (0..1) of completed tasks silently
	// re-leased to a different worker for byte-exact verification (see
	// audit.go). Selection is a deterministic hash of (job, task), so
	// restarts re-arm exactly the audits that were open. 0 disables
	// auditing; with auditing on, the score cache is fed only by
	// audit-verified values for the selected tasks.
	AuditRate float64
	// Hedge enables speculative duplicate leases: a leased task past
	// the straggler threshold (slowFactor x the fleet-mean EWMA task
	// latency, floored at half the lease TTL) is offered once more to
	// a different worker; the first idempotent ingest wins. Off by
	// default — hedging trades duplicate compute for tail latency.
	Hedge bool
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (o CoordinatorOptions) maxLease() int {
	if o.MaxLease > 0 {
		return o.MaxLease
	}
	return DefaultMaxLease
}

func (o CoordinatorOptions) maxBody() int64 {
	if o.MaxBody > 0 {
		return o.MaxBody
	}
	return DefaultMaxBody
}

// Coordinator owns grid jobs: it serves leases, ingests results into
// the checkpoint format, and exposes the live JSON API plus /metrics
// and the dashboard. Create one with NewCoordinator, register sweeps
// with AddJob (or let clients POST them), and mount Handler on an HTTP
// server (or call Serve).
type Coordinator struct {
	opts    CoordinatorOptions
	now     func() time.Time // injectable clock for tests
	started time.Time
	metrics *gridMetrics
	limiter *gridobs.Limiter
	traces  *traceCollector // collected worker journals + federated snapshots

	mu      sync.Mutex
	jobs    map[string]*gridJob
	workers map[string]*workerStats
	// quarantined workers get 429 on every lease, heartbeat and
	// upload; membership survives restarts via the WAL.
	quarantined map[string]bool
	// wal journals scheduling state (nil without Dir, or after an open
	// failure — the grid then runs, loudly, without crash recovery).
	wal *job.RecordLog
	// walRecs holds replayed per-job WAL records until AddJob
	// registers the matching job and consumes them.
	walRecs map[string][]walRecord
	// cacheEpoch counts cache-feeding events (ingests, checkpoint
	// restores). Each job remembers the epoch it last scanned the
	// cache at, so the pending-task rescan in Lease runs only when
	// the cache could actually have gained something — not on every
	// poll of an idle grid.
	cacheEpoch uint64

	// draining is set by Drain: no new leases are granted, and once
	// every in-flight lease settles (uploads or expires) drainDone is
	// closed — the graceful-exit signal Serve and dsa-grid wait on.
	draining    bool
	drainClosed bool
	drainDone   chan struct{}
}

type taskStatus int

const (
	taskPending taskStatus = iota
	taskLeased
	taskDone
)

// taskState and gridJob hold the scheduling state that apply (wal.go)
// alone changes: status, holders and hedges, the grant and requeue
// counts, weight, producers, verdicts and audits.
type taskState struct {
	task      job.Task
	status    taskStatus
	worker    string
	deadline  time.Time
	leasedAt  time.Time // last lease grant, for the lease-latency histogram
	recording bool      // an Ingest is journalling this task outside the lock

	// Speculative duplicate lease (CoordinatorOptions.Hedge): a second
	// worker racing the straggling primary. First ingest wins; a dead
	// primary promotes the hedge instead of re-queueing.
	hedgeWorker   string
	hedgeDeadline time.Time
}

type gridJob struct {
	id        string
	spec      job.Spec
	specRaw   json.RawMessage
	weight    int      // fair-share priority weight, >= 1
	order     []string // task IDs in canonical enumeration order
	tasks     map[string]*taskState
	results   map[string][]float64
	cp        *job.Checkpoint // nil without a checkpoint dir
	done      int
	requeues  int
	restored  int       // tasks restored from checkpoint at registration
	startedAt time.Time // first lease grant; anchors the ETA estimate
	// leasesGranted counts tasks handed out on leases (re-leases
	// included) — the fair scheduler's deficit measure.
	leasesGranted int
	scores        *dsa.Scores // assembled once complete
	scoresErr     error
	changed       chan struct{} // closed and replaced on every state change

	// Score-cache plumbing (nil/zero without CoordinatorOptions.Cache):
	// the job's key derivation context and per-point IDs, the epoch of
	// its last cache scan, and how many of its tasks the cache served.
	keyer         *dsa.ScoreKeyer
	ids           []int // stable point IDs aligned with spec.Points
	absorbedEpoch uint64
	cacheServed   int

	// Audit bookkeeping (audit.go). doneBy is maintained regardless of
	// AuditRate — a later quarantine sweeps it.
	doneBy   map[string]string      // task ID -> worker whose value is on record
	verified map[string]bool        // task ID -> audit-confirmed
	audits   map[string]*auditState // open audits, gate job completion
	// tainted marks tasks whose recorded value was invalidated: the
	// cache may still hold the bad per-point scores, so the absorb
	// scan must not serve them back until an honest re-run overwrites.
	tainted map[string]bool
}

// completeLocked is the job-completion predicate: every task done AND
// every audit settled — a job with open audits may still re-queue work.
func (j *gridJob) completeLocked() bool {
	return j.done == len(j.order) && len(j.audits) == 0
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	// cacheEpoch starts at 1 so a fresh job (absorbedEpoch zero value
	// 0) always runs its first cache scan, even before any ingest.
	c := &Coordinator{
		opts:        opts,
		now:         time.Now,
		started:     time.Now(),
		jobs:        map[string]*gridJob{},
		workers:     map[string]*workerStats{},
		quarantined: map[string]bool{},
		walRecs:     map[string][]walRecord{},
		cacheEpoch:  1,
		drainDone:   make(chan struct{}),
	}
	c.limiter = gridobs.NewLimiter(opts.RateLimit, opts.RateBurst)
	c.traces = newTraceCollector(opts.Dir, opts.Logf)
	c.metrics = newGridMetrics(c)
	if opts.Dir != "" {
		w, recs, skipped, err := openWAL(opts.Dir)
		if err != nil {
			// Run without crash recovery rather than not at all — but
			// say so every startup, loudly.
			c.logf("grid: WAL unavailable, coordinator runs WITHOUT crash recovery: %v", err)
		} else {
			c.wal = w
			for _, r := range recs {
				c.apply(nil, r, nil)
				switch {
				case r.T == walQuarantine:
					// A verdict reaches every job journalled before it;
					// later jobs' records cannot involve the worker.
					for id := range c.walRecs {
						c.walRecs[id] = append(c.walRecs[id], r)
					}
				case r.Job != "":
					c.walRecs[r.Job] = append(c.walRecs[r.Job], r)
				}
			}
			if n := len(c.quarantined); n > 0 {
				c.metrics.quarantines.Add(float64(n))
			}
			if len(recs) > 0 || skipped > 0 {
				c.logf("grid: wal: replayed %d records (%d corrupt lines skipped)", len(recs), skipped)
			}
			c.metrics.walReplayed.Set(float64(len(recs)))
		}
	}
	return c
}

// replayLocked rebuilds a registering job from its checkpoint dir: the
// job's journalled events through apply in log order (ingested values
// come from the checkpoint), then the checkpoint's verdict on every
// task the journal disagrees with. Outstanding leases are re-armed
// with a fresh TTL from this coordinator's clock.
func (c *Coordinator) replayLocked(j *gridJob) {
	completed := j.cp.Completed()
	recs := c.walRecs[j.id]
	delete(c.walRecs, j.id)
	for _, r := range recs {
		c.apply(j, r, completed[r.Task])
	}
	for _, tid := range j.order {
		st := j.tasks[tid]
		vals, ok := completed[tid]
		switch {
		case st.status == taskDone && !ok:
			// The journal saw a result the checkpoint lost: re-run it.
			c.apply(j, walRecord{T: evInvalidate, Task: tid}, nil)
		case st.status != taskDone && ok && j.tainted[tid]:
			// A crash interrupted an expunge: finish it.
			c.expungeLocked(j, st.task)
		case st.status != taskDone && ok:
			// Served from the cache, or recorded with no journalled ingest.
			c.apply(j, walRecord{T: evRestore, Task: tid}, vals)
		}
	}
	// Values under audit feed the cache only once verified.
	for tid, vals := range j.results {
		if j.audits[tid] == nil {
			c.feedCacheLocked(j, j.tasks[tid].task, vals)
		}
	}
	if len(recs) > 0 {
		c.logf("grid: job %s: wal replay applied %d records (priority %d, %d requeues, %d open audits)",
			j.id, len(recs), j.weight, j.requeues, len(j.audits))
	}
}

// Metrics exposes the coordinator's registry — what GET /metrics
// serves — for embedding callers that scrape in-process.
func (c *Coordinator) Metrics() *gridobs.Registry { return c.metrics.reg }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// logfCtx is logf with the request ID (if the context carries one)
// appended, so every coordinator event triggered by an HTTP request
// can be correlated with its access-log line.
func (c *Coordinator) logfCtx(ctx context.Context, format string, args ...any) {
	if c.opts.Logf == nil {
		return
	}
	if rid := gridobs.RequestID(ctx); rid != "" {
		format += " rid=" + rid
	}
	c.opts.Logf(format, args...)
}

// jobID derives a stable identifier from the spec payload, so the same
// sweep always maps to the same job (idempotent creation) and a
// restarted coordinator reopens the same checkpoint subdirectory.
func jobID(domain string, specRaw []byte) string {
	h := fnv.New64a()
	h.Write(specRaw)
	return fmt.Sprintf("%s-%012x", domain, h.Sum64()&0xffffffffffff)
}

// AddJob registers a sweep at the default priority. Adding a spec that
// is already registered returns the existing job's ID. With a
// checkpoint dir configured, completed tasks are restored from disk
// before any lease is granted.
func (c *Coordinator) AddJob(spec job.Spec) (string, error) {
	return c.AddJobPriority(spec, 1)
}

// AddJobPriority registers a sweep with a fair-share weight: against
// other concurrent jobs, this job receives leased tasks in proportion
// to its priority (a priority-3 job gets ~3x the grant share of a
// priority-1 job while both have pending work). priority < 1 is
// treated as 1. Re-adding an existing job updates its priority.
func (c *Coordinator) AddJobPriority(spec job.Spec, priority int) (string, error) {
	if priority < 1 {
		priority = 1
	}
	if err := spec.Cfg.Validate(); err != nil {
		return "", err
	}
	if spec.Points == nil {
		spec.Points = spec.Domain.Space().Enumerate()
	}
	specRaw, err := job.EncodeSpec(spec)
	if err != nil {
		return "", err
	}
	id := jobID(spec.Domain.Name(), specRaw)

	c.mu.Lock()
	if j, ok := c.jobs[id]; ok {
		if j.weight != priority {
			c.record(j, walRecord{T: walPriority, Job: id, Weight: priority}, nil)
			c.mu.Unlock()
			c.logf("grid: job %s priority set to %d", id, priority)
			return id, nil
		}
		c.mu.Unlock()
		return id, nil
	}
	j := &gridJob{
		id:       id,
		spec:     spec,
		specRaw:  specRaw,
		weight:   priority,
		tasks:    map[string]*taskState{},
		results:  map[string][]float64{},
		doneBy:   map[string]string{},
		verified: map[string]bool{},
		audits:   map[string]*auditState{},
		tainted:  map[string]bool{},
		changed:  make(chan struct{}),
	}
	for _, t := range spec.Tasks() {
		j.order = append(j.order, t.ID())
		j.tasks[t.ID()] = &taskState{task: t}
	}
	if c.opts.Cache != nil {
		keyer, err := dsa.NewScoreKeyer(spec.Domain, spec.Domain.SampleOpponents(spec.Cfg), spec.Cfg)
		if err != nil {
			c.mu.Unlock()
			return "", err
		}
		ids := make([]int, len(spec.Points))
		for i, p := range spec.Points {
			if ids[i], err = spec.Domain.PointID(p); err != nil {
				c.mu.Unlock()
				return "", err
			}
		}
		j.keyer, j.ids = keyer, ids
	}
	if c.opts.Dir != "" {
		cp, err := job.OpenCheckpoint(filepath.Join(c.opts.Dir, id), spec)
		if err != nil {
			c.mu.Unlock()
			return "", err
		}
		j.cp = cp
		c.replayLocked(j)
	}
	j.restored = j.done
	// A restored job's own results never complete its own tasks, but
	// they must still trigger a scan of *this* job against what other
	// jobs cached before it arrived.
	j.absorbedEpoch = 0
	c.finishIfCompleteLocked(j)
	c.jobs[id] = j
	restored := j.done
	c.mu.Unlock()
	c.logf("grid: job %s registered: %d tasks (%d restored from checkpoint), priority %d", id, len(j.order), restored, priority)
	// Registration is visible before the absorb scan; a concurrent
	// Lease absorbing the same job is harmless (the epoch gate and
	// recording flags keep the work single-shot).
	c.absorbCache(j)
	return id, nil
}

// feedCacheLocked records one finished task's per-point scores in the
// cross-job cache and bumps the epoch so *other* jobs rescan their
// pending tasks on their next lease. The feeding job itself is marked
// up to date: one job's tasks partition its (measure, point) pairs, so
// its own results can never complete another of its own tasks, and
// counting self-feeds would make every single-job grid rescan all
// pending tasks after every ingest for nothing.
func (c *Coordinator) feedCacheLocked(j *gridJob, t job.Task, vals []float64) {
	if c.opts.Cache == nil || j.keyer == nil || len(vals) != t.Hi-t.Lo {
		return
	}
	for i := t.Lo; i < t.Hi; i++ {
		c.opts.Cache.Put(j.keyer.Key(t.Measure, j.ids[i]), vals[i-t.Lo])
	}
	c.cacheEpoch++
	j.absorbedEpoch = c.cacheEpoch
}

// absorbedTask is one task whose values the cache fully supplied,
// in flight between the locked scan and the locked finalize.
type absorbedTask struct {
	tid  string
	st   *taskState
	vals []float64
}

// collectCacheHitsLocked scans j's not-yet-done tasks against the
// cache and claims every full hit (recording=true, exactly like an
// in-flight ingest, so no lease/upload/second scan races it). The scan
// is memory-speed (key hashing + LRU/index lookups, no I/O) and is
// skipped entirely unless the cache gained foreign entries since this
// job last looked (see cacheEpoch).
func (c *Coordinator) collectCacheHitsLocked(j *gridJob) []absorbedTask {
	if c.opts.Cache == nil || j.keyer == nil || j.absorbedEpoch == c.cacheEpoch {
		return nil
	}
	j.absorbedEpoch = c.cacheEpoch
	if j.done == len(j.order) {
		return nil
	}
	var hits []absorbedTask
	for _, tid := range j.order {
		st := j.tasks[tid]
		// A tainted task's cached per-point scores may be the very lie
		// that was just invalidated — only an honest re-compute clears it.
		if st.status == taskDone || st.recording || j.tainted[tid] {
			continue
		}
		t := st.task
		vals := make([]float64, t.Hi-t.Lo)
		hit := true
		for i := t.Lo; i < t.Hi; i++ {
			v, ok := c.opts.Cache.Get(j.keyer.Key(t.Measure, j.ids[i]))
			if !ok {
				hit = false
				break
			}
			vals[i-t.Lo] = v
		}
		if hit {
			st.recording = true
			hits = append(hits, absorbedTask{tid: tid, st: st, vals: vals})
		}
	}
	return hits
}

// absorbCache serves every task of j whose per-point scores the cache
// already holds — journalling each through the checkpoint exactly like
// an uploaded result, so cache-served and worker-computed tasks are
// indistinguishable on disk and in the results (determinism makes
// their values identical by construction). Like Ingest, the journal
// writes (fsyncs) run outside the coordinator lock: a large absorbed
// job must not stall every other worker's leases and heartbeats behind
// a fsync train.
func (c *Coordinator) absorbCache(j *gridJob) {
	c.mu.Lock()
	hits := c.collectCacheHitsLocked(j)
	c.mu.Unlock()
	if len(hits) == 0 {
		return
	}

	errs := make([]error, len(hits))
	for i, h := range hits {
		errs[i] = journal(j.cp, h.st.task, h.vals, 0)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	absorbed := 0
	for i, h := range hits {
		h.st.recording = false
		if errs[i] != nil {
			// Leave the task pending: a worker will compute and
			// re-upload it, taking the normal ingest error path.
			c.logf("grid: job %s: task %s cache absorption failed to journal: %v", j.id, h.tid, errs[i])
			continue
		}
		c.apply(j, walRecord{T: evAbsorb, Task: h.tid}, h.vals)
		absorbed++
	}
	if absorbed > 0 {
		j.cacheServed += absorbed
		c.metrics.cacheServed.Add(float64(absorbed))
		c.logf("grid: job %s: %d tasks served from the score cache", j.id, absorbed)
		c.finishIfCompleteLocked(j)
		c.broadcastLocked(j)
	}
	c.checkDrainedLocked()
}

// journal records one finished task in its job's checkpoint (a no-op
// without one). Callers run it outside the coordinator lock, so a
// panicking write becomes an error: it must never leak the task's
// recording claim and strand the task.
func journal(cp *job.Checkpoint, t job.Task, vals []float64, elapsed time.Duration) (err error) {
	if cp == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grid: task %s: checkpoint write panicked: %v", t.ID(), r)
		}
	}()
	return cp.Record(t, vals, elapsed)
}

// Close releases every job's checkpoint handle and the WAL.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.jobs {
		if j.cp != nil {
			if err := j.cp.Close(); err != nil && first == nil {
				first = err
			}
			j.cp = nil
		}
	}
	if c.wal != nil {
		if err := c.wal.Close(); err != nil && first == nil {
			first = err
		}
		c.wal = nil
	}
	if err := c.traces.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

var (
	errUnknownJob  = errors.New("grid: unknown job")
	errUnknownTask = errors.New("grid: unknown task")
	errDraining    = errors.New("grid: coordinator is draining")
	errQuarantined = errors.New("grid: worker is quarantined")
)

func (c *Coordinator) getJob(id string) (*gridJob, error) {
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownJob, id)
	}
	return j, nil
}

// expireLocked expires every lease whose deadline has passed, scoring
// the expiry against the worker that went silent: the task re-queues,
// or its live hedge is promoted to primary (the expiry still counts).
// Expiry is lazy: it runs at the top of every API call that looks at
// task state, which is the only time staleness could matter (plus the
// drain loop's ticks).
func (c *Coordinator) expireLocked(j *gridJob) {
	now := c.now()
	expired := 0
	for tid, st := range j.tasks {
		if st.status != taskLeased {
			continue
		}
		// A dead hedge clears quietly: the primary still owns the task.
		if st.hedgeWorker != "" && st.hedgeDeadline.Before(now) {
			c.record(j, walRecord{T: walExpire, Job: j.id, Task: tid, Worker: st.hedgeWorker}, nil)
		}
		if st.deadline.Before(now) {
			c.record(j, walRecord{T: walExpire, Job: j.id, Task: tid, Worker: st.worker}, nil)
			expired++
		}
	}
	c.auditExpireLocked(j, now)
	if expired > 0 {
		c.metrics.requeues.Add(float64(expired))
		c.logf("grid: job %s: %d leases expired, tasks re-queued", j.id, expired)
		c.broadcastLocked(j)
		c.checkDrainedLocked()
	}
}

func (c *Coordinator) broadcastLocked(j *gridJob) {
	close(j.changed)
	j.changed = make(chan struct{})
}

// finishIfCompleteLocked assembles the scores once the last task is
// done and the last audit settled. Assembly runs once per completion;
// an invalidation (quarantine) clears the cached result and reopens it.
func (c *Coordinator) finishIfCompleteLocked(j *gridJob) {
	if !j.completeLocked() || j.scores != nil || j.scoresErr != nil {
		return
	}
	j.scores, j.scoresErr = j.spec.AssembleScores(j.results)
	if j.scoresErr != nil {
		c.logf("grid: job %s: assembly failed: %v", j.id, j.scoresErr)
	} else {
		c.logf("grid: job %s complete: %d tasks, %d requeues", j.id, len(j.order), j.requeues)
	}
	c.broadcastLocked(j)
}

// grantLocked hands out up to max tasks of j to worker, shaping max by
// the worker's score first. Grant order: audit re-leases (a few
// re-checks catch a liar before it poisons more), then pending tasks,
// then — with hedging on and capacity to spare — speculative
// duplicates of straggling leases.
func (c *Coordinator) grantLocked(j *gridJob, worker string, max int) []LeaseTask {
	if c.quarantined[worker] {
		return nil
	}
	if max <= 0 || max > c.opts.maxLease() {
		max = c.opts.maxLease()
	}
	max = c.grantCapLocked(worker, max)
	ttl := c.opts.leaseTTL()
	tasks := c.grantAuditsLocked(j, worker, max, ttl)
	for _, tid := range j.order {
		if len(tasks) == max {
			break
		}
		// A recording task is settling (an upload journalling, or an
		// expunge deleting its file): it is not free yet.
		if st := j.tasks[tid]; st.status == taskPending && !st.recording {
			c.record(j, walRecord{T: walLease, Job: j.id, Task: tid, Worker: worker}, nil)
			tasks = append(tasks, leaseTask(tid, st.task, ttl))
		}
	}
	granted := len(tasks) // audit + pending grants: what the deficit counts
	if c.opts.Hedge && len(tasks) < max {
		tasks = append(tasks, c.grantHedgesLocked(j, worker, max-len(tasks), ttl)...)
	}
	if len(tasks) > 0 {
		c.metrics.leasesGranted.Add(float64(granted))
		c.broadcastLocked(j)
	} else {
		// An empty grant is still a sign of life.
		c.touchWorkerLocked(worker)
	}
	return tasks
}

// leaseTask is the wire form of one grant, whatever kind: a primary,
// hedge and audit lease look the same to the worker holding them.
func leaseTask(tid string, t job.Task, ttl time.Duration) LeaseTask {
	return LeaseTask{Task: tid, Measure: t.Measure, Lo: t.Lo, Hi: t.Hi, TTLMS: ttl.Milliseconds()}
}

// Lease grants up to max pending tasks of one job to worker. While the
// coordinator drains, no tasks are granted and the response says so.
func (c *Coordinator) Lease(ctx context.Context, id, worker string, max int) (LeaseResponse, error) {
	c.metrics.leaseRequests.Inc()
	c.mu.Lock()
	j, err := c.getJob(id)
	if err != nil {
		c.mu.Unlock()
		return LeaseResponse{}, err
	}
	c.mu.Unlock()
	// Serve what the cache already knows before handing out leases:
	// overlapping jobs ingested since the last scan may have made
	// whole pending tasks free.
	c.absorbCache(j)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quarantined[worker] {
		return LeaseResponse{}, fmt.Errorf("%w: %s", errQuarantined, worker)
	}
	c.expireLocked(j)
	var resp LeaseResponse
	if c.draining {
		c.touchWorkerLocked(worker)
		resp.Draining = true
		resp.Complete = j.completeLocked()
		return resp, nil
	}
	resp.Tasks = c.grantLocked(j, worker, max)
	resp.Complete = j.completeLocked()
	if len(resp.Tasks) > 0 {
		c.logfCtx(ctx, "grid: job %s: leased %d tasks to %s", j.id, len(resp.Tasks), worker)
	}
	return resp, nil
}

// LeaseAny grants up to max pending tasks from whichever job the fair
// scheduler picks: the eligible job with the lowest granted-per-weight
// share (see pickJobLocked). One call serves one job, so the worker
// always computes a batch against a single spec.
func (c *Coordinator) LeaseAny(ctx context.Context, worker string, max int) (GlobalLeaseResponse, error) {
	c.metrics.leaseRequests.Inc()
	// Absorb pending cache hits for every job first — an absorbed job
	// may complete without ever dispatching work, which changes both
	// eligibility and the AllComplete answer.
	c.mu.Lock()
	jobs := make([]*gridJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	for _, j := range jobs {
		c.absorbCache(j)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quarantined[worker] {
		return GlobalLeaseResponse{}, fmt.Errorf("%w: %s", errQuarantined, worker)
	}
	var resp GlobalLeaseResponse
	if c.draining {
		c.touchWorkerLocked(worker)
		resp.Draining = true
		resp.AllComplete = c.allCompleteLocked()
		return resp, nil
	}
	j := c.pickJobLocked()
	if j == nil {
		c.touchWorkerLocked(worker)
		resp.AllComplete = c.allCompleteLocked()
		return resp, nil
	}
	resp.Job = j.id
	resp.Tasks = c.grantLocked(j, worker, max)
	if len(resp.Tasks) > 0 {
		c.logfCtx(ctx, "grid: job %s: leased %d tasks to %s (fair share %d/%d)",
			j.id, len(resp.Tasks), worker, j.leasesGranted, j.weight)
	}
	return resp, nil
}

// allCompleteLocked reports whether at least one job exists and every
// job is complete (tasks done, audits settled).
func (c *Coordinator) allCompleteLocked() bool {
	if len(c.jobs) == 0 {
		return false
	}
	for _, j := range c.jobs {
		if !j.completeLocked() {
			return false
		}
	}
	return true
}

// Heartbeat extends worker's leases and reports the ones it no longer
// holds.
func (c *Coordinator) Heartbeat(ctx context.Context, id string, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	if c.quarantined[req.Worker] {
		return HeartbeatResponse{}, fmt.Errorf("%w: %s", errQuarantined, req.Worker)
	}
	c.expireLocked(j)
	c.touchWorkerLocked(req.Worker)
	deadline := c.now().Add(c.opts.leaseTTL())
	var resp HeartbeatResponse
	for _, tid := range req.Tasks {
		st, ok := j.tasks[tid]
		switch {
		case ok && st.status == taskLeased && st.worker == req.Worker:
			st.deadline = deadline
			resp.Renewed = append(resp.Renewed, tid)
		case ok && st.status == taskLeased && st.hedgeWorker == req.Worker:
			st.hedgeDeadline = deadline
			resp.Renewed = append(resp.Renewed, tid)
		case ok && c.auditRenewLocked(j, tid, req.Worker, deadline):
			resp.Renewed = append(resp.Renewed, tid)
		default:
			resp.Lost = append(resp.Lost, tid)
		}
	}
	return resp, nil
}

// Ingest records one uploaded result. It is idempotent: a duplicate of
// a done task is acknowledged and dropped (task determinism makes the
// values equivalent), and an upload from a worker whose lease expired
// is still accepted if it arrives first. The checkpoint write happens
// before the task is marked done, so an acknowledged result is always
// durable — and it runs outside the coordinator lock, so leases,
// heartbeats and progress are never stalled behind an fsync. A second
// upload racing a journalling first one is told to move on without
// waiting for durability; if the first write then fails, the task
// simply re-queues and re-runs.
func (c *Coordinator) Ingest(ctx context.Context, id string, up ResultUpload) (ResultAck, error) {
	c.mu.Lock()
	j, err := c.getJob(id)
	if err != nil {
		c.mu.Unlock()
		return ResultAck{}, err
	}
	if c.quarantined[up.Worker] {
		c.mu.Unlock()
		return ResultAck{}, fmt.Errorf("%w: %s", errQuarantined, up.Worker)
	}
	st, ok := j.tasks[up.Task]
	if !ok {
		c.mu.Unlock()
		return ResultAck{}, fmt.Errorf("%w %q in job %s", errUnknownTask, up.Task, id)
	}
	if len(up.Values) != st.task.Hi-st.task.Lo {
		c.mu.Unlock()
		return ResultAck{}, fmt.Errorf("grid: task %s upload has %d values, want %d",
			up.Task, len(up.Values), st.task.Hi-st.task.Lo)
	}
	if st.status == taskDone && c.auditEnabled() {
		// Under the audit regime a second upload for a done task is
		// evidence, not noise: it either verifies the record or opens a
		// dispute. Any checkpoint invalidations run after unlock.
		ack, after := c.auditIngestLocked(j, st, up)
		c.mu.Unlock()
		if after != nil {
			after()
		}
		return ack, nil
	}
	if st.status == taskDone || st.recording {
		c.metrics.duplicates.Inc()
		c.touchWorkerLocked(up.Worker)
		c.mu.Unlock()
		return ResultAck{Accepted: true, Duplicate: true}, nil
	}
	st.recording = true
	var leaseLatency time.Duration
	if st.status == taskLeased && !st.leasedAt.IsZero() {
		leaseLatency = c.now().Sub(st.leasedAt)
	}
	cp, task := j.cp, st.task
	c.mu.Unlock()

	recErr := journal(cp, task, up.Values, time.Duration(up.ElapsedMS)*time.Millisecond)

	c.mu.Lock()
	defer c.mu.Unlock()
	st.recording = false
	if recErr != nil {
		c.checkDrainedLocked()
		return ResultAck{}, recErr
	}
	c.record(j, walRecord{T: walIngest, Job: j.id, Task: up.Task, Worker: up.Worker, ElapsedMS: up.ElapsedMS}, up.Values)
	c.metrics.tasksIngested.Inc()
	c.metrics.valuesIngested.Add(float64(len(up.Values)))
	if leaseLatency > 0 {
		c.metrics.leaseLatency.Observe(leaseLatency.Seconds())
	}
	if j.audits[up.Task] != nil {
		// Selected tasks feed the cache only once audit-verified.
		c.metrics.auditsOpened.Inc()
	} else {
		c.feedCacheLocked(j, st.task, up.Values)
	}
	c.finishIfCompleteLocked(j)
	c.broadcastLocked(j)
	c.checkDrainedLocked()
	return ResultAck{Accepted: true}, nil
}

// --- Drain ---

// Drain switches the coordinator into drain mode: lease calls stop
// granting tasks (workers are told to exit), and once every in-flight
// lease settles — its result uploads, or its TTL expires — the channel
// from Drained closes. Serve exits cleanly at that point, which is the
// graceful-restart story: POST /v1/drain (or SIGTERM in dsa-grid),
// wait, restart on the same checkpoint dir, nothing is lost.
func (c *Coordinator) Drain(ctx context.Context) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return
	}
	c.draining = true
	for _, j := range c.jobs {
		c.broadcastLocked(j)
	}
	c.logfCtx(ctx, "grid: draining: no new leases; %d in-flight tasks to settle", c.inflightLocked())
	c.checkDrainedLocked()
	c.mu.Unlock()
	go c.drainLoop()
}

// Draining reports whether Drain has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drained returns a channel that closes once a drain has fully
// settled (it never closes if Drain is never called).
func (c *Coordinator) Drained() <-chan struct{} { return c.drainDone }

// checkDrainedLocked closes the drain-complete channel once draining
// and nothing is in flight anywhere.
func (c *Coordinator) checkDrainedLocked() {
	if !c.draining || c.drainClosed || c.inflightLocked() > 0 {
		return
	}
	c.drainClosed = true
	close(c.drainDone)
	c.logf("grid: drained: all in-flight work settled")
}

// inflightLocked counts tasks on lease or journalling a result.
func (c *Coordinator) inflightLocked() int {
	n := 0
	for _, j := range c.jobs {
		for _, st := range j.tasks {
			if st.status == taskLeased || st.recording {
				n++
			}
		}
	}
	return n
}

// drainLoop ticks lease expiry while draining, so the drain completes
// even if every lease holder vanished and nothing else touches the
// state. It reads the injectable clock for expiry decisions but paces
// itself on wall time.
func (c *Coordinator) drainLoop() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.drainDone:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		for _, j := range c.jobs {
			c.expireLocked(j)
		}
		c.checkDrainedLocked()
		c.mu.Unlock()
	}
}

// CacheStats reports the coordinator's score cache counters; ok is
// false when it runs without a cache. Counter details come from the
// cache's own Stats (internal/cache.Store provides them); a cache
// without that method still works, it just reports zeros.
func (c *Coordinator) CacheStats() (dsa.CacheStats, bool) {
	return c.cacheStatsLocked()
}

// cacheStatsLocked is safe with or without c.mu held: it only touches
// the cache, which has its own synchronization.
func (c *Coordinator) cacheStatsLocked() (dsa.CacheStats, bool) {
	if c.opts.Cache == nil {
		return dsa.CacheStats{}, false
	}
	if sp, ok := c.opts.Cache.(interface{ Stats() dsa.CacheStats }); ok {
		return sp.Stats(), true
	}
	return dsa.CacheStats{}, true
}

// Progress returns a job's live snapshot.
func (c *Coordinator) Progress(id string) (ProgressSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return ProgressSnapshot{}, err
	}
	c.expireLocked(j)
	return c.snapshotLocked(j), nil
}

func (c *Coordinator) snapshotLocked(j *gridJob) ProgressSnapshot {
	snap := ProgressSnapshot{
		JobID: j.id, Total: len(j.order), Done: j.done, Requeues: j.requeues,
		CacheTasks: j.cacheServed, LeasesGranted: j.leasesGranted, Priority: j.weight,
	}
	workers := map[string]bool{}
	for _, st := range j.tasks {
		switch st.status {
		case taskLeased:
			snap.Leased++
			workers[st.worker] = true
		case taskPending:
			snap.Pending++
		}
	}
	snap.Workers = len(workers)
	snap.Audits = len(j.audits)
	snap.Complete = j.completeLocked()
	return snap
}

// Scores returns a completed job's assembled scores; ok is false while
// tasks are outstanding.
func (c *Coordinator) Scores(id string) (s *dsa.Scores, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return nil, false, err
	}
	if !j.completeLocked() {
		return nil, false, nil
	}
	return j.scores, true, j.scoresErr
}

// WaitComplete blocks until the job's last task is done (returning the
// assembled scores) or ctx is cancelled.
func (c *Coordinator) WaitComplete(ctx context.Context, id string) (*dsa.Scores, error) {
	for {
		c.mu.Lock()
		j, err := c.getJob(id)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if j.completeLocked() {
			s, serr := j.scores, j.scoresErr
			c.mu.Unlock()
			return s, serr
		}
		changed := j.changed
		c.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Summaries lists every job, sorted by ID.
func (c *Coordinator) Summaries() []JobSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobSummary, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, c.summaryLocked(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (c *Coordinator) summaryLocked(j *gridJob) JobSummary {
	return JobSummary{
		ID: j.id, Domain: j.spec.Domain.Name(),
		TotalTasks: len(j.order), DoneTasks: j.done,
		Priority: j.weight,
		Complete: j.completeLocked(),
	}
}

// --- HTTP layer ---

// Handler returns the full API handler: the /v1 JSON API, /metrics,
// and the dashboard, wrapped in request-ID instrumentation, JSON
// error normalization (no text/plain 404/405 pages) and — when
// configured — per-client rate limiting. Auth, when configured, guards
// the mutating endpoints per route.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", c.handleListJobs)
	mux.HandleFunc("POST /v1/jobs", c.authed(c.handleCreateJob))
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleGetJob)
	mux.HandleFunc("POST /v1/jobs/{id}/lease", c.authed(c.handleLease))
	mux.HandleFunc("POST /v1/lease", c.authed(c.handleLeaseAny))
	mux.HandleFunc("POST /v1/jobs/{id}/heartbeat", c.authed(c.handleHeartbeat))
	mux.HandleFunc("POST /v1/jobs/{id}/results", c.authed(c.handleUpload))
	mux.HandleFunc("GET /v1/jobs/{id}/results", c.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", c.handleProgress)
	mux.HandleFunc("GET /v1/cache", c.handleCacheStats)
	mux.HandleFunc("POST /v1/drain", c.authed(c.handleDrain))
	mux.HandleFunc("POST /v1/trace", c.authed(c.handleTraceUpload))
	mux.HandleFunc("GET /v1/trace", c.handleTraceGet)
	mux.HandleFunc("GET /v1/dashboard", c.handleDashboard)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	if c.opts.Pprof {
		pp := profiling.Handler("") // coordinator auth wraps it instead
		mux.Handle("/debug/pprof/", c.authed(pp.ServeHTTP))
	}
	return gridobs.Instrument(c.rateLimited(jsonErrors(mux)), c.onRequestDone)
}

// authed guards one mutating route with the shared-secret token. The
// compare hashes both sides first, so it is constant-time regardless
// of the presented token's length.
func (c *Coordinator) authed(h http.HandlerFunc) http.HandlerFunc {
	if c.opts.AuthToken == "" {
		return h
	}
	want := sha256.Sum256([]byte(c.opts.AuthToken))
	return func(w http.ResponseWriter, r *http.Request) {
		got := sha256.Sum256([]byte(bearerToken(r)))
		if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			c.metrics.authFailures.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="grid"`)
			writeJSON(w, http.StatusUnauthorized, errorBody{Error: "grid: missing or invalid auth token"})
			return
		}
		h(w, r)
	}
}

func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

// rateLimited applies per-client token-bucket admission to the /v1 API
// (metrics scrapes are never limited — observability must survive the
// very overload it is for). Clients are keyed by remote IP.
func (c *Coordinator) rateLimited(next http.Handler) http.Handler {
	if !c.limiter.Enabled() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		// Trace shipping is exempt like /metrics: throttling the
		// observability plane during an overload would blind exactly
		// the tools needed to diagnose it, and a 429'd chunk just
		// re-ships later anyway (idempotent offsets).
		if r.URL.Path == "/v1/trace" {
			next.ServeHTTP(w, r)
			return
		}
		key := r.RemoteAddr
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			key = host
		}
		if !c.limiter.Allow(key) {
			c.metrics.rateLimited.Inc()
			after := int(math.Ceil(c.limiter.RetryAfter(key).Seconds()))
			if after < 1 {
				after = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(after))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "grid: rate limit exceeded, retry later"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// jsonErrors rewrites the mux's text/plain 404 and 405 pages into the
// API's structured JSON error shape, so every error a client can
// receive — wrong path, wrong method, bad body, unknown job — has the
// same {"error": ...} contract. Responses that already chose their
// own content type (our handlers) pass through untouched.
func jsonErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
	})
}

type jsonErrorWriter struct {
	http.ResponseWriter
	intercepted bool
	wroteHeader bool
}

func (w *jsonErrorWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.Contains(w.Header().Get("Content-Type"), "json") {
		w.intercepted = true
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Del("Content-Length")
		w.ResponseWriter.WriteHeader(code)
		msg := "grid: not found"
		if code == http.StatusMethodNotAllowed {
			msg = "grid: method not allowed"
		}
		body, _ := json.Marshal(errorBody{Error: msg})
		w.ResponseWriter.Write(append(body, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		// Swallow the mux's text body; ours is already written.
		return len(p), nil
	}
	if !w.wroteHeader {
		w.wroteHeader = true
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so NDJSON progress streams
// keep flushing through the wrapper.
func (w *jsonErrorWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", gridobs.TextContentType)
	c.metrics.reg.WritePrometheus(w)
}

func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	c.Drain(r.Context())
	c.mu.Lock()
	inflight := c.inflightLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, DrainResponse{Draining: true, InFlight: inflight})
}

func (c *Coordinator) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	stats, enabled := c.CacheStats()
	writeJSON(w, http.StatusOK, CacheStatsResponse{Enabled: enabled, CacheStats: stats})
}

// writeJSON marshals before touching the response, so an encoding
// failure becomes a clean 500 instead of a truncated 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"grid: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, errUnknownJob), errors.Is(err, errUnknownTask):
		status = http.StatusNotFound
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errQuarantined):
		// 429 like the rate limiter, but with the quarantine marker so
		// clients know retrying is pointless; the long Retry-After tells
		// generic HTTP clients the same thing.
		w.Header().Set("Retry-After", "3600")
		w.Header().Set(HeaderQuarantined, "1")
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// readBody decodes a JSON request body, bounded by MaxBody: oversized
// bodies answer 413, malformed ones 400 — always as structured JSON.
// A request carrying the body-checksum header is verified first; a
// mismatch is transport corruption (the client signed what it meant to
// send), answered 400 with the corrupt-body marker so the client
// retries instead of treating it as a protocol error — and so a
// corrupted result upload is rejected here rather than recorded and
// later mistaken for a Byzantine worker.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.opts.maxBody()))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("grid: request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeError(w, fmt.Errorf("grid: bad request body: %w", err))
		return false
	}
	if want := r.Header.Get(HeaderBodySHA256); want != "" {
		sum := sha256.Sum256(body)
		if !strings.EqualFold(hex.EncodeToString(sum[:]), want) {
			c.metrics.corruptBodies.Inc()
			w.Header().Set(HeaderCorruptBody, "1")
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: "grid: request body checksum mismatch (corrupted in transit)"})
			return false
		}
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, fmt.Errorf("grid: bad request body: %w", err))
		return false
	}
	return true
}

func (c *Coordinator) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, jobsResponse{Jobs: c.Summaries()})
}

func (c *Coordinator) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req CreateJobRequest
	if !c.readBody(w, r, &req) {
		return
	}
	spec, err := job.DecodeSpec(req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	priority := req.Priority
	if priority == 0 {
		priority = 1
	}
	id, err := c.AddJobPriority(spec, priority)
	if err != nil {
		writeError(w, err)
		return
	}
	c.mu.Lock()
	summary := c.summaryLocked(c.jobs[id])
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, summary)
}

func (c *Coordinator) handleGetJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, err := c.getJob(r.PathValue("id"))
	if err != nil {
		c.mu.Unlock()
		writeError(w, err)
		return
	}
	detail := JobDetail{JobSummary: c.summaryLocked(j), Spec: j.specRaw}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, detail)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !c.readBody(w, r, &req) {
		return
	}
	resp, err := c.Lease(r.Context(), r.PathValue("id"), req.Worker, req.MaxTasks)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleLeaseAny(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !c.readBody(w, r, &req) {
		return
	}
	resp, err := c.LeaseAny(r.Context(), req.Worker, req.MaxTasks)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !c.readBody(w, r, &req) {
		return
	}
	resp, err := c.Heartbeat(r.Context(), r.PathValue("id"), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleUpload(w http.ResponseWriter, r *http.Request) {
	var up ResultUpload
	if !c.readBody(w, r, &up) {
		return
	}
	ack, err := c.Ingest(r.Context(), r.PathValue("id"), up)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	scores, ok, err := c.Scores(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		snap, _ := c.Progress(id)
		writeJSON(w, http.StatusConflict, struct {
			errorBody
			Progress ProgressSnapshot `json:"progress"`
		}{errorBody{Error: fmt.Sprintf("grid: job %s incomplete: %d/%d tasks done", id, snap.Done, snap.Total)}, snap})
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		c.mu.Lock()
		d := c.jobs[id].spec.Domain
		c.mu.Unlock()
		writeCSV := c.opts.CSV
		if writeCSV == nil {
			writeCSV = dsa.WriteCSV
		}
		w.Header().Set("Content-Type", "text/csv")
		if err := writeCSV(w, d, scores); err != nil {
			c.logfCtx(r.Context(), "grid: job %s: csv render: %v", id, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, scoresToWire(scores))
}

// handleProgress serves one snapshot, or — with ?stream=1 — newline-
// delimited JSON snapshots on every state change (and at least once a
// second, so lease expiries surface) until the job completes or the
// client goes away.
func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := c.Progress(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("stream") == "" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var last ProgressSnapshot
	first := true
	for {
		if first || snap != last {
			if err := enc.Encode(snap); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			last, first = snap, false
		}
		if snap.Complete {
			return
		}
		c.mu.Lock()
		j, err := c.getJob(id)
		if err != nil {
			c.mu.Unlock()
			return
		}
		changed := j.changed
		c.mu.Unlock()
		select {
		case <-changed:
		case <-time.After(time.Second):
		case <-r.Context().Done():
			return
		}
		if snap, err = c.Progress(id); err != nil {
			return
		}
	}
}

// Serve listens on addr and serves the API until ctx is cancelled or a
// drain completes (POST /v1/drain, or Drain called directly) — the
// latter exits cleanly after in-flight work settles. onListen (if
// non-nil) receives the bound address before serving — useful with
// ":0".
func (c *Coordinator) Serve(ctx context.Context, addr string, onListen func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr().String())
	}
	srv := &http.Server{Handler: c.Handler()}
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-c.Drained():
		case <-stopped:
			return
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	err = srv.Serve(ln)
	close(stopped)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
