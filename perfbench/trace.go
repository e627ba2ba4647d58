package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/gridobs"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around a layer's public seam. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	RID    string `json:"rid,omitempty"`
	Worker string `json:"worker,omitempty"`
	N      int    `json:"n,omitempty"` // points, tasks or granted tasks, by span kind
	Status int    `json:"status,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run
// ends. A nil *recorder records nothing, which is how untraced passes
// keep the wrappers' cost down to the per-task hooks.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores s, assigns its ID and returns it.
func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int32(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// setEnd closes a span opened with add.
func (r *recorder) setEnd(id int32, end int64) {
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// since returns the spans recorded after mark (a len(spans) snapshot).
func (r *recorder) since(mark int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[mark:]...)
}

func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's ID. job.Options.Progress carries
// no task identity, but the pool runs a task's ScoreSlice, its cache
// calls, its checkpoint record and its Progress callback on one
// goroutine, so the goroutine ID pairs a task's first touch with its
// completion. It costs about a microsecond, paid at most three times
// per task.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	var id int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// taskClock measures local per-task latency: a task starts when a pool
// goroutine first calls into the domain or the cache for it, and ends
// at the Progress callback the same goroutine makes once the task's
// result is recorded.
type taskClock struct {
	rec    *recorder // nil: latencies only, no task spans
	parent int32

	mu    sync.Mutex
	open  map[int64]openTask
	first int64 // first task start, ns since rec epoch (or base)
	last  int64
	lat   []time.Duration
	base  time.Time
}

type openTask struct {
	start int64
	span  int32
}

func newTaskClock(rec *recorder, parent int32) *taskClock {
	return &taskClock{rec: rec, parent: parent, open: map[int64]openTask{}, base: time.Now(), first: -1}
}

func (c *taskClock) now() int64 {
	if c.rec != nil {
		return c.rec.now()
	}
	return int64(time.Since(c.base))
}

// touch marks the calling goroutine as working on a task, opening one
// if none is open, and returns the open task's span ID (0 untraced).
func (c *taskClock) touch() int32 {
	g := goid()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.open[g]; ok {
		return t.span
	}
	t := openTask{start: c.now()}
	if c.first < 0 {
		c.first = t.start
	}
	if c.rec != nil {
		t.span = c.rec.add(span{Parent: c.parent, Name: "task", Start: t.start})
	}
	c.open[g] = t
	return t.span
}

// done closes the calling goroutine's open task.
func (c *taskClock) done() {
	g := goid()
	end := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.open[g]
	if !ok {
		return
	}
	delete(c.open, g)
	c.lat = append(c.lat, time.Duration(end-t.start))
	c.last = max(c.last, end)
	if c.rec != nil {
		c.rec.setEnd(t.span, end)
	}
}

// hookedDomain wraps a dsa.Domain's ScoreSlice: every call touches the
// task clock, and with a recorder each call becomes a "sim" span under
// its task.
type hookedDomain struct {
	dsa.Domain
	clock *taskClock
	rec   *recorder
}

// ScoreVersion forwards the wrapped domain's score version, so the
// wrapper derives the same cache keys as the domain itself.
func (d *hookedDomain) ScoreVersion() int {
	if v, ok := d.Domain.(dsa.ScoreVersioned); ok {
		return v.ScoreVersion()
	}
	return 0
}

func (d *hookedDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	parent := d.clock.touch()
	if d.rec == nil {
		return d.Domain.ScoreSlice(measure, pts, opponents, cfg)
	}
	start := d.rec.now()
	vals, err := d.Domain.ScoreSlice(measure, pts, opponents, cfg)
	d.rec.add(span{Parent: parent, Name: "sim", Start: start, End: d.rec.now(), N: len(pts)})
	return vals, err
}

// getSample is the cache Get timing sample rate (see hookedCache.Get).
const getSample = 8

// cacheTally aggregates timed cache calls. The coordinator makes
// millions of Gets per gossip-grid pass, too many to keep as spans;
// every cache call runs inside one task (local) or one request handler
// (grid) on that span's own goroutine, so subtracting the totals from
// the enclosing spans' sum gives the same self time a per-call span
// would.
type cacheTally struct {
	gets, hits, puts, getNS, putNS atomic.Int64
}

type cacheCounts struct{ gets, hits, puts, getNS, putNS int64 }

func (t *cacheTally) snapshot() cacheCounts {
	return cacheCounts{t.gets.Load(), t.hits.Load(), t.puts.Load(), t.getNS.Load(), t.putNS.Load()}
}

func (a cacheCounts) minus(b cacheCounts) cacheCounts {
	return cacheCounts{a.gets - b.gets, a.hits - b.hits, a.puts - b.puts, a.getNS - b.getNS, a.putNS - b.putNS}
}

// hookedCache wraps a dsa.ScoreCache. clock (optional) is touched by
// Get, marking task starts for tasks that never simulate; tally
// (optional) counts every call and times them (Gets sampled).
type hookedCache struct {
	inner dsa.ScoreCache
	clock *taskClock
	tally *cacheTally
}

func (c *hookedCache) Get(k dsa.CacheKey) (float64, bool) {
	if c.clock != nil {
		c.clock.touch()
	}
	if c.tally == nil {
		return c.inner.Get(k)
	}
	// Every getSample-th Get is timed and stands for its neighbours:
	// timing all of gossip-grid's Gets would add a clock pair to each
	// of millions of sub-microsecond calls.
	timed := c.tally.gets.Add(1)%getSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	v, ok := c.inner.Get(k)
	if timed {
		c.tally.getNS.Add(getSample * int64(time.Since(start)))
	}
	if ok {
		c.tally.hits.Add(1)
	}
	return v, ok
}

func (c *hookedCache) Put(k dsa.CacheKey, v float64) {
	if c.tally == nil {
		c.inner.Put(k, v)
		return
	}
	start := time.Now()
	c.inner.Put(k, v)
	c.tally.putNS.Add(int64(time.Since(start)))
	c.tally.puts.Add(1)
}

func (c *hookedCache) GetOrCompute(k dsa.CacheKey, compute func() (float64, error)) (float64, error) {
	if c.tally == nil {
		return c.inner.GetOrCompute(k, compute)
	}
	start := time.Now()
	v, err := c.inner.GetOrCompute(k, compute)
	c.tally.getNS.Add(int64(time.Since(start)))
	c.tally.gets.Add(1)
	return v, err
}

// rpcKind names a grid API call by its path.
func rpcKind(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/lease",
		method == http.MethodPost && strings.HasSuffix(path, "/lease"):
		return "lease"
	case method == http.MethodPost && strings.HasSuffix(path, "/results"):
		return "upload"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	}
	return "other"
}

// workerTransport is one grid worker's http.RoundTripper. It always
// counts attempts, retries and failures and measures task latency (a
// task's lease response to its upload ack — each worker holds one task
// at a time); with a recorder it also records one "rpc.<kind>" span per
// attempt, ended when the response body is closed.
type workerTransport struct {
	base   http.RoundTripper
	worker string
	rec    *recorder
	stats  *rpcStats
	clock  func() int64

	mu        sync.Mutex
	leaseAt   int64
	haveLease bool
}

// rpcStats is shared by every worker transport of one pass.
type rpcStats struct {
	mu         sync.Mutex
	attempts   int
	retries    int
	failures   int
	firstLease int64 // first lease response, -1 until one arrives
	lastAck    int64
	lat        []time.Duration
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := rpcKind(req.Method, req.URL.Path)
	start := t.clock()
	resp, err := t.base.RoundTrip(req)
	now := t.clock()
	ok := err == nil && resp.StatusCode/100 == 2

	t.stats.mu.Lock()
	t.stats.attempts++
	if req.Header.Get(gridobs.RetryAttemptHeader) != "" {
		t.stats.retries++
	}
	if !ok {
		t.stats.failures++
	}
	if ok && kind == "lease" && t.stats.firstLease < 0 {
		t.stats.firstLease = now
	}
	t.stats.mu.Unlock()

	if ok {
		t.mu.Lock()
		switch kind {
		case "lease":
			t.leaseAt, t.haveLease = now, true
		case "upload":
			if t.haveLease {
				t.stats.mu.Lock()
				t.stats.lat = append(t.stats.lat, time.Duration(now-t.leaseAt))
				t.stats.lastAck = max(t.stats.lastAck, now)
				t.stats.mu.Unlock()
				t.haveLease = false
			}
		}
		t.mu.Unlock()
	}
	if err != nil || t.rec == nil {
		return resp, err
	}
	id := t.rec.add(span{Name: "rpc." + kind, Start: start, End: now,
		RID: req.Header.Get(gridobs.RequestIDHeader), Worker: t.worker, Status: resp.StatusCode})
	resp.Body = &endOnClose{ReadCloser: resp.Body, rec: t.rec, id: id}
	return resp, nil
}

// endOnClose moves a client span's end to the moment the worker has
// read and closed the response body.
type endOnClose struct {
	io.ReadCloser
	rec  *recorder
	id   int32
	once sync.Once
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.setEnd(b.id, b.rec.now()) })
	return err
}

// serverSpans is middleware around Coordinator.Handler(): one
// "srv.<kind>" span per request, keyed by the X-Request-ID the worker
// sent, so client and server time of one call can be paired.
func serverSpans(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := rec.now()
		next.ServeHTTP(w, r)
		rec.add(span{Name: "srv." + rpcKind(r.Method, r.URL.Path), Start: start, End: rec.now(),
			RID: r.Header.Get(gridobs.RequestIDHeader)})
	})
}

// timed records a span named name around fn under parent.
func (r *recorder) timed(parent int32, name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := r.now()
	err := fn()
	r.add(span{Parent: parent, Name: name, Start: start, End: r.now()})
	return err
}
