// Package grid turns the sweep engine from a library into a deployable
// service: an HTTP coordinator that owns a job's task list and
// checkpoint, and thin workers that lease tasks, compute them with the
// domain's ScoreSlice, and upload the values. The paper's headline
// experiment cost ~25 cluster-hours; the grid is how that workload
// spreads over machines without hand-partitioning -shards/-shard-index
// up front and without losing a shard's share when its machine dies.
//
// The coordinator's unit of work is exactly internal/job's Task, and
// each task moves through a small lease state machine:
//
//	pending ── lease ──▶ leased ── result upload ──▶ done
//	   ▲                   │
//	   └── deadline passed ┘  (requeue; counted, re-leased to anyone)
//
// A lease carries a deadline; workers extend it by heartbeating. A
// worker that is SIGKILLed, partitioned or wedged simply stops
// heartbeating, its leases expire, and the tasks are re-leased — no
// worker registration, no failure detector beyond the deadline.
//
// Correctness under re-leases and duplicate uploads comes from the
// determinism contract of dsa.Domain: a task's values are a pure
// function of the spec and the task identity, so any two honest
// computations of one task agree byte-for-byte. Result ingest is
// therefore idempotent — the first upload wins, is journalled through
// the internal/job checkpoint format (one synced manifest record
// carrying the values), and later duplicates are acknowledged and
// dropped.
// A grid checkpoint directory is interchangeable with a local one:
// job.Load, dsa-report and a local -resume all read it.
//
// The wire API is JSON over HTTP, rooted at /v1:
//
//	GET  /v1/jobs                  — list jobs (summaries)
//	POST /v1/jobs                  — create a job from an encoded spec
//	GET  /v1/jobs/{id}             — job detail incl. the spec payload
//	POST /v1/jobs/{id}/lease       — lease up to MaxTasks tasks
//	POST /v1/jobs/{id}/heartbeat   — extend leases; learn which were lost
//	POST /v1/jobs/{id}/results     — upload one task's values (idempotent)
//	GET  /v1/jobs/{id}/results     — assembled scores (JSON or ?format=csv)
//	GET  /v1/jobs/{id}/progress    — snapshot, or ?stream=1 for NDJSON
//	                                 snapshots until the job completes
//	GET  /v1/cache                 — cross-job score cache counters
//	POST /v1/lease                 — lease from whichever job the fair
//	                                 scheduler picks (multi-job workers)
//	POST /v1/drain                 — stop granting leases; settle and exit
//	GET  /v1/dashboard             — live HTML operations dashboard
//	GET  /metrics                  — Prometheus text exposition
//
// Production hardening: every error (wrong path, wrong method, bad
// body, unknown job) is structured JSON; request bodies are bounded
// (413 past the cap); an optional shared-secret bearer token guards the
// mutating endpoints; optional per-client token-bucket rate limiting
// answers 429 + Retry-After; and every response carries an
// X-Request-ID that the coordinator's event log lines repeat.
//
// With CoordinatorOptions.Cache set, the coordinator also memoizes:
// every ingested result feeds a cross-job content-addressed score
// cache (internal/cache), and a task whose scores are already known —
// from a previous job, a checkpoint restore, or an overlapping spec —
// is served as an ingested result instead of ever being dispatched.
package grid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/gridobs"
)

// JobSummary is one row of the jobs listing.
type JobSummary struct {
	ID         string `json:"id"`
	Domain     string `json:"domain"`
	TotalTasks int    `json:"total_tasks"`
	DoneTasks  int    `json:"done_tasks"`
	Priority   int    `json:"priority"`
	Complete   bool   `json:"complete"`
}

// JobDetail is a summary plus the spec payload (job.EncodeSpec bytes)
// a worker needs to execute leases.
type JobDetail struct {
	JobSummary
	Spec json.RawMessage `json:"spec"`
}

type jobsResponse struct {
	Jobs []JobSummary `json:"jobs"`
}

// CreateJobRequest registers a sweep with the coordinator. Spec is a
// job.EncodeSpec payload; job creation is idempotent — the job ID
// derives from the spec bytes, so re-POSTing the same sweep returns
// the existing job.
type CreateJobRequest struct {
	Spec json.RawMessage `json:"spec"`
	// Priority is the job's fair-share scheduling weight: against other
	// concurrent jobs it receives leased tasks in proportion to this
	// weight. 0 (or absent) means 1. Re-posting an existing job with a
	// different priority updates the weight.
	Priority int `json:"priority,omitempty"`
}

// LeaseRequest asks for up to MaxTasks pending tasks on behalf of
// Worker (an opaque identity used only to match heartbeats to leases).
type LeaseRequest struct {
	Worker   string `json:"worker"`
	MaxTasks int    `json:"max_tasks"`
}

// LeaseTask is one leased task: the job.Task coordinates plus the
// lease TTL the worker must heartbeat within.
type LeaseTask struct {
	Task    string `json:"task"`
	Measure string `json:"measure"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	TTLMS   int64  `json:"ttl_ms"`
}

// LeaseResponse carries the granted leases. Complete means every task
// is done — workers should exit rather than poll again. Draining means
// the coordinator is shutting down gracefully and grants nothing;
// workers should exit and reconnect to the restarted coordinator.
type LeaseResponse struct {
	Tasks    []LeaseTask `json:"tasks"`
	Complete bool        `json:"complete"`
	Draining bool        `json:"draining,omitempty"`
}

// GlobalLeaseResponse answers POST /v1/lease: tasks from whichever job
// the fair scheduler picked (all tasks in one response belong to Job).
// AllComplete means every registered job is done; Draining as in
// LeaseResponse.
type GlobalLeaseResponse struct {
	Job         string      `json:"job"`
	Tasks       []LeaseTask `json:"tasks"`
	AllComplete bool        `json:"all_complete"`
	Draining    bool        `json:"draining,omitempty"`
}

// DrainResponse answers POST /v1/drain: the coordinator stops granting
// leases and will exit once InFlight leases settle (upload or expire).
type DrainResponse struct {
	Draining bool `json:"draining"`
	InFlight int  `json:"in_flight"`
}

// HeartbeatRequest extends Worker's leases on Tasks.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Tasks  []string `json:"tasks"`
}

// HeartbeatResponse reports which leases were renewed and which are
// lost (expired and possibly re-leased, or already done) — the worker
// should stop heartbeating lost tasks but may still upload a finished
// result, which ingest handles idempotently.
type HeartbeatResponse struct {
	Renewed []string `json:"renewed"`
	Lost    []string `json:"lost"`
}

// WireFloats is []float64 that survives JSON: non-finite values,
// which encoding/json rejects but a domain may legitimately produce,
// use the shared canonical tokens (see dsa.JSONFloats — the same
// codec the checkpoint manifest records use, so grid and local runs agree
// byte-for-byte on disk too).
type WireFloats = dsa.JSONFloats

// ResultUpload is one finished task's values.
type ResultUpload struct {
	Worker    string     `json:"worker"`
	Task      string     `json:"task"`
	Values    WireFloats `json:"values"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

// ScoresWire is dsa.Scores in grid wire form: the same shape, with
// score vectors as WireFloats so non-finite values round-trip.
type ScoresWire struct {
	Domain string                `json:"domain"`
	Points []core.Point          `json:"points"`
	Raw    map[string]WireFloats `json:"raw"`
	Values map[string]WireFloats `json:"values"`
}

func scoresToWire(s *dsa.Scores) ScoresWire {
	w := ScoresWire{
		Domain: s.Domain, Points: s.Points,
		Raw:    make(map[string]WireFloats, len(s.Raw)),
		Values: make(map[string]WireFloats, len(s.Values)),
	}
	for m, v := range s.Raw {
		w.Raw[m] = WireFloats(v)
	}
	for m, v := range s.Values {
		w.Values[m] = WireFloats(v)
	}
	return w
}

func (w ScoresWire) scores() *dsa.Scores {
	s := &dsa.Scores{
		Domain: w.Domain, Points: w.Points,
		Raw:    make(map[string][]float64, len(w.Raw)),
		Values: make(map[string][]float64, len(w.Values)),
	}
	for m, v := range w.Raw {
		s.Raw[m] = []float64(v)
	}
	for m, v := range w.Values {
		s.Values[m] = []float64(v)
	}
	return s
}

// ResultAck acknowledges an upload. Duplicate marks a task that was
// already done (the upload was dropped; determinism makes it
// equivalent).
type ResultAck struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// ProgressSnapshot is the live view of a job served by /progress and
// pushed line-by-line on the streaming variant.
type ProgressSnapshot struct {
	JobID         string `json:"job_id"`
	Total         int    `json:"total_tasks"`
	Done          int    `json:"done_tasks"`
	Leased        int    `json:"leased_tasks"`
	Pending       int    `json:"pending_tasks"`
	Requeues      int    `json:"requeues"`         // leases that expired back to pending
	Workers       int    `json:"workers"`          // workers holding a live lease
	CacheTasks    int    `json:"cache_tasks"`      // tasks served from the score cache, never dispatched
	LeasesGranted int    `json:"leases_granted"`   // tasks handed out on leases, re-leases included
	Priority      int    `json:"priority"`         // fair-share weight
	Audits        int    `json:"audits,omitempty"` // open result audits still gating completion
	Complete      bool   `json:"complete"`
}

// CacheStatsResponse is served by GET /v1/cache: the coordinator's
// cross-job score cache counters (see dsa.CacheStats). Enabled is
// false when the coordinator runs without a cache — the counters are
// then all zero.
type CacheStatsResponse struct {
	Enabled bool `json:"enabled"`
	dsa.CacheStats
}

type errorBody struct {
	Error string `json:"error"`
}

// Wire headers for the Byzantine-tolerance plumbing.
const (
	// HeaderBodySHA256 carries the lowercase hex SHA-256 of the request
	// body. The coordinator verifies it before decoding, so a body
	// corrupted in transit is rejected (400 + HeaderCorruptBody) and
	// resent — instead of being recorded and later mistaken for a
	// Byzantine result when an audit re-computes the task.
	HeaderBodySHA256 = "X-Body-Sha256"
	// HeaderCorruptBody marks a 400 as transport corruption: the request
	// as sent was fine, resending it is the fix.
	HeaderCorruptBody = "X-Grid-Corrupt-Body"
	// HeaderQuarantined marks a 429 as a quarantine verdict rather than
	// rate limiting: retrying is pointless, the worker should exit.
	HeaderQuarantined = "X-Grid-Quarantined"
)

// ErrWorkerQuarantined surfaces a quarantine verdict to client callers
// (errors.Is-able): the coordinator refuses this worker's leases,
// heartbeats and uploads, permanently.
var ErrWorkerQuarantined = errors.New("grid: worker quarantined by coordinator")

// --- HTTP client helpers, shared by the worker, the facade and
// dsa-report's -coordinator mode. ---
//
// Every call is bounded and retried: a request either completes within
// the client timeout or fails, and transient failures (transport
// errors, 5xx) back off and retry a few times before surfacing. A hung
// or briefly unreachable coordinator therefore slows a client down; it
// can never wedge one forever — callers that pass their own
// *http.Client keep their own timeout policy, nil callers get
// DefaultHTTPTimeout.

const (
	// DefaultHTTPTimeout bounds one request end to end (connect,
	// request, full response body) for clients that do not inject
	// their own http.Client. Generous because a result upload can
	// carry a large task's values; far from infinite because the
	// default it replaces (http.DefaultClient, no timeout at all)
	// let a hung coordinator wedge workers and reports forever.
	DefaultHTTPTimeout = 60 * time.Second

	// clientAttempts and clientRetryBase shape the retry schedule:
	// exponential ceilings of 250ms, 500ms, 1s between the 4 attempts
	// — enough to ride out a coordinator restart without masking a
	// real outage for long. The actual sleep before each retry is
	// *full jitter* over the ceiling (uniform in [0, ceiling]): when a
	// whole fleet of workers gets 5xx/429 from the same hiccup at the
	// same instant, deterministic backoff would march them back in
	// lockstep and re-create the stampede every period; jitter spreads
	// the retries across the window.
	clientAttempts  = 4
	clientRetryBase = 250 * time.Millisecond

	// maxRetryAfter caps how long a server-sent Retry-After can stall a
	// retry loop: a coordinator asking for an hour (quarantine) should
	// surface as an error via the attempt budget, not a silent hour.
	maxRetryAfter = 30 * time.Second
)

// retryDelay computes the sleep before retry attempt n (n >= 1): full
// jitter over an exponential ceiling. A package variable so tests can
// pin or record it.
var retryDelay = func(attempt int) time.Duration {
	ceiling := clientRetryBase << (attempt - 1)
	return time.Duration(rand.Int64N(int64(ceiling) + 1))
}

// defaultClient returns the client used when callers pass nil.
func defaultClient() *http.Client {
	return &http.Client{Timeout: DefaultHTTPTimeout}
}

// authTransport injects the grid shared-secret bearer token into every
// request it carries.
type authTransport struct {
	token string
	base  http.RoundTripper
}

func (t *authTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// Per the RoundTripper contract, the request must not be mutated.
	clone := req.Clone(req.Context())
	clone.Header.Set("Authorization", "Bearer "+t.token)
	return t.base.RoundTrip(clone)
}

// AuthTransport wraps base (nil = http.DefaultTransport) so every
// request carries `Authorization: Bearer token` — the client half of
// CoordinatorOptions.AuthToken. An empty token returns base unchanged.
func AuthTransport(token string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if token == "" {
		return base
	}
	return &authTransport{token: token, base: base}
}

// NewClient returns an *http.Client with the default timeout that
// authenticates with token (which may be empty for an open grid).
func NewClient(token string) *http.Client {
	return &http.Client{Timeout: DefaultHTTPTimeout, Transport: AuthTransport(token, nil)}
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	return doJSON(ctx, client, http.MethodGet, url, nil, out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	return doJSON(ctx, client, http.MethodPost, url, in, out)
}

// callInfo reports how one doJSON call actually went on the wire — the
// request ID it carried and how many attempts it took. An out-param
// rather than a package hook so in-process multi-worker tests (and the
// workers themselves) never share mutable state.
type callInfo struct {
	requestID string
	attempts  int
}

// doJSON issues one JSON request with bounded retries. Retrying every
// verb is safe against this API by design: job creation and result
// upload are idempotent, lease duplicates only cost a lease TTL, and
// heartbeats are refreshes. Non-retryable failures (4xx — the request
// itself is wrong) surface immediately.
func doJSON(ctx context.Context, client *http.Client, method, url string, in, out any) error {
	return doJSONInfo(ctx, client, method, url, in, out, nil)
}

func postJSONInfo(ctx context.Context, client *http.Client, url string, in, out any, info *callInfo) error {
	return doJSONInfo(ctx, client, http.MethodPost, url, in, out, info)
}

// doJSONInfo is doJSON plus client-side request identity: one request
// ID is generated per call and sent on every attempt (with retries
// marked via RetryAttemptHeader), so the coordinator's access log and
// the worker's trace journal name the same rid for the same call —
// a task is traceable across both sides of the wire. info (optional)
// receives the rid and the attempt count.
func doJSONInfo(ctx context.Context, client *http.Client, method, url string, in, out any, info *callInfo) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	rid := gridobs.NewRequestID()
	if info != nil {
		info.requestID = rid
	}
	var lastErr error
	var serverPause time.Duration
	for attempt := 0; attempt < clientAttempts; attempt++ {
		if attempt > 0 {
			// When the server named a pause (Retry-After on 429/503),
			// honor it exactly: jittering under it would retry into the
			// same closed window, padding past it wastes the fleet's
			// time. Otherwise: full jitter over the exponential ceiling.
			delay := retryDelay(attempt)
			if serverPause > 0 {
				delay = serverPause
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		serverPause = 0
		if info != nil {
			info.attempts = attempt + 1
		}
		var reqBody io.Reader
		if in != nil {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, reqBody)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
			sum := sha256.Sum256(body)
			req.Header.Set(HeaderBodySHA256, hex.EncodeToString(sum[:]))
		}
		req.Header.Set(gridobs.RequestIDHeader, rid)
		if attempt > 0 {
			req.Header.Set(gridobs.RetryAttemptHeader, strconv.Itoa(attempt))
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err // transport error (refused, reset, timeout): retry
			continue
		}
		retryable, retryAfter, err := decodeResponse(resp, url, out)
		resp.Body.Close()
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		if retryAfter > maxRetryAfter {
			retryAfter = maxRetryAfter
		}
		serverPause = retryAfter
		lastErr = err
	}
	return fmt.Errorf("grid: %s: giving up after %d attempts: %w", url, clientAttempts, lastErr)
}

// decodeResponse reads and decodes one response, classifying failures:
// 5xx, 429 (rate limited), and checksum-rejected bodies (transport
// corruption — resending re-rolls the dice) are transient (retryable),
// with any Retry-After seconds the server sent passed back as the
// pacing to honor; a quarantine-marked 429 is a verdict, surfaced as
// ErrWorkerQuarantined and never retried; other 4xx and
// malformed-success bodies are not retryable either.
func decodeResponse(resp *http.Response, url string, out any) (retryable bool, retryAfter time.Duration, err error) {
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return true, 0, fmt.Errorf("grid: read %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		if resp.Header.Get(HeaderQuarantined) != "" {
			return false, 0, fmt.Errorf("%w (%s, HTTP %d)", ErrWorkerQuarantined, url, resp.StatusCode)
		}
		retryable = resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests ||
			(resp.StatusCode == http.StatusBadRequest && resp.Header.Get(HeaderCorruptBody) != "")
		if retryable {
			if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
				retryAfter = time.Duration(s) * time.Second
			}
		}
		var eb errorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return retryable, retryAfter, fmt.Errorf("grid: %s: %s (HTTP %d)", url, eb.Error, resp.StatusCode)
		}
		return retryable, retryAfter, fmt.Errorf("grid: %s: HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		return false, 0, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, 0, fmt.Errorf("grid: decode %s: %w", url, err)
	}
	return false, 0, nil
}

func apiURL(base string, parts ...string) string {
	return strings.TrimSuffix(base, "/") + "/v1/" + strings.Join(parts, "/")
}

// ListJobs fetches the coordinator's job summaries. A nil client uses
// a default client with DefaultHTTPTimeout.
func ListJobs(ctx context.Context, client *http.Client, baseURL string) ([]JobSummary, error) {
	if client == nil {
		client = defaultClient()
	}
	var resp jobsResponse
	if err := getJSON(ctx, client, apiURL(baseURL, "jobs"), &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// GetJob fetches one job's detail, including its spec payload.
func GetJob(ctx context.Context, client *http.Client, baseURL, jobID string) (JobDetail, error) {
	if client == nil {
		client = defaultClient()
	}
	var d JobDetail
	err := getJSON(ctx, client, apiURL(baseURL, "jobs", jobID), &d)
	return d, err
}

// FetchScores downloads a completed job's assembled scores. An
// incomplete job is an error (the coordinator answers 409 with its
// progress).
func FetchScores(ctx context.Context, client *http.Client, baseURL, jobID string) (*dsa.Scores, error) {
	if client == nil {
		client = defaultClient()
	}
	var w ScoresWire
	if err := getJSON(ctx, client, apiURL(baseURL, "jobs", jobID, "results"), &w); err != nil {
		return nil, err
	}
	return w.scores(), nil
}

// FetchCacheStats fetches the coordinator's score cache counters
// (dsa-report's `cache -coordinator` view).
func FetchCacheStats(ctx context.Context, client *http.Client, baseURL string) (CacheStatsResponse, error) {
	if client == nil {
		client = defaultClient()
	}
	var resp CacheStatsResponse
	err := getJSON(ctx, client, apiURL(baseURL, "cache"), &resp)
	return resp, err
}
