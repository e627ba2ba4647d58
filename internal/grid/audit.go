package grid

import (
	"hash/fnv"
	"math"
	"time"

	"repro/internal/job"
)

// Result audit + quarantine: the BAR-tolerance layer. The determinism
// contract (Domain.ScoreSlice is a pure function of the point
// identity) makes verification cheap — re-running a task on a second
// worker must reproduce the recorded values bit for bit. The
// coordinator silently re-leases a deterministic AuditRate fraction of
// completed tasks to a *different* worker (the wire shape is an
// ordinary lease; a rational or Byzantine worker cannot tell an audit
// from real work) and byte-compares the scores.
//
// Arbitration is value-voting: the recorded result holds one implicit
// vote (its producer); the first value claimed by two distinct workers
// wins. A match verifies the task. A mismatch escalates to a third
// worker; whichever of the two claims it confirms wins, and the
// loser's producer is quarantined — leases and uploads answered 429,
// every done-but-unaudited task it produced invalidated on disk and
// re-queued. Three distinct values mean the determinism contract
// itself is broken: the task is invalidated and re-run, loudly, with
// no quarantine (the fault is ours, not a worker's).
//
// Guaranteed liar detection needs >= 3 workers (2 honest); with fewer,
// eligibility constraints relax after a lease TTL so audits cannot
// wedge a small grid — at the documented cost that a sole surviving
// worker can confirm its own results.

type auditPhase int

const (
	auditPending auditPhase = iota // waiting for a second opinion
	auditLeased                    // second opinion computing
	arbPending                     // values split; waiting for a tiebreaker
	arbLeased                      // tiebreaker computing
)

// auditState tracks one task's open audit. Entries live in
// gridJob.audits, keyed by task ID, and gate job completion: a job is
// complete only when every task is done AND every audit is settled.
type auditState struct {
	task       job.Task
	original   string // producer of the recorded value ("" if unknown)
	phase      auditPhase
	auditor    string    // worker currently re-computing (audit or arb lease)
	deadline   time.Time // auditor's lease deadline
	relaxAt    time.Time // when worker-exclusion constraints loosen
	giveUpAt   time.Time // arb only: when an unresolvable split re-queues instead
	second     string    // the mismatching second worker (arb phases)
	secondVals []float64
}

// auditSelected is the deterministic sampling decision: a pure
// function of (job, task, rate), so a restarted coordinator re-selects
// exactly the tasks whose audits were in flight at the crash, and a
// worker cannot influence whether its work gets checked.
func auditSelected(jobID, taskID string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{'/'})
	h.Write([]byte(taskID))
	return float64(h.Sum64()>>11)/float64(1<<53) < rate
}

func (c *Coordinator) auditEnabled() bool { return c.opts.AuditRate > 0 }

// leased reports whether an auditor is re-computing the task.
func (a *auditState) leased() bool { return a.phase == auditLeased || a.phase == arbLeased }

// auditRenewLocked extends an audit/arbitration lease held by worker,
// so heartbeats keep re-checks alive exactly like ordinary leases.
func (c *Coordinator) auditRenewLocked(j *gridJob, tid, worker string, deadline time.Time) bool {
	ast, ok := j.audits[tid]
	if !ok || worker == "" || ast.auditor != worker || !ast.leased() {
		return false
	}
	ast.deadline = deadline
	return true
}

// auditExpireLocked lazily expires audit leases whose holder went
// silent (back to pending, scored against the holder) and re-queues
// arbitrations that ran out of road (no third worker ever arrived).
// Runs from expireLocked, so every API call that looks at task state
// keeps audits live too.
func (c *Coordinator) auditExpireLocked(j *gridJob, now time.Time) {
	for tid, ast := range j.audits {
		if ast.leased() && ast.deadline.Before(now) {
			c.record(j, walRecord{T: walExpire, Job: j.id, Task: tid, Worker: ast.auditor}, nil)
		}
		if ast.phase == arbPending && !ast.giveUpAt.IsZero() && ast.giveUpAt.Before(now) {
			// Unresolvable split (e.g. both claimants quarantine-proof
			// in a 2-worker grid): discard both claims and re-run.
			c.logf("grid: job %s: task %s audit split unresolved (%q vs %q), re-queueing",
				j.id, tid, ast.original, ast.second)
			c.record(j, walRecord{T: walExpire, Job: j.id, Task: tid}, nil)
			c.expungeLocked(j, ast.task)
		}
	}
}

// grantAuditsLocked fills up to room lease slots with audit re-leases
// worker is eligible for. Audits are granted before pending work: a
// handful of re-checks catching a liar early is worth more than the
// same slots of fresh work it would poison.
func (c *Coordinator) grantAuditsLocked(j *gridJob, worker string, room int, ttl time.Duration) []LeaseTask {
	if worker == "" || room <= 0 || len(j.audits) == 0 {
		return nil
	}
	now := c.now()
	var out []LeaseTask
	for _, tid := range j.order {
		if len(out) == room {
			break
		}
		ast, ok := j.audits[tid]
		if !ok {
			continue
		}
		switch ast.phase {
		case auditPending:
			// Prefer a different worker than the producer; relax so a
			// sole surviving worker cannot wedge the job.
			if worker == ast.original && now.Before(ast.relaxAt) {
				continue
			}
		case arbPending:
			// The producer may never arbitrate its own dispute (a
			// deterministic liar would confirm itself); the second
			// claimant re-computing is equally useless.
			if worker == ast.original || worker == ast.second {
				continue
			}
		default:
			continue
		}
		c.record(j, walRecord{T: walLease, Job: j.id, Task: tid, Worker: worker}, nil)
		out = append(out, leaseTask(tid, ast.task, ttl))
	}
	return out
}

// equalValues is the audit comparison: bit-exact, NaN-tolerant (a
// domain may legitimately score NaN, and two honest workers produce
// the same NaN payload via the same code path).
func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// auditIngestLocked consumes an upload for an already-done task under
// the audit regime and returns the ack plus work to run after the
// coordinator lock is released (checkpoint invalidations from a
// quarantine). Value-voting:
//
//	upload == recorded            → verified (two workers agree)
//	first mismatch                → escalate to arbitration
//	upload == second claim        → recorded was the lie: fix the
//	                                 record, quarantine its producer
//	third distinct value          → determinism broken: re-run, loudly
func (c *Coordinator) auditIngestLocked(j *gridJob, st *taskState, up ResultUpload) (ResultAck, func()) {
	tid := up.Task
	ast := j.audits[tid]
	vals := []float64(up.Values)
	dup := ResultAck{Accepted: true, Duplicate: true}

	// Uploads that carry no audit information: the producer re-sending
	// its own value, or anything after verification settled.
	if up.Worker == "" || j.verified[tid] || (up.Worker == j.doneBy[tid] && ast == nil) {
		c.metrics.duplicates.Inc()
		c.touchWorkerLocked(up.Worker)
		return dup, nil
	}

	rec := walRecord{T: walVerify, Job: j.id, Task: tid, Worker: up.Worker, ElapsedMS: up.ElapsedMS}
	if equalValues(vals, j.results[tid]) {
		// Agreement with the record verifies it — whether this upload
		// was the assigned auditor, a hedge loser, or a stray retry.
		c.record(j, rec, nil)
		c.verifiedLocked(j, st.task)
		return dup, nil
	}

	// Mismatch against the record.
	c.metrics.auditMismatches.Inc()
	if ast != nil && up.Worker == ast.second {
		// The dissenter repeating itself adds no information.
		c.metrics.duplicates.Inc()
		c.touchWorkerLocked(up.Worker)
		return dup, nil
	}
	dissent := up.Values
	rec.T, rec.Values = walDissent, &dissent
	switch {
	case ast == nil || ast.second == "":
		// First dissent: open (or escalate) to arbitration.
		if ast == nil {
			c.metrics.auditsOpened.Inc()
		}
		c.record(j, rec, nil)
		c.logf("grid: job %s: task %s AUDIT MISMATCH: %q disagrees with recorded value from %q, arbitrating",
			j.id, tid, up.Worker, j.audits[tid].original)
		c.broadcastLocked(j)
		return dup, nil

	case equalValues(vals, ast.secondVals):
		// Two workers agree on a value that contradicts the record:
		// the recorded producer lied. Fix the record (synchronously —
		// quarantine verdicts are rare enough to fsync under the
		// lock), then quarantine.
		liar := ast.original
		if err := journal(j.cp, st.task, vals, time.Duration(up.ElapsedMS)*time.Millisecond); err != nil {
			c.logf("grid: job %s: task %s corrected value failed to journal: %v", j.id, tid, err)
		}
		c.record(j, rec, nil)
		c.verifiedLocked(j, st.task)
		return ResultAck{Accepted: true}, c.quarantineLocked(liar, "audit of task "+tid+" overruled its value")

	default:
		// Three distinct values for one deterministic task: the
		// determinism contract is broken (or two liars collide). Re-run.
		c.logf("grid: job %s: task %s has THREE distinct claimed values (%q, %q, %q) — determinism violation, re-queueing",
			j.id, tid, ast.original, ast.second, up.Worker)
		c.record(j, rec, nil)
		c.expungeLocked(j, st.task)
		c.broadcastLocked(j)
		return dup, nil
	}
}

// verifiedLocked follows a verdict that confirmed a task's record: the
// deferred cache feed happens and completion is re-checked.
func (c *Coordinator) verifiedLocked(j *gridJob, t job.Task) {
	c.metrics.auditsPassed.Inc()
	c.feedCacheLocked(j, t, j.results[t.ID()])
	c.finishIfCompleteLocked(j)
	c.broadcastLocked(j)
}

// expungeLocked appends an invalidated task's tombstone to the
// checkpoint (one synced append — cheap enough for these rare paths to
// run under the lock), so a restart re-runs the task instead of
// resurrecting the dropped value.
func (c *Coordinator) expungeLocked(j *gridJob, t job.Task) {
	c.metrics.invalidated.Inc()
	if j.cp == nil {
		return
	}
	if err := j.cp.Invalidate(t); err != nil {
		c.logf("grid: job %s: task %s invalidation: %v", j.id, t.ID(), err)
	}
}

// quarantineLocked bans a worker and expunges its unaudited work:
// leases revoked, every done-but-unverified task it produced is
// re-queued, its tombstone written in the returned func, which the
// caller runs after releasing the lock. Verified tasks survive — a
// second worker vouched for them.
func (c *Coordinator) quarantineLocked(name, reason string) func() {
	if name == "" || c.quarantined[name] {
		return nil
	}
	type inval struct {
		j  *gridJob
		st *taskState
	}
	var invals []inval
	for _, j := range c.jobs {
		for tid, by := range j.doneBy {
			if by == name && !j.verified[tid] {
				invals = append(invals, inval{j: j, st: j.tasks[tid]})
			}
		}
	}
	r := walRecord{T: walQuarantine, Worker: name}
	c.record(nil, r, nil)
	revoked := 0
	for _, j := range c.jobs {
		before := j.requeues
		c.apply(j, r, nil)
		revoked += j.requeues - before
		c.broadcastLocked(j)
	}
	c.metrics.quarantines.Inc()
	c.metrics.requeues.Add(float64(revoked))
	c.logf("grid: worker %s QUARANTINED: %s", name, reason)
	c.checkDrainedLocked()
	if len(invals) == 0 {
		return nil
	}
	// The re-queued tasks stay claimed until their tombstones are
	// written, so no re-run's fresh record lands before the tombstone
	// that would void it.
	for _, iv := range invals {
		iv.st.recording = true
	}
	return func() {
		for _, iv := range invals {
			if iv.j.cp != nil {
				if err := iv.j.cp.Invalidate(iv.st.task); err != nil {
					c.logf("grid: job %s: task %s invalidation: %v", iv.j.id, iv.st.task.ID(), err)
				}
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		byJob := map[*gridJob]int{}
		for _, iv := range invals {
			iv.st.recording = false
			byJob[iv.j]++
		}
		for j, n := range byJob {
			c.metrics.invalidated.Add(float64(n))
			c.logf("grid: job %s: %d unaudited tasks from %s invalidated and re-queued", j.id, n, name)
			c.broadcastLocked(j)
		}
		c.checkDrainedLocked()
	}
}

// Quarantine bans a worker by operator decision: same mechanics as an
// audit verdict (429'd leases and uploads, unaudited work re-queued).
func (c *Coordinator) Quarantine(name string) {
	c.mu.Lock()
	after := c.quarantineLocked(name, "operator request")
	c.mu.Unlock()
	if after != nil {
		after()
	}
}

// Quarantined lists quarantined workers (for the dashboard and tests).
func (c *Coordinator) Quarantined() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.quarantined))
	for name := range c.quarantined {
		out = append(out, name)
	}
	return out
}
