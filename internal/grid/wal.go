package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dsa"
	"repro/internal/job"
)

// The coordinator WAL journals every scheduling decision that the
// checkpoint (which only stores completed values) cannot reconstruct:
// lease, hedge and audit grants, expirations, ingest acks (who computed
// what, how fast), priority changes, audit verdicts and dissents, and
// quarantines. Each record is an event for apply, the coordinator's one
// transition function: live traffic journals an event and applies it,
// and a restart replays the journal through the same apply — the
// checkpoint makes results durable, the WAL makes the *scheduler*
// durable.
//
// Format: a job.RecordLog, the CRC-framed JSON-line log the checkpoint
// manifests use too: one line per record, `{"crc":<ieee>,"rec":{...}}`.
// A record with a bad CRC is skipped; an unterminated tail (torn final
// write) is truncated away on open so appends always start on a clean
// line. Records are plain appends with no fsync on the hot path: a
// kill -9 loses nothing that was write()n (the page cache survives
// process death), and verdict-grade records (quarantine, verify,
// dissent) are fsynced so they also survive power loss.
const walFileName = "coordinator.wal"

// walRecord event types.
const (
	walLease      = "lease"      // task, or its open audit, handed to worker
	walExpire     = "expire"     // worker's lease, hedge or audit lease on task expired; no worker: the task's arbitration gave up
	walIngest     = "ingest"     // worker's result for task accepted
	walPriority   = "priority"   // job fair-share weight changed
	walVerify     = "verify"     // task's recorded value audit-confirmed by worker
	walQuarantine = "quarantine" // worker quarantined (job field empty: global)
	walHedge      = "hedge"      // speculative duplicate lease granted to worker
	walDissent    = "dissent"    // worker's audit values disagree with task's record
)

// Events apply takes that never reach the WAL: the checkpoint already
// records each of them durably.
const (
	evRestore    = "restore"    // task done from its checkpoint value at registration
	evAbsorb     = "absorb"     // task done from the score cache
	evInvalidate = "invalidate" // task's value lost from the checkpoint: re-run it
)

type walRecord struct {
	T         string          `json:"t"`
	Job       string          `json:"job,omitempty"`
	Task      string          `json:"task,omitempty"`
	Worker    string          `json:"worker,omitempty"`
	Weight    int             `json:"weight,omitempty"`     // priority records
	ElapsedMS int64           `json:"elapsed_ms,omitempty"` // ingest, verify and dissent records: feeds the latency EWMA
	Values    *dsa.JSONFloats `json:"values,omitempty"`     // dissent records: the dissenting values, for arbitration
}

// record journals one live event and applies it: coordinator-wide
// effects first, then j's (j nil: a coordinator-wide event only). A
// failed append is logged, never failed to the caller: the WAL losing
// a record degrades a future restart, not the current run. Only
// verdict-grade records are synced.
func (c *Coordinator) record(j *gridJob, r walRecord, vals []float64) {
	if c.wal != nil {
		if err := c.wal.Append(r.T == walQuarantine || r.T == walVerify || r.T == walDissent, r); err != nil {
			c.logf("grid: %v", err)
		} else {
			c.metrics.walRecords.Inc()
		}
	}
	c.apply(nil, r, vals)
	if j != nil {
		c.apply(j, r, vals)
	}
}

// apply is the coordinator's one transition function: every change to
// scheduling state — a task's status, holder and hedge; a job's weight,
// grant and requeue counts, producers, verdicts and audits; the
// quarantine set; the worker score rows — is made here, by one event.
// The live path validates and decides, then journals the event and
// applies it (record); a restart replays the journal through this same
// function, so replay cannot drift from live.
//
// With j nil, apply makes the event's coordinator-wide effects (worker
// scores, the quarantine set); NewCoordinator replays those for the
// whole log, in order. With a job, it makes the job's effects, which
// AddJob replays, in order, when the job registers; a worker's leased
// count is job state, since only the job knows which lease an event
// ends. Events are not validated here: the live path validated them
// before journalling. Only clock fields (deadlines, leasedAt,
// startedAt, relaxAt, giveUpAt) read the clock, so a replay re-arms
// them from its own.
// vals carries an ingested, restored or absorbed task's values.
func (c *Coordinator) apply(j *gridJob, r walRecord, vals []float64) {
	if j == nil {
		switch r.T {
		case walLease, walHedge:
			c.touchWorkerLocked(r.Worker)
		case walExpire:
			c.workerFailedLocked(r.Worker)
		case walIngest, walVerify, walDissent:
			c.workerDoneLocked(r.Worker, time.Duration(r.ElapsedMS)*time.Millisecond)
		case walQuarantine:
			c.quarantined[r.Worker] = true
		}
		return
	}

	now := c.now()
	deadline := now.Add(c.opts.leaseTTL())
	hold := func(w string) {
		if ws := c.workers[w]; ws != nil {
			ws.leased++
		}
	}
	release := func(w string) {
		if ws := c.workers[w]; ws != nil && ws.leased > 0 {
			ws.leased--
		}
	}
	// dropPrimary ends st's primary lease: a live hedge inherits the
	// task (it never re-queues), otherwise it goes back to pending.
	dropPrimary := func(st *taskState) {
		release(st.worker)
		j.requeues++
		if st.hedgeWorker != "" {
			st.worker, st.deadline = st.hedgeWorker, st.hedgeDeadline
			st.hedgeWorker, st.hedgeDeadline = "", time.Time{}
			j.leasesGranted++
			return
		}
		st.status, st.worker = taskPending, ""
	}
	dropHedge := func(st *taskState) {
		release(st.hedgeWorker)
		st.hedgeWorker, st.hedgeDeadline = "", time.Time{}
	}
	// requeueAudit returns a leased audit to its queue.
	requeueAudit := func(ast *auditState) {
		release(ast.auditor)
		ast.auditor, ast.relaxAt = "", deadline
		if ast.phase == auditLeased {
			ast.phase = auditPending
		} else {
			ast.phase = arbPending
		}
	}
	dropAudit := func(tid string) {
		if ast := j.audits[tid]; ast != nil && ast.leased() {
			release(ast.auditor)
		}
		delete(j.audits, tid)
	}
	// complete marks st done with vals; any lease on it dissolves.
	complete := func(st *taskState, tid string, vals []float64) {
		release(st.worker)
		dropHedge(st)
		st.status, st.worker = taskDone, ""
		j.results[tid] = vals
		j.done++
	}
	invalidate := func(tid string) {
		if st := j.tasks[tid]; st != nil && st.status == taskDone {
			st.status = taskPending
			j.done--
			delete(j.results, tid)
			delete(j.doneBy, tid)
			delete(j.verified, tid)
			dropAudit(tid)
			j.tainted[tid] = true
			j.scores, j.scoresErr = nil, nil
		}
	}
	verify := func(tid string) {
		j.verified[tid] = true
		dropAudit(tid)
		delete(j.tainted, tid)
	}
	openAudit := func(st *taskState, tid, original string) {
		if c.auditEnabled() && auditSelected(j.id, tid, c.opts.AuditRate) {
			j.audits[tid] = &auditState{task: st.task, original: original, relaxAt: deadline}
		}
	}

	st, ast := j.tasks[r.Task], j.audits[r.Task]
	if st == nil && r.T != walPriority && r.T != walQuarantine {
		return
	}
	switch r.T {
	case walPriority:
		if r.Weight >= 1 {
			j.weight = r.Weight
		}
	case walLease:
		switch {
		case st.status == taskPending:
			st.status, st.worker = taskLeased, r.Worker
			st.leasedAt, st.deadline = now, deadline
		case ast != nil && (ast.phase == auditPending || ast.phase == arbPending):
			ast.auditor, ast.deadline = r.Worker, deadline
			if ast.phase == auditPending {
				ast.phase = auditLeased
			} else {
				ast.phase = arbLeased
			}
		default:
			// Journals from before promotion moved into expire follow a
			// promoting expire with a lease record: already applied.
			return
		}
		j.leasesGranted++
		hold(r.Worker)
		if j.startedAt.IsZero() {
			j.startedAt = now
		}
	case walHedge:
		if st.status == taskLeased {
			st.hedgeWorker, st.hedgeDeadline = r.Worker, deadline
			hold(r.Worker)
		}
	case walExpire:
		switch {
		case st.status == taskLeased && st.worker == r.Worker:
			dropPrimary(st)
		case st.status == taskLeased && r.Worker != "" && st.hedgeWorker == r.Worker:
			dropHedge(st)
		case ast == nil:
		case r.Worker == "" && ast.phase == arbPending:
			invalidate(r.Task) // an unresolvable split: discard both claims
		case ast.leased() && ast.auditor == r.Worker:
			requeueAudit(ast)
		}
	case walIngest:
		if st.status != taskDone {
			complete(st, r.Task, vals)
			j.doneBy[r.Task] = r.Worker
			if r.Worker != "" {
				openAudit(st, r.Task, r.Worker)
			}
			if j.audits[r.Task] == nil {
				delete(j.tainted, r.Task)
			}
		}
	case evRestore, evAbsorb:
		if st.status != taskDone {
			complete(st, r.Task, vals)
			if r.T == evRestore {
				openAudit(st, r.Task, "")
			}
		}
	case evInvalidate:
		invalidate(r.Task)
	case walVerify:
		if st.status == taskDone {
			verify(r.Task)
		}
	case walDissent:
		if st.status != taskDone || r.Values == nil {
			return
		}
		vals = *r.Values
		switch {
		case ast == nil || ast.second == "":
			// First dissent: arbitration waits for a tiebreaker.
			if ast == nil {
				ast = &auditState{task: st.task, original: j.doneBy[r.Task]}
				j.audits[r.Task] = ast
			} else if ast.leased() {
				release(ast.auditor)
			}
			ast.phase, ast.auditor = arbPending, ""
			ast.second, ast.secondVals = r.Worker, vals
			ast.relaxAt, ast.giveUpAt = deadline, now.Add(4*c.opts.leaseTTL())
		case equalValues(vals, ast.secondVals):
			// Two workers agree against the record: the record was the lie.
			j.results[r.Task] = vals
			j.doneBy[r.Task] = ast.second
			verify(r.Task)
		default:
			invalidate(r.Task) // three distinct values: determinism is broken
		}
	case walQuarantine:
		// Revoke the worker's leases, hedges and audit leases, void the
		// disputes it raised, and re-queue its unverified results.
		for _, tid := range j.order {
			st := j.tasks[tid]
			if st.status == taskLeased && st.worker == r.Worker {
				dropPrimary(st)
			}
			if st.hedgeWorker == r.Worker {
				dropHedge(st)
			}
			if ast := j.audits[tid]; ast != nil {
				if ast.leased() && ast.auditor == r.Worker {
					requeueAudit(ast)
				}
				if ast.second == r.Worker {
					if ast.phase == arbLeased {
						release(ast.auditor)
					}
					if ast.phase == arbPending || ast.phase == arbLeased {
						ast.phase, ast.auditor = auditPending, ""
					}
					ast.second, ast.secondVals, ast.giveUpAt = "", nil, time.Time{}
				}
			}
			if j.doneBy[tid] == r.Worker && !j.verified[tid] {
				invalidate(tid)
			}
		}
	}
}

// openWAL opens (creating if absent) dir's WAL, replays every intact
// record, truncates any torn tail, and returns the log positioned for
// appending. skipped counts complete-but-corrupt lines left in place
// (their CRC failed; appends after them are safe). Appends of
// walRecords go straight to the log's Append; a failure surfaces as
// job.WriteError ("append wal", "sync wal").
func openWAL(dir string) (w *job.RecordLog, recs []walRecord, skipped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("grid: wal dir: %w", err)
	}
	w, skipped, err = job.OpenRecordLog(filepath.Join(dir, walFileName), "wal", func(raw []byte) bool {
		var rec walRecord
		if json.Unmarshal(raw, &rec) != nil {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return w, recs, skipped, nil
}
