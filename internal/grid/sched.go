package grid

import (
	"math"
	"sort"
	"time"
)

// This file is the coordinator's scheduling brain: fair-share lease
// scheduling across concurrent jobs (weighted by per-job priority) and
// per-worker scoring (EWMA of task latency and failure rate) that
// shapes how much work a lease call hands out.
//
// Fairness model. Workers pull; the coordinator cannot push work to
// anyone. What it can choose is *which job* a pulling worker serves
// next. PickJob grants from the eligible job with the lowest
// granted-tasks-per-weight ratio, so over any window the granted task
// counts converge to the priority-weight ratios — a deficit round
// robin in units of tasks, not lease calls, which keeps the shares
// fair even when grant sizes differ per worker.
//
// Worker scoring. debswarm ranks download peers by latency, throughput
// and reliability before routing requests at them; the grid applies
// the same ranking to its own fleet. Each worker accumulates an EWMA
// of per-task wall time (from result uploads) and an EWMA failure rate
// (lease expiries count against it, completed tasks count for it). A
// worker whose failure EWMA is high gets its lease batches cut down to
// as little as one task — a crash-looping or flaky machine keeps
// participating but can only strand one task per TTL — and a worker
// much slower than the fleet gets smaller batches so the tail of a job
// is not hostage to it. Healthy workers are untouched: the cap shapes
// allocation toward fast, reliable workers without starving anyone.

// Scoring constants.
const (
	// ewmaAlpha is the weight of the newest observation in both the
	// latency and failure EWMAs.
	ewmaAlpha = 0.3
	// slowFactor is how many times slower than the fleet-mean task
	// latency a worker must be before its grants are halved.
	slowFactor = 2.0
	// livenessTTLs is how many lease TTLs of silence make a worker
	// count as gone in the liveness gauge and the dashboard.
	livenessTTLs = 3
)

// workerStats is the coordinator's per-worker scorecard, updated on
// every lease, ingest and expiry under the coordinator lock.
type workerStats struct {
	name      string
	firstSeen time.Time
	lastSeen  time.Time
	leased    int     // tasks currently on lease to this worker
	done      uint64  // tasks successfully ingested
	failures  uint64  // leases lost to expiry
	latEWMA   float64 // seconds per task, EWMA over uploads
	failEWMA  float64 // 0..1, EWMA of expiry-vs-completion outcomes
}

// touchWorkerLocked returns (creating if needed) the stats row for a
// worker and stamps it live. Anonymous workers are not tracked.
func (c *Coordinator) touchWorkerLocked(name string) *workerStats {
	if name == "" {
		return nil
	}
	ws, ok := c.workers[name]
	if !ok {
		now := c.now()
		ws = &workerStats{name: name, firstSeen: now}
		c.workers[name] = ws
	}
	ws.lastSeen = c.now()
	return ws
}

// workerDoneLocked scores one successful task: latency joins the EWMA,
// the failure EWMA decays toward zero.
func (c *Coordinator) workerDoneLocked(name string, elapsed time.Duration) {
	ws := c.touchWorkerLocked(name)
	if ws == nil {
		return
	}
	ws.done++
	ws.failEWMA *= 1 - ewmaAlpha
	if elapsed > 0 {
		obs := elapsed.Seconds()
		if ws.latEWMA == 0 {
			ws.latEWMA = obs
		} else {
			ws.latEWMA = (1-ewmaAlpha)*ws.latEWMA + ewmaAlpha*obs
		}
	}
}

// workerFailedLocked scores one expired lease against its holder. It
// does not stamp lastSeen — the whole point is that the worker went
// silent.
func (c *Coordinator) workerFailedLocked(name string) {
	if name == "" {
		return
	}
	ws, ok := c.workers[name]
	if !ok {
		return
	}
	ws.failures++
	ws.failEWMA = (1-ewmaAlpha)*ws.failEWMA + ewmaAlpha
}

// grantCapLocked is the routing decision: how many tasks this worker's
// lease call may carry, given its track record. A worker with no
// history gets the full requested batch.
func (c *Coordinator) grantCapLocked(name string, max int) int {
	ws, ok := c.workers[name]
	if !ok || ws.done+ws.failures == 0 {
		return max
	}
	grant := int(math.Ceil(float64(max) * (1 - ws.failEWMA)))
	if grant < 1 {
		grant = 1
	}
	// Latency shaping needs a fleet to compare against.
	if mean, n := c.fleetLatencyLocked(); n > 1 && ws.latEWMA > 0 && ws.latEWMA > slowFactor*mean && grant > 1 {
		grant = (grant + 1) / 2
	}
	return grant
}

// fleetLatencyLocked is the mean task-latency EWMA (seconds) over the
// n workers that have completed anything.
func (c *Coordinator) fleetLatencyLocked() (mean float64, n int) {
	for _, ws := range c.workers {
		if ws.done > 0 && ws.latEWMA > 0 {
			mean += ws.latEWMA
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, n
}

// liveWorkersLocked counts workers heard from within livenessTTLs
// lease TTLs.
func (c *Coordinator) liveWorkersLocked() int {
	cutoff := c.now().Add(-livenessTTLs * c.opts.leaseTTL())
	n := 0
	for _, ws := range c.workers {
		if ws.lastSeen.After(cutoff) {
			n++
		}
	}
	return n
}

// pickJobLocked chooses which job a pulling worker serves next: among
// eligible jobs (pending tasks after lazy expiry, open audits, or —
// with hedging on — a straggling lease worth racing), the one with the
// lowest granted-per-weight ratio; ties break by job ID so the
// schedule is deterministic. Returns nil when nothing is eligible.
func (c *Coordinator) pickJobLocked() *gridJob {
	var best *gridJob
	var bestShare float64
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := c.now()
	for _, id := range ids {
		j := c.jobs[id]
		c.expireLocked(j)
		if !j.hasPendingLocked() && len(j.audits) == 0 && !c.hedgeableLocked(j, now) {
			continue
		}
		share := float64(j.leasesGranted) / float64(j.weight)
		if best == nil || share < bestShare {
			best, bestShare = j, share
		}
	}
	return best
}

// --- Hedged leases ---

// hedgeThresholdLocked is the straggler bar: a lease older than
// slowFactor x the fleet-mean task-latency EWMA is worth racing,
// floored at half the lease TTL so a fleet of fast workers does not
// hedge everything the moment it goes idle.
func (c *Coordinator) hedgeThresholdLocked() time.Duration {
	floor := c.opts.leaseTTL() / 2
	mean, _ := c.fleetLatencyLocked()
	th := time.Duration(slowFactor * mean * float64(time.Second))
	if th < floor {
		return floor
	}
	return th
}

// hedgeableLocked reports whether j holds a straggling lease with no
// hedge yet — job eligibility for the fair scheduler.
func (c *Coordinator) hedgeableLocked(j *gridJob, now time.Time) bool {
	if !c.opts.Hedge {
		return false
	}
	th := c.hedgeThresholdLocked()
	for _, st := range j.tasks {
		if st.status == taskLeased && st.hedgeWorker == "" &&
			!st.leasedAt.IsZero() && now.Sub(st.leasedAt) >= th {
			return true
		}
	}
	return false
}

// grantHedgesLocked fills up to room lease slots with speculative
// duplicates of straggling leases. The hedge is an ordinary-looking
// lease to its holder; first idempotent ingest wins, the loser's
// upload is absorbed as a duplicate (or as audit evidence). Hedges are
// deliberately excluded from the fair-share deficit — they are
// insurance the scheduler buys, not demand the job generated.
func (c *Coordinator) grantHedgesLocked(j *gridJob, worker string, room int, ttl time.Duration) []LeaseTask {
	if worker == "" || room <= 0 {
		return nil
	}
	now := c.now()
	th := c.hedgeThresholdLocked()
	var out []LeaseTask
	for _, tid := range j.order {
		if len(out) == room {
			break
		}
		st := j.tasks[tid]
		if st.status != taskLeased || st.worker == worker || st.hedgeWorker != "" ||
			st.leasedAt.IsZero() || now.Sub(st.leasedAt) < th {
			continue
		}
		c.record(j, walRecord{T: walHedge, Job: j.id, Task: tid, Worker: worker}, nil)
		out = append(out, leaseTask(tid, st.task, ttl))
		c.metrics.leaseHedged.Inc()
	}
	return out
}

func (j *gridJob) hasPendingLocked() bool {
	if j.done == len(j.order) {
		return false
	}
	for _, st := range j.tasks {
		if st.status == taskPending {
			return true
		}
	}
	return false
}
