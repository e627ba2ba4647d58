package grid

// Replay equals live: every change to the coordinator's scheduling
// state goes through apply, and a restart replays the WAL through the
// same apply. These tests restart a coordinator over (a copy of) a
// live coordinator's directory — no Close, exactly what a kill -9
// leaves — and require the restarted scheduling state to equal the
// live one, clock fields aside. They also pin the lease accounting the
// dashboard's "Leased" column reads: the sum of workers' leased counts
// is always the number of live primary, hedge and audit leases.

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dsa"
	"repro/internal/job"
)

// schedState is the coordinator's scheduling state minus clock fields
// (deadlines, leasedAt, lastSeen, firstSeen, relaxAt, giveUpAt).
// Worker rows whose counters are all zero carry no scheduling
// information — a heartbeat or an empty lease creates one, and neither
// is journalled — so they are left out.
type schedState struct {
	Quarantined []string
	Workers     map[string]workerRow
	Jobs        map[string]jobRow
}

type workerRow struct {
	Leased            int
	Done, Failures    uint64
	LatEWMA, FailEWMA float64
}

type jobRow struct {
	Weight, LeasesGranted, Requeues, Done int
	Tasks                                 map[string]taskRow
	DoneBy                                map[string]string
	Verified                              map[string]bool
	Audits                                map[string]auditRow
}

type taskRow struct {
	Status        taskStatus
	Worker, Hedge string
}

type auditRow struct {
	Original, Auditor, Second string
	Phase                     auditPhase
	SecondVals                []float64
}

func snapshotSched(c *Coordinator) schedState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := schedState{Workers: map[string]workerRow{}, Jobs: map[string]jobRow{}}
	for name := range c.quarantined {
		s.Quarantined = append(s.Quarantined, name)
	}
	sort.Strings(s.Quarantined)
	for name, ws := range c.workers {
		row := workerRow{Leased: ws.leased, Done: ws.done, Failures: ws.failures, LatEWMA: ws.latEWMA, FailEWMA: ws.failEWMA}
		if row != (workerRow{}) {
			s.Workers[name] = row
		}
	}
	for id, j := range c.jobs {
		jr := jobRow{
			Weight: j.weight, LeasesGranted: j.leasesGranted, Requeues: j.requeues, Done: j.done,
			Tasks: map[string]taskRow{}, DoneBy: map[string]string{}, Verified: map[string]bool{},
			Audits: map[string]auditRow{},
		}
		for tid, st := range j.tasks {
			jr.Tasks[tid] = taskRow{Status: st.status, Worker: st.worker, Hedge: st.hedgeWorker}
		}
		for tid, by := range j.doneBy {
			jr.DoneBy[tid] = by
		}
		for tid, v := range j.verified {
			jr.Verified[tid] = v
		}
		for tid, ast := range j.audits {
			jr.Audits[tid] = auditRow{Original: ast.original, Auditor: ast.auditor, Second: ast.second,
				Phase: ast.phase, SecondVals: ast.secondVals}
		}
		s.Jobs[id] = jr
	}
	return s
}

// checkSchedInvariants asserts what must hold after every operation:
// no done task keeps a holder, the leased counts add up to the live
// leases, quarantined workers hold nothing, and counters stay in range.
func checkSchedInvariants(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	holds := map[string]int{}
	hold := func(w string) {
		if w != "" {
			live++
			holds[w]++
		}
	}
	for id, j := range c.jobs {
		done := 0
		for tid, st := range j.tasks {
			switch st.status {
			case taskDone:
				done++
				if st.worker != "" || st.hedgeWorker != "" {
					t.Fatalf("job %s task %s is done but still leased to %q (hedge %q)", id, tid, st.worker, st.hedgeWorker)
				}
			case taskLeased:
				hold(st.worker)
				hold(st.hedgeWorker)
			case taskPending:
				if st.worker != "" || st.hedgeWorker != "" {
					t.Fatalf("job %s task %s is pending but held by %q (hedge %q)", id, tid, st.worker, st.hedgeWorker)
				}
			}
		}
		for tid, ast := range j.audits {
			if j.tasks[tid].status != taskDone {
				t.Fatalf("job %s task %s has an open audit but is not done", id, tid)
			}
			if ast.leased() {
				hold(ast.auditor)
			} else if ast.auditor != "" {
				t.Fatalf("job %s task %s: audit in phase %d names auditor %q", id, tid, ast.phase, ast.auditor)
			}
		}
		if done != j.done || j.done < 0 || j.done > len(j.order) {
			t.Fatalf("job %s: done counter %d, %d tasks done of %d", id, j.done, done, len(j.order))
		}
		if j.requeues < 0 || j.leasesGranted < 0 || j.weight < 1 || len(j.doneBy) > j.done {
			t.Fatalf("job %s counters out of range: requeues %d, granted %d, weight %d, %d producers for %d done",
				id, j.requeues, j.leasesGranted, j.weight, len(j.doneBy), j.done)
		}
		for tid := range j.verified {
			if j.tasks[tid].status != taskDone {
				t.Fatalf("job %s task %s verified but not done", id, tid)
			}
		}
	}
	sum := 0
	for name, ws := range c.workers {
		sum += ws.leased
		if ws.leased != holds[name] {
			t.Fatalf("worker %s: leased = %d, holds %d live leases", name, ws.leased, holds[name])
		}
		if ws.failEWMA < 0 || ws.failEWMA > 1 || ws.latEWMA < 0 {
			t.Fatalf("worker %s EWMAs out of range: fail %v latency %v", name, ws.failEWMA, ws.latEWMA)
		}
	}
	if sum != live {
		t.Fatalf("sum of leased = %d, live primary+hedge+audit leases = %d", sum, live)
	}
	for name := range c.quarantined {
		if holds[name] > 0 {
			t.Fatalf("quarantined worker %s still holds %d leases", name, holds[name])
		}
	}
}

// copyDir copies a coordinator directory as a crash leaves it.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// restartOver starts a second coordinator over dir (without closing
// the first), on the given clock, and re-registers specs in order.
func restartOver(t *testing.T, dir string, opts CoordinatorOptions, now time.Time, specs ...job.Spec) *Coordinator {
	t.Helper()
	opts.Dir = dir
	c := NewCoordinator(opts)
	c.now = func() time.Time { return now }
	for _, spec := range specs {
		if _, err := c.AddJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// leaseOne leases exactly one task to worker.
func leaseOne(t *testing.T, c *Coordinator, id, worker string) LeaseTask {
	t.Helper()
	resp, err := c.Lease(context.Background(), id, worker, 1)
	if err != nil || len(resp.Tasks) != 1 {
		t.Fatalf("lease %s: %+v, err %v; want one task", worker, resp, err)
	}
	return resp.Tasks[0]
}

func requireReplayEqualsLive(t *testing.T, live, replayed *Coordinator) {
	t.Helper()
	want, got := snapshotSched(live), snapshotSched(replayed)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed scheduling state differs from live:\nlive:     %s\nreplayed: %s", mustJSON(t, want), mustJSON(t, got))
	}
}

// TestWorkerLeasedCountNoLeak: a worker's leased count drops exactly
// when one of its leases ends — whoever's upload ends it.
func TestWorkerLeasedCountNoLeak(t *testing.T) {
	ctx := context.Background()
	t.Run("late upload after re-lease", func(t *testing.T) {
		coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
		now := time.Unix(1000, 0)
		coord.now = func() time.Time { return now }
		id, err := coord.AddJob(auditSpec(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		lt := leaseOne(t, coord, id, "A")
		now = now.Add(time.Minute + time.Second)
		leaseOne(t, coord, id, "B") // A's lease expires, B re-leases
		mustIngest(t, coord, id, "A", lt, honestVals(lt))
		checkSchedInvariants(t, coord)
		if got := coord.workers["B"].leased; got != 0 {
			t.Fatalf("B.leased = %d after A's late upload completed the task, want 0", got)
		}
	})
	t.Run("audit settled by another worker", func(t *testing.T) {
		coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, AuditRate: 1})
		now := time.Unix(1000, 0)
		coord.now = func() time.Time { return now }
		id, err := coord.AddJob(auditSpec(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		lt := leaseOne(t, coord, id, "producer")
		mustIngest(t, coord, id, "producer", lt, honestVals(lt))
		leaseOne(t, coord, id, "auditor")
		mustIngest(t, coord, id, "stray", lt, honestVals(lt)) // verifies it first
		checkSchedInvariants(t, coord)
		if got := coord.workers["auditor"].leased; got != 0 {
			t.Fatalf("auditor.leased = %d after another worker settled its audit, want 0", got)
		}
	})
	t.Run("quarantine revokes", func(t *testing.T) {
		coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
		id, err := coord.AddJob(auditSpec(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Lease(ctx, id, "bad", 2); err != nil {
			t.Fatal(err)
		}
		coord.Quarantine("bad")
		checkSchedInvariants(t, coord)
		if got := coord.workers["bad"].leased; got != 0 {
			t.Fatalf("quarantined worker's leased = %d after its leases were revoked, want 0", got)
		}
	})
}

// TestReplayEqualsLiveAfterVerdicts pins the two verdict paths whose
// replay used to drift: a quarantine that revokes a lease (requeue
// count) and an audit dissent (the dissenter's score row and the
// arbitration phase).
func TestReplayEqualsLiveAfterVerdicts(t *testing.T) {
	t.Run("quarantine revocation", func(t *testing.T) {
		dir := t.TempDir()
		opts := CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute}
		spec := auditSpec(t, 2)
		coord := NewCoordinator(opts)
		id, err := coord.AddJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		leaseOne(t, coord, id, "bad")
		coord.Quarantine("bad")
		if got := mustProgress(t, coord, id).Requeues; got != 1 {
			t.Fatalf("live requeues = %d, want 1", got)
		}
		restarted := restartOver(t, dir, opts, coord.now(), spec)
		defer restarted.Close()
		requireReplayEqualsLive(t, coord, restarted)
		if got := mustProgress(t, restarted, id).Requeues; got != 1 {
			t.Fatalf("replayed requeues = %d, want 1", got)
		}
	})
	t.Run("audit dissent", func(t *testing.T) {
		dir := t.TempDir()
		opts := CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, AuditRate: 1}
		spec := auditSpec(t, 1)
		coord := NewCoordinator(opts)
		now := time.Unix(1000, 0)
		coord.now = func() time.Time { return now }
		id, err := coord.AddJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		lt := leaseOne(t, coord, id, "producer")
		mustIngest(t, coord, id, "producer", lt, honestVals(lt))
		leaseOne(t, coord, id, "dissenter")
		mustIngest(t, coord, id, "dissenter", lt, lyingVals(lt))

		restarted := restartOver(t, dir, opts, now, spec)
		defer restarted.Close()
		requireReplayEqualsLive(t, coord, restarted)
		for name, c := range map[string]*Coordinator{"live": coord, "replayed": restarted} {
			ws := c.workers["dissenter"]
			if ws == nil || ws.done != 1 || ws.leased != 0 {
				t.Fatalf("%s dissenter row = %+v, want done 1, leased 0", name, ws)
			}
			if ast := c.jobs[id].audits[lt.Task]; ast == nil || ast.phase != arbPending {
				t.Fatalf("%s arbitration = %+v, want phase arbPending", name, ast)
			}
		}
	})
}

// TestReplayEqualsLiveAfterOverrule: an arbitration that overrules the
// record corrects it, re-attributes it and quarantines the liar — the
// same on replay, with the liar's other unaudited task re-queued.
func TestReplayEqualsLiveAfterOverrule(t *testing.T) {
	dir := t.TempDir()
	opts := CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, AuditRate: 1}
	spec := auditSpec(t, 2)
	coord := NewCoordinator(opts)
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, coord, id, "liar", 2)
	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "liar", lt, lyingVals(lt))
	}
	lt := leaseOne(t, coord, id, "good1")
	mustIngest(t, coord, id, "good1", lt, honestVals(lt))
	if got := leaseOne(t, coord, id, "good2"); got.Task != lt.Task {
		t.Fatalf("good2 leased %s, want the disputed %s", got.Task, lt.Task)
	}
	mustIngest(t, coord, id, "good2", lt, honestVals(lt))
	if snap := mustProgress(t, coord, id); snap.Done != 1 || snap.Pending != 1 {
		t.Fatalf("after the overrule: %+v, want the corrected task done and the liar's other task re-queued", snap)
	}
	checkSchedInvariants(t, coord)

	restarted := restartOver(t, dir, opts, now, spec)
	defer restarted.Close()
	requireReplayEqualsLive(t, coord, restarted)
	if by := restarted.jobs[id].doneBy[lt.Task]; by != "good1" {
		t.Fatalf("replayed producer of %s = %q, want good1", lt.Task, by)
	}
}

// TestOverruleLeavesCorrectedCheckpoint: after an audit overrule the
// job's checkpoint holds only the corrected task, with the honest
// values; the liar's other, unaudited task is expunged on disk.
func TestOverruleLeavesCorrectedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := auditSpec(t, 2)
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, AuditRate: 1})
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, coord, id, "liar", 2)
	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "liar", lt, lyingVals(lt))
	}
	lt := leaseOne(t, coord, id, "good1")
	mustIngest(t, coord, id, "good1", lt, honestVals(lt))
	if got := leaseOne(t, coord, id, "good2"); got.Task != lt.Task {
		t.Fatalf("good2 leased %s, want the disputed %s", got.Task, lt.Task)
	}
	mustIngest(t, coord, id, "good2", lt, honestVals(lt))
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	cp, err := job.OpenCheckpoint(filepath.Join(dir, id), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	done := cp.Completed()
	if len(done) != 1 || !reflect.DeepEqual(done[lt.Task], honestVals(lt)) {
		t.Fatalf("checkpoint after the overrule = %v, want only %s with %v", done, lt.Task, honestVals(lt))
	}
}

// TestCoordinatorReplayMatchesLive is the model check: seeded random
// public-API traffic — leases, heartbeats, honest, lying, late and
// duplicate uploads, clock jumps past the TTL, quarantines and
// re-weights — against two jobs with auditing and hedging on. After
// every operation the invariants must hold, and a coordinator
// restarted over a copy of the directory must hold the same
// scheduling state.
func TestCoordinatorReplayMatchesLive(t *testing.T) {
	const seeds, ops = 5, 80
	workers := []string{"w0", "w1", "w2", "liar"}
	specs := []job.Spec{auditSpec(t, 12), auditSpec(t, 8)}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		dir := t.TempDir()
		opts := CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, MaxLease: 3, AuditRate: 0.5, Hedge: true}
		coord := NewCoordinator(opts)
		now := time.Unix(1000, 0)
		coord.now = func() time.Time { return now }
		var ids []string
		for _, spec := range specs {
			id, err := coord.AddJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		type grant struct {
			job string
			lt  LeaseTask
		}
		granted := map[string][]grant{} // every grant each worker ever got
		ctx := context.Background()
		for op := 0; op < ops; op++ {
			w := workers[rng.IntN(len(workers))]
			id := ids[rng.IntN(len(ids))]
			var what string
			switch k := rng.IntN(20); {
			case k < 4:
				what = "lease"
				if resp, err := coord.Lease(ctx, id, w, 1+rng.IntN(3)); err == nil {
					for _, lt := range resp.Tasks {
						granted[w] = append(granted[w], grant{id, lt})
					}
				}
			case k < 7:
				what = "lease-any"
				if resp, err := coord.LeaseAny(ctx, w, 1+rng.IntN(3)); err == nil {
					for _, lt := range resp.Tasks {
						granted[w] = append(granted[w], grant{resp.Job, lt})
					}
				}
			case k < 15 && len(granted[w]) > 0:
				// Mostly one of the worker's latest grants; sometimes any
				// it ever got — an expired one (late) or one already
				// uploaded (duplicate).
				what = "ingest"
				n := len(granted[w])
				g := granted[w][n-1-rng.IntN(min(n, 2))]
				if rng.IntN(5) == 0 {
					g = granted[w][rng.IntN(n)]
				}
				vals := honestVals(g.lt)
				if w == "liar" {
					vals = lyingVals(g.lt)
				}
				coord.Ingest(ctx, g.job, ResultUpload{Worker: w, Task: g.lt.Task, Values: vals, ElapsedMS: int64(1 + rng.IntN(50))})
			case k < 17:
				what = "heartbeat"
				var tasks []string
				for _, g := range granted[w] {
					if g.job == id {
						tasks = append(tasks, g.lt.Task)
					}
				}
				coord.Heartbeat(ctx, id, HeartbeatRequest{Worker: w, Tasks: tasks})
			case k < 18:
				what = "clock"
				step := time.Duration(10+rng.IntN(30)) * time.Second // past the hedge bar, in a few steps
				if rng.IntN(4) == 0 {
					step = opts.LeaseTTL + time.Second // past every TTL
				}
				now = now.Add(step)
			default:
				if rng.IntN(6) == 0 {
					what = "quarantine"
					coord.Quarantine(w)
				} else {
					what = "priority"
					if _, err := coord.AddJobPriority(specs[rng.IntN(len(specs))], 1+rng.IntN(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			t.Logf("seed %d op %d: %s %s %s", seed, op, what, w, id)
			checkSchedInvariants(t, coord)
			crash := filepath.Join(t.TempDir(), "crash")
			copyDir(t, dir, crash)
			restarted := restartOver(t, crash, opts, now, specs...)
			requireReplayEqualsLive(t, coord, restarted)
			checkSchedInvariants(t, restarted)
			restarted.Close()
		}
		coord.mu.Lock()
		_, recs, _, err := openWAL(dir)
		coord.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		events := map[string]int{}
		for _, r := range recs {
			events[r.T]++
		}
		t.Logf("seed %d journalled %v", seed, events)
		coord.Close()
	}
}

// FuzzOpenWAL: whatever bytes a crash or a bad disk leaves in the WAL,
// openWAL must not panic, must leave the file ending on a line
// boundary, and must be idempotent — a second open returns the same
// records and truncates nothing.
func FuzzOpenWAL(f *testing.F) {
	dir := f.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	dissent := dsa.JSONFloats{1, 2.5}
	for _, r := range []walRecord{
		{T: walIngest, Job: "j", Task: "t", Worker: "w", ElapsedMS: 4},
		{T: walDissent, Job: "j", Task: "t", Worker: "v", Values: &dissent},
	} {
		if err := w.Append(false, r); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	good, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])                                                           // torn tail
	f.Add(bytes.Replace(good, []byte(`"crc":`), []byte(`"crc":1`), 1))                  // bad CRC
	f.Add(append(append([]byte{}, good...), "not json at all\n{\"crc\":\n\x00\xff"...)) // non-JSON
	f.Add([]byte{})

	// One directory for every input: a fuzz worker runs its inputs one
	// at a time, and the target stays cheap enough to minimize.
	dir = f.TempDir()
	path := filepath.Join(dir, walFileName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, skipped, err := openWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) > 0 && after[len(after)-1] != '\n' {
			t.Fatalf("WAL does not end on a line boundary after open: %q", after)
		}
		if !bytes.HasPrefix(data, after) {
			t.Fatal("openWAL rewrote bytes other than a torn tail")
		}
		w2, recs2, skipped2, err := openWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, again) {
			t.Fatalf("second open truncated %d bytes", len(after)-len(again))
		}
		if skipped2 != skipped || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("second open: %d records (%d skipped), first: %d (%d skipped)", len(recs2), skipped2, len(recs), skipped)
		}
		for _, r := range recs {
			if _, err := json.Marshal(r); err != nil {
				t.Fatalf("replayed record %+v does not re-encode: %v", r, err)
			}
		}
	})
}
