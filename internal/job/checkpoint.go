package job

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
)

// WriteError is the typed failure of a durable write (a RecordLog
// append — checkpoint manifest or grid WAL — or the atomic spec.json
// write): it names the file and the byte offset of the first unwritten
// byte, so disk-full and short-write conditions are actionable from a
// log line instead of a generic wrap. Unwrap exposes the cause (syscall.ENOSPC,
// io.ErrShortWrite, ...) for errors.Is.
type WriteError struct {
	Path string // file being written
	Off  int64  // offset of the first byte NOT durably written
	Op   string // what was being attempted ("append manifest", "sync wal", ...)
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("job: %s %s at offset %d: %v", e.Op, e.Path, e.Off, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// The writer seam lets the chaos harness (internal/chaos.FileFaults)
// interpose failing writers on every durable write — RecordLog appends
// (checkpoint manifests, the grid coordinator's WAL) and the atomic
// spec.json — without the production code knowing. nil seam = writes
// untouched.
var (
	seamMu sync.RWMutex
	seamFn func(path string, w io.Writer) io.Writer
)

// SetWriterSeam installs fn as the durable-write interposer and
// returns a restore func. Tests install fault schedules here; passing
// nil removes the seam.
func SetWriterSeam(fn func(path string, w io.Writer) io.Writer) (restore func()) {
	seamMu.Lock()
	prev := seamFn
	seamFn = fn
	seamMu.Unlock()
	return func() {
		seamMu.Lock()
		seamFn = prev
		seamMu.Unlock()
	}
}

// wrapWriter routes one durable write for path through the installed
// seam.
func wrapWriter(path string, w io.Writer) io.Writer {
	seamMu.RLock()
	fn := seamFn
	seamMu.RUnlock()
	if fn == nil {
		return w
	}
	return fn(path, w)
}

// Checkpoint layout under one directory:
//
//	spec.json                    — the sweep Spec (domain name, config,
//	                               chunking, measures, point IDs);
//	                               written once, verified on every open
//	                               so a resume can never silently mix
//	                               incompatible results
//	manifest-s<I>of<N>.jsonl     — a RecordLog written by shard I of N,
//	                               one record per completed task with
//	                               its values inline (or a tombstone
//	                               from Invalidate); a resumed or
//	                               re-sharded run opens its own file,
//	                               and loading always merges every
//	                               manifest-*.jsonl present
//
// A crash can lose at most the in-flight tasks: a torn manifest tail is
// skipped by readers and truncated by the manifest's writer when it
// reopens, so the task re-runs and its new record starts on a clean
// line, never mis-merges. Shard processes on different machines use
// separate dirs, and their manifests are simply copied next to one
// spec.json for the merge.

const specFileName = "spec.json"

// specVersion is the checkpoint spec format written by this engine.
// Version 1 was the pre-Domain engine (file-swarming only, tasks keyed
// by pra.ScoreKind); version 2 keys everything by domain name + measure
// strings + point IDs. Old versions are rejected, never mis-merged.
const specVersion = 2

type specJSON struct {
	Version  int        `json:"version"`
	Domain   string     `json:"domain"`
	Config   configJSON `json:"config"`
	Chunk    int        `json:"chunk"`
	Measures []string   `json:"measures"`
	PointIDs []int      `json:"point_ids"`
}

// configJSON is the result-affecting subset of dsa.Config. Workers is
// deliberately absent: it changes speed, never values.
type configJSON struct {
	Peers         int     `json:"peers"`
	Rounds        int     `json:"rounds"`
	PerfRuns      int     `json:"perf_runs"`
	EncounterRuns int     `json:"encounter_runs"`
	Opponents     int     `json:"opponents"`
	Seed          int64   `json:"seed"`
	Churn         float64 `json:"churn"`
}

func specToJSON(s Spec) (specJSON, error) {
	ids := make([]int, len(s.Points))
	for i, p := range s.Points {
		id, err := s.Domain.PointID(p)
		if err != nil {
			return specJSON{}, fmt.Errorf("job: checkpoint spec: %w", err)
		}
		ids[i] = id
	}
	return specJSON{
		Version: specVersion,
		Domain:  s.Domain.Name(),
		Config: configJSON{
			Peers: s.Cfg.Peers, Rounds: s.Cfg.Rounds,
			PerfRuns: s.Cfg.PerfRuns, EncounterRuns: s.Cfg.EncounterRuns,
			Opponents: s.Cfg.Opponents, Seed: s.Cfg.Seed, Churn: s.Cfg.Churn,
		},
		Chunk:    s.chunk(),
		Measures: s.Domain.Measures(),
		PointIDs: ids,
	}, nil
}

// errSpecVersion builds the rejection error for a checkpoint written by
// a different engine generation.
func errSpecVersion(dir string, have int) error {
	if have < specVersion {
		return fmt.Errorf("job: checkpoint %s has spec version %d, this engine writes version %d: "+
			"it was written by an older engine generation (version 1 predates the domain-agnostic sweep API) "+
			"and cannot be resumed or merged — re-run the sweep into a fresh directory, or keep the old binary to finish it", dir, have, specVersion)
	}
	return fmt.Errorf("job: checkpoint %s has spec version %d, this engine only understands version %d: "+
		"it was written by a newer engine — resume or merge it with that engine version", dir, have, specVersion)
}

func specFromJSON(dir string, sj specJSON) (Spec, error) {
	if sj.Version != specVersion {
		return Spec{}, errSpecVersion(dir, sj.Version)
	}
	d, err := dsa.Get(sj.Domain)
	if err != nil {
		return Spec{}, fmt.Errorf("job: checkpoint %s: %w", dir, err)
	}
	if !slices.Equal(sj.Measures, d.Measures()) {
		return Spec{}, fmt.Errorf("job: checkpoint %s measures %v do not match domain %q measures %v",
			dir, sj.Measures, d.Name(), d.Measures())
	}
	points := make([]core.Point, len(sj.PointIDs))
	for i, id := range sj.PointIDs {
		p, err := d.PointByID(id)
		if err != nil {
			return Spec{}, fmt.Errorf("job: checkpoint spec: %w", err)
		}
		points[i] = p
	}
	return Spec{
		Domain: d,
		Points: points,
		Cfg: dsa.Config{
			Peers: sj.Config.Peers, Rounds: sj.Config.Rounds,
			PerfRuns: sj.Config.PerfRuns, EncounterRuns: sj.Config.EncounterRuns,
			Opponents: sj.Config.Opponents, Seed: sj.Config.Seed, Churn: sj.Config.Churn,
		},
		Chunk: sj.Chunk,
	}, nil
}

// EncodeSpec serialises a Spec in the checkpoint spec wire format (the
// bytes of spec.json). The grid coordinator ships this to workers so
// lease execution and checkpoint resume share one spec codec.
func EncodeSpec(s Spec) ([]byte, error) {
	sj, err := specToJSON(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sj)
}

// DecodeSpec parses an EncodeSpec payload back into a Spec. The domain
// is resolved through the dsa registry, so the calling program must
// import the domain's package.
func DecodeSpec(raw []byte) (Spec, error) {
	var sj specJSON
	if err := json.Unmarshal(raw, &sj); err != nil {
		return Spec{}, fmt.Errorf("job: corrupt spec payload: %w", err)
	}
	return specFromJSON("(wire spec)", sj)
}

// taskRecord is one checkpoint manifest record: a finished task with
// its values inline, or (Void) a tombstone that un-records it. Values
// are dsa.JSONFloats so non-finite scores — which a domain may
// legitimately produce and the CSV codec already round-trips —
// checkpoint instead of panicking encoding/json. Voids is the number
// of tombstones for the task its writer had seen when it recorded it:
// the record counts only if no manifest holds more, which orders
// records and tombstones across manifests.
type taskRecord struct {
	Task      string         `json:"task"`
	Measure   string         `json:"measure"`
	Lo        int            `json:"lo"`
	Hi        int            `json:"hi"`
	Values    dsa.JSONFloats `json:"values"`
	ElapsedMS int64          `json:"elapsed_ms"`
	Voids     int            `json:"voids,omitempty"`
	Void      bool           `json:"void,omitempty"`
}

// Checkpoint is one writer's open handle on a checkpoint directory.
// Local runs use it, and so does the grid coordinator, which records
// results computed by remote workers through it: grid runs and local
// runs share one on-disk format — Load, dsa-report and a local -resume
// all work on a directory regardless of which engine filled it.
type Checkpoint struct {
	log       *RecordLog           // this writer's manifest
	completed map[string][]float64 // restored at open
	mu        sync.Mutex
	voids     map[string]int // tombstones seen per task: at open, plus this writer's
}

// openCheckpoint prepares dir for spec: it creates the directory,
// writes or verifies spec.json, restores every completed task from
// existing manifests, and opens the writer's own manifest for
// appending (manifest-s<I>of<N>.jsonl for shard I of N,
// manifest-grid.jsonl for the coordinator). Nothing is written before
// the directory has been checked, so a rejected directory is left
// untouched.
func openCheckpoint(dir string, spec Spec, manifestName string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: checkpoint dir: %w", err)
	}
	want, err := specToJSON(spec)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, specFileName)
	raw, err := os.ReadFile(specPath)
	if err == nil {
		var have specJSON
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("job: corrupt %s: %w", specPath, err)
		}
		switch {
		case have.Version != want.Version:
			return nil, errSpecVersion(dir, have.Version)
		case have.Domain != want.Domain:
			return nil, fmt.Errorf("job: checkpoint %s sweeps domain %q, this run sweeps %q", dir, have.Domain, want.Domain)
		case have.Config != want.Config:
			return nil, fmt.Errorf("job: checkpoint %s was written with a different configuration (have %+v, want %+v)", dir, have.Config, want.Config)
		case have.Chunk != want.Chunk:
			return nil, fmt.Errorf("job: checkpoint %s uses chunk %d, this run wants %d", dir, have.Chunk, want.Chunk)
		case !slices.Equal(have.Measures, want.Measures):
			return nil, fmt.Errorf("job: checkpoint %s covers measures %v, this run computes %v", dir, have.Measures, want.Measures)
		case !slices.Equal(have.PointIDs, want.PointIDs):
			return nil, fmt.Errorf("job: checkpoint %s covers a different point set (%d points, this run sweeps %d)", dir, len(have.PointIDs), len(want.PointIDs))
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("job: checkpoint spec: %w", err)
	}

	completed, voids, err := readCompleted(dir, spec)
	if err != nil {
		return nil, err
	}
	if raw == nil {
		if err := writeFileAtomic(specPath, mustJSON(want)); err != nil {
			return nil, err
		}
	}
	log, _, err := OpenRecordLog(filepath.Join(dir, manifestName), "manifest", nil)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{log: log, completed: completed, voids: voids}, nil
}

// OpenCheckpoint opens (or creates) dir for spec, writing or verifying
// spec.json exactly like a local run would. The coordinator appends to
// its own manifest file (manifest-grid.jsonl), so a directory may mix
// grid-ingested and shard-run results.
func OpenCheckpoint(dir string, spec Spec) (*Checkpoint, error) {
	return openCheckpoint(dir, spec, "manifest-grid.jsonl")
}

// Completed returns the task-ID → values map restored from the
// directory's manifests at open time. The caller takes ownership.
func (c *Checkpoint) Completed() map[string][]float64 { return c.completed }

// Record persists one finished task as one manifest record carrying
// its values, appended and fsynced, so a crash right after Record
// loses nothing. Safe for concurrent use.
func (c *Checkpoint) Record(t Task, values []float64, elapsed time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Append(true, taskRecord{Task: t.ID(), Measure: t.Measure, Lo: t.Lo, Hi: t.Hi,
		Values: values, ElapsedMS: elapsed.Milliseconds(), Voids: c.voids[t.ID()]})
}

// Close closes the manifest. Record must not be called after Close.
func (c *Checkpoint) Close() error { return c.log.Close() }

// Invalidate durably un-records a task: it appends a synced tombstone,
// which voids every record of the task written before the tombstone
// was seen, in any manifest, so every restore skips the task and it
// re-runs. The coordinator's audit layer uses this to expunge results
// produced by a quarantined worker; a crash between Invalidate and the
// in-memory re-queue is safe because the on-disk state already says
// "never completed". A later Record of the task — by this writer, or
// by any writer that opens the directory afterwards, such as a local
// -resume — counts again.
func (c *Checkpoint) Invalidate(t Task) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Counted even if the append fails: a count above the manifests'
	// can only keep a later record of this writer valid, never void one.
	c.voids[t.ID()]++
	return c.log.Append(true, map[string]any{"task": t.ID(), "void": true})
}

// readCompleted merges every manifest in dir into task-ID → values,
// reading without modifying any file, and counts each task's
// tombstones. Within a manifest the last record for a task wins and a
// tombstone voids the records before it; a record also counts only if
// its writer had seen at least as many tombstones for the task as all
// manifests hold (a tombstone it had not seen postdates it); across
// manifests the first in name order wins. Torn or corrupt lines and
// records inconsistent with the spec's task list are skipped — the
// engine just re-runs those tasks — so a crash mid-write can never
// corrupt a resumed sweep. A directory in the per-task-file layout is
// rejected.
func readCompleted(dir string, spec Spec) (completed map[string][]float64, voids map[string]int, err error) {
	valid := make(map[string]Task)
	for _, t := range spec.Tasks() {
		valid[t.ID()] = t
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("job: read checkpoint dir: %w", err)
	}
	errLegacy := fmt.Errorf("job: checkpoint %s was written by the per-task-file layout (task-*.json result files, unframed manifest lines), "+
		"which this engine does not read: re-run the sweep into a fresh directory, or finish it with the engine that started it", dir)
	var manifests []map[string]taskRecord // per manifest: each task's last record
	voids = map[string]int{}
	for _, e := range entries {
		if legacy, _ := filepath.Match("task-*.json", e.Name()); legacy {
			return nil, nil, errLegacy
		}
		if ok, _ := filepath.Match("manifest-*.jsonl", e.Name()); !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, fmt.Errorf("job: read manifest: %w", err)
		}
		if bytes.HasPrefix(data, []byte(`{"task":`)) {
			return nil, nil, errLegacy
		}
		m := map[string]taskRecord{}
		scanRecords(data, func(rec []byte) bool {
			var r taskRecord
			if json.Unmarshal(rec, &r) != nil {
				return false
			}
			t, ok := valid[r.Task]
			switch {
			case !ok:
				return false
			case r.Void:
				delete(m, r.Task)
				voids[r.Task]++
			case r.Lo != t.Lo || r.Hi != t.Hi || r.Measure != t.Measure || len(r.Values) != t.Hi-t.Lo:
				return false
			default:
				m[r.Task] = r
			}
			return true
		})
		manifests = append(manifests, m)
	}
	completed = make(map[string][]float64)
	for _, m := range manifests {
		for id, r := range m {
			if _, have := completed[id]; !have && r.Voids >= voids[id] {
				completed[id] = r.Values
			}
		}
	}
	return completed, voids, nil
}

// loadCheckpoint reads dir without a target spec: the spec (and through
// the registry, the domain) comes from spec.json. Used by Load
// (merge/report without re-running).
func loadCheckpoint(dir string) (Spec, map[string][]float64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, specFileName))
	if err != nil {
		return Spec{}, nil, fmt.Errorf("job: not a checkpoint dir: %w", err)
	}
	var sj specJSON
	if err := json.Unmarshal(raw, &sj); err != nil {
		return Spec{}, nil, fmt.Errorf("job: corrupt %s: %w", specFileName, err)
	}
	spec, err := specFromJSON(dir, sj)
	if err != nil {
		return Spec{}, nil, err
	}
	completed, _, err := readCompleted(dir, spec)
	return spec, completed, err
}

// writeFileAtomic writes spec.json via a uniquely-named temp file in
// the same directory plus rename. The unique name matters: concurrently
// started shard processes race to write an identical spec.json, and a
// shared temp path would let one process rename the file away between
// another's write and rename. The file is fsynced before the rename
// and the directory after it, so the spec survives power loss, not
// just process crash.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("job: write %s: %w", path, err)
	}
	tmp := f.Name()
	n, err := wrapWriter(path, f).Write(data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	op := "write"
	for _, step := range []struct {
		op string
		do func() error
	}{
		{"sync", f.Sync},
		{"close", f.Close},
		{"chmod", func() error { return os.Chmod(tmp, 0o644) }},
		{"rename", func() error { return os.Rename(tmp, path) }},
		{"sync dir of", func() error { return syncDir(filepath.Dir(path)) }},
	} {
		if err != nil {
			break
		}
		op, n, err = step.op, len(data), step.do()
	}
	if err != nil {
		f.Close() // a no-op error if the close step already ran
		os.Remove(tmp)
		return &WriteError{Path: path, Off: int64(n), Op: op, Err: err}
	}
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable. Filesystems that cannot sync directories (some network
// mounts) report EINVAL/ENOTSUP; those fall back silently to
// crash-only (not power-loss) durability — the rename itself is still
// atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("job: marshal: " + err.Error())
	}
	return b
}
