package job

// The checkpoint's on-disk rules: what a resume over a crashed
// manifest restores, which record of a task wins, what Invalidate
// voids, what a Record costs, and which directories are refused.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/pra"
)

// taskVals is a recognisable value slice for task, offset by base.
func taskVals(task Task, base float64) []float64 {
	out := make([]float64, task.Hi-task.Lo)
	for i := range out {
		out[i] = base + float64(task.Lo+i)
	}
	return out
}

// onlyManifest returns the path of dir's single manifest.
func onlyManifest(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "manifest-*.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("manifest glob: %v %v", matches, err)
	}
	return matches[0]
}

// TestResumeOverTornManifestTail: a crash tears the manifest's last
// line; the resume re-runs that task, and its new record must land on
// a clean line, so the finished directory loads.
func TestResumeOverTornManifestTail(t *testing.T) {
	pts := subset(t)[:2] // chunk 2: one task per measure, 3 tasks
	ctx := context.Background()
	want := mustRun(t, ctx, pts, Options{Chunk: 2})
	dir := t.TempDir()
	mustRun(t, ctx, pts, Options{Dir: dir, Chunk: 2})

	path := onlyManifest(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if resumed := mustRun(t, ctx, pts, Options{Dir: dir, Chunk: 2}); !reflect.DeepEqual(resumed, want) {
		t.Fatal("resume over a torn manifest tail does not match the uninterrupted run")
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Load after the resume does not match the uninterrupted run")
	}
}

// TestCheckpointRecordRules pins the rules the grid relies on: a
// re-Record of a task wins on reopen; Invalidate voids the task, even
// where another writer's manifest also holds it; a Record after
// Invalidate revives it.
func TestCheckpointRecordRules(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	tasks := spec.Tasks()
	a, b := tasks[0], tasks[1]
	reopen := func() map[string][]float64 {
		t.Helper()
		cp, err := OpenCheckpoint(dir, spec)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		return cp.Completed()
	}

	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	other, err := openCheckpoint(dir, spec, "manifest-s0of1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		cp.Record(a, taskVals(a, 1), 0),
		cp.Record(a, taskVals(a, 2), 0),
		other.Record(b, taskVals(b, 1), 0),
		cp.Record(b, taskVals(b, 1), 0),
		cp.Invalidate(b),
		other.Close(),
		cp.Close(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	want := map[string][]float64{a.ID(): taskVals(a, 2)}
	if got := reopen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-Record and Invalidate: %v, want %v", got, want)
	}

	if cp, err = OpenCheckpoint(dir, spec); err != nil {
		t.Fatal(err)
	}
	if err := cp.Record(b, taskVals(b, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	want[b.ID()] = taskVals(b, 3)
	if got := reopen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Record following Invalidate: %v, want %v", got, want)
	}
}

// TestResumeAfterInvalidateCompletes: a task the grid coordinator
// invalidated (a tombstone in manifest-grid.jsonl) and a local -resume
// then re-ran stays done — the resume's record postdates the tombstone
// — so a second resume has nothing left to do and the directory loads.
func TestResumeAfterInvalidateCompletes(t *testing.T) {
	pts := subset(t)[:2]
	ctx := context.Background()
	want := mustRun(t, ctx, pts, Options{Chunk: 2})
	dir := t.TempDir()
	spec := Spec{Domain: pra.Domain(), Points: pts, Cfg: tinyCfg(), Chunk: 2}
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	task := spec.Tasks()[0]
	for _, err := range []error{cp.Record(task, taskVals(task, 7), 0), cp.Invalidate(task), cp.Close()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if got := mustRun(t, ctx, pts, Options{Dir: dir, Chunk: 2}); !reflect.DeepEqual(got, want) {
			t.Fatalf("resume %d does not match the uninterrupted run", i+1)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Load after the resumes does not match the uninterrupted run")
	}
}

// countingWriter counts the durable writes that reach each path.
type countingWriter struct {
	mu     sync.Mutex
	writes map[string]int
}

func (c *countingWriter) wrap(path string, w io.Writer) io.Writer {
	c.mu.Lock()
	c.writes[path]++
	c.mu.Unlock()
	return w
}

// TestRecordIsOneAppend: a Record is one write to the manifest and
// creates no file; the directory holds only spec.json and manifests.
func TestRecordIsOneAppend(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cw := &countingWriter{writes: map[string]int{}}
	restore := SetWriterSeam(cw.wrap)
	for _, task := range spec.Tasks() {
		if err := cp.Record(task, taskVals(task, 0), 0); err != nil {
			restore()
			t.Fatal(err)
		}
	}
	restore()
	manifest := filepath.Join(dir, "manifest-grid.jsonl")
	if want := map[string]int{manifest: len(spec.Tasks())}; !reflect.DeepEqual(cw.writes, want) {
		t.Fatalf("durable writes = %v, want one per Record to the manifest: %v", cw.writes, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"manifest-grid.jsonl", specFileName}; !reflect.DeepEqual(names, want) {
		t.Fatalf("checkpoint dir holds %v, want %v", names, want)
	}
}

// snapshotDir maps every file in dir to its bytes.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// TestLegacyLayoutRejected: a directory written by the per-task-file
// layout — task-*.json result files, or a manifest of unframed lines —
// is refused by every entry point with an error that names it, and is
// left byte for byte as it was.
func TestLegacyLayoutRejected(t *testing.T) {
	spec := faultSpec(t)
	task := spec.Tasks()[0]
	line := `{"task":"` + task.ID() + `","file":"task-` + task.ID() + `.json","elapsed_ms":3}` + "\n"
	result := `{"task":"` + task.ID() + `","measure":"` + task.Measure + `","lo":0,"hi":2,"values":[1,2]}`
	for name, files := range map[string]map[string]string{
		"result files": {"manifest-s0of1.jsonl": line, "task-" + task.ID() + ".json": result},
		"manifest":     {"manifest-s0of1.jsonl": line},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, specFileName), mustJSON(mustSpecJSON(t, spec)), 0o644); err != nil {
				t.Fatal(err)
			}
			for f, body := range files {
				if err := os.WriteFile(filepath.Join(dir, f), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := snapshotDir(t, dir)
			_, loadErr := Load(dir)
			_, openErr := OpenCheckpoint(dir, spec)
			_, runErr := Run(context.Background(), spec.Domain, spec.Points, spec.Cfg, Options{Dir: dir, Chunk: spec.Chunk})
			for _, err := range []error{loadErr, openErr, runErr} {
				if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "per-task-file layout") {
					t.Fatalf("err = %v, want a per-task-file layout error naming %s", err, dir)
				}
			}
			if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("rejected directory was modified:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

func mustSpecJSON(t *testing.T, spec Spec) specJSON {
	t.Helper()
	sj, err := specToJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sj
}

// FuzzReadCheckpoint: whatever bytes a crash or a bad disk leaves in a
// manifest, the read-only load must not panic or rewrite a byte, and
// every task it returns has exactly Hi-Lo values. The writer's open is
// idempotent and leaves the manifest ending on a line boundary.
func FuzzReadCheckpoint(f *testing.F) {
	spec := faultSpec(f)
	tasks := map[string]Task{}
	for _, task := range spec.Tasks() {
		tasks[task.ID()] = task
	}
	seedDir := f.TempDir()
	cp, err := OpenCheckpoint(seedDir, spec)
	if err != nil {
		f.Fatal(err)
	}
	a, b := spec.Tasks()[0], spec.Tasks()[1]
	for _, err := range []error{
		cp.Record(a, taskVals(a, 0), 5),
		cp.Record(b, taskVals(b, 0), 7),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	good, err := os.ReadFile(filepath.Join(seedDir, "manifest-grid.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, err := range []error{cp.Invalidate(a), cp.Record(a, taskVals(a, 9), 1), cp.Close()} {
		if err != nil {
			f.Fatal(err)
		}
	}
	revived, err := os.ReadFile(filepath.Join(seedDir, "manifest-grid.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])                                          // torn tail
	f.Add(bytes.Replace(good, []byte(`"crc":`), []byte(`"crc":1`), 1)) // bad CRC
	f.Add([]byte(`{"task":"` + a.ID() + `","file":"task-` + a.ID() + `.json","elapsed_ms":3}` + "\n"))
	f.Add(revived) // tombstone followed by a re-record

	// One directory for every input, spec.json written once.
	dir := f.TempDir()
	if cp, err = OpenCheckpoint(dir, spec); err != nil {
		f.Fatal(err)
	}
	cp.Close()
	path := filepath.Join(dir, "manifest-grid.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, done, loadErr := loadCheckpoint(dir)
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("read-only load modified the manifest (err %v)", err)
		}
		for id, vals := range done {
			task, ok := tasks[id]
			if !ok || len(vals) != task.Hi-task.Lo {
				t.Fatalf("restored task %q with %d values", id, len(vals))
			}
		}

		open := func() (done map[string][]float64, after []byte, err error) {
			cp, err := OpenCheckpoint(dir, spec)
			if err == nil {
				done = cp.Completed()
				cp.Close()
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			return done, after, err
		}
		done1, after1, err1 := open()
		if (err1 == nil) != (loadErr == nil) {
			t.Fatalf("writer open err %v, read-only load err %v", err1, loadErr)
		}
		if !bytes.HasPrefix(data, after1) || (err1 != nil && len(after1) != len(data)) {
			t.Fatal("writer open rewrote bytes other than a torn tail")
		}
		if err1 == nil && len(after1) > 0 && after1[len(after1)-1] != '\n' {
			t.Fatalf("manifest does not end on a line boundary after open: %q", after1)
		}
		if err1 == nil && fmt.Sprint(done1) != fmt.Sprint(done) { // Sprint: NaN equals NaN
			t.Fatalf("writer open restored %v, read-only load %v", done1, done)
		}
		done2, after2, err2 := open()
		if !bytes.Equal(after1, after2) || (err1 == nil) != (err2 == nil) || fmt.Sprint(done1) != fmt.Sprint(done2) {
			t.Fatal("second writer open is not idempotent")
		}
	})
}
