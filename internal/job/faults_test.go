package job

// Checkpoint writes fail like real disks fail: full (ENOSPC, nothing
// persisted) or torn (short write). These tests pin the contract that
// every such failure surfaces as a typed *WriteError carrying the
// path, offset and operation — and that a failed Record never poisons
// the checkpoint: the task simply re-runs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pra"
)

// faultSpec is a four-point sweep, chunked so the first few tasks are
// cheap to Record by hand.
func faultSpec(t testing.TB) Spec {
	t.Helper()
	return Spec{Domain: pra.Domain(), Points: subset(t)[:4], Cfg: tinyCfg(), Chunk: 2}
}

// TestCheckpointManifestDiskFullTyped: ENOSPC on the manifest append
// comes back as *WriteError{Op: "append manifest"} with the manifest
// path and durable offset, the root cause unwrappable — and the
// checkpoint keeps working once space returns.
func TestCheckpointManifestDiskFullTyped(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	tasks := spec.Tasks()
	vals := func(task Task) []float64 {
		out := make([]float64, task.Hi-task.Lo)
		for i := range out {
			out[i] = float64(task.Lo + i)
		}
		return out
	}
	if err := cp.Record(tasks[0], vals(tasks[0]), 0); err != nil {
		t.Fatal(err)
	}

	faults := chaos.NewFileFaults(1, 0, 1.0, "manifest-grid") // every manifest write: ENOSPC
	restore := SetWriterSeam(faults.Wrap)
	err = cp.Record(tasks[1], vals(tasks[1]), 0)
	restore()
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Record under disk-full: err = %v, want *WriteError", err)
	}
	manifestPath := filepath.Join(dir, "manifest-grid.jsonl")
	if werr.Path != manifestPath || werr.Op != "append manifest" || werr.Off <= 0 {
		t.Fatalf("WriteError = %+v, want manifest path, op \"append manifest\", positive offset", werr)
	}
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ENOSPC via chaos.ErrInjected", err)
	}

	// The disk "recovers": the same task records cleanly, and a fresh
	// open sees both tasks exactly once.
	if err := cp.Record(tasks[1], vals(tasks[1]), 0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	done := cp2.Completed()
	if len(done) != 2 || done[tasks[0].ID()] == nil || done[tasks[1].ID()] == nil {
		t.Fatalf("completed after recovery = %v, want exactly tasks %s and %s", done, tasks[0].ID(), tasks[1].ID())
	}
}

// TestCheckpointManifestShortWriteTyped: a torn manifest append is a
// typed io.ErrShortWrite whose offset points past the persisted half,
// and the torn bytes are trimmed so the manifest stays line-clean.
func TestCheckpointManifestShortWriteTyped(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	tasks := spec.Tasks()

	faults := chaos.NewFileFaults(2, 1.0, 0, "manifest-grid") // every manifest write: torn
	restore := SetWriterSeam(faults.Wrap)
	err = cp.Record(tasks[0], []float64{1, 2}, 0)
	restore()
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Record under short write: err = %v, want *WriteError", err)
	}
	if werr.Op != "append manifest" || werr.Off <= 0 {
		t.Fatalf("WriteError = %+v, want op \"append manifest\" with the torn offset", werr)
	}
	if !errors.Is(err, io.ErrShortWrite) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want io.ErrShortWrite via chaos.ErrInjected", err)
	}

	// Truncate-back left a line-clean manifest: the retry lands whole,
	// and the file holds exactly one complete JSON line.
	if err := cp.Record(tasks[0], []float64{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest-grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 1 || !json.Valid(lines[0]) {
		t.Fatalf("manifest after torn write + retry:\n%s\nwant exactly one clean line", raw)
	}
	cp2, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if done := cp2.Completed(); len(done) != 1 || done[tasks[0].ID()] == nil {
		t.Fatalf("completed = %v, want exactly %s", done, tasks[0].ID())
	}
}
