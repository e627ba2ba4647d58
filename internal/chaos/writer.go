package chaos

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"syscall"
)

// FileFaults injects write failures into the job writer seam
// (job.SetWriterSeam), which every job.RecordLog append (checkpoint
// manifests, the grid WAL) and the atomic spec.json write go through.
// Two fault kinds model the ways durable appends really fail:
//
//	short — the write persists only half its bytes and reports
//	        io.ErrShortWrite (a torn append);
//	fail  — the write persists nothing and reports ENOSPC (disk full).
//
// Decisions come from a seeded stream like Transport's, so a failing
// write sequence is reproducible. Match restricts faults to paths
// containing the substring (e.g. "wal" or "manifest"); writes to other
// paths pass through untouched and draw no decision, keeping the
// stream stable across unrelated file traffic.
type FileFaults struct {
	Short float64 // P(short write + io.ErrShortWrite)
	Fail  float64 // P(nothing written + ENOSPC)
	Match string  // substring a path must contain to be eligible

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFileFaults builds a seeded write-fault schedule.
func NewFileFaults(seed uint64, short, fail float64, match string) *FileFaults {
	return &FileFaults{
		Short: short, Fail: fail, Match: match,
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Wrap implements the job.SetWriterSeam signature.
func (f *FileFaults) Wrap(path string, w io.Writer) io.Writer {
	if f.Match != "" && !strings.Contains(path, f.Match) {
		return w
	}
	return &faultWriter{faults: f, path: path, w: w}
}

type faultWriter struct {
	faults *FileFaults
	path   string
	w      io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	f := fw.faults
	f.mu.Lock()
	short := f.rng.Float64() < f.Short
	fail := f.rng.Float64() < f.Fail
	f.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("%w: %s: %w", ErrInjected, fw.path, syscall.ENOSPC)
	}
	if short && len(p) > 1 {
		n, err := fw.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: %s: %w", ErrInjected, fw.path, io.ErrShortWrite)
	}
	return fw.w.Write(p)
}
