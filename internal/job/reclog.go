package job

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// RecordLog is the one durable record log under the checkpoint
// manifests and the grid coordinator's WAL: an append-only file of
// JSON lines, each `{"crc":<ieee>,"rec":{...}}` with the CRC32 taken
// over the raw rec bytes.
//
// A crash mid-append leaves an unterminated tail. The file's own writer
// truncates it on open (OpenRecordLog), so appends always start on a
// clean line; readers that do not own the file (scanRecords: other
// shard processes' manifests, Load) skip it and never modify the file.
// A complete line with a bad CRC, or one whose payload the caller
// rejects, is skipped and counted. There is no line-length cap.
type RecordLog struct {
	path string
	name string // names the WriteError ops: "append <name>", "sync <name>"
	mu   sync.Mutex
	f    *os.File
	off  int64 // end of the last whole appended line
}

// OpenRecordLog opens (creating if absent) the log at path as its only
// writer, named name in errors ("manifest", "wal"). Every intact
// record's payload goes to each (nil: skip decoding), which reports
// whether it decoded; skipped counts complete lines that did not. The
// torn tail is truncated away. Creating the file fsyncs its directory,
// so the log's directory entry is as durable as its first synced
// append.
func OpenRecordLog(path, name string, each func(rec []byte) bool) (l *RecordLog, skipped int, err error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("job: open %s: %w", name, err)
	}
	fail := func(what string, err error) (*RecordLog, int, error) {
		f.Close()
		return nil, 0, fmt.Errorf("job: %s %s %s: %w", what, name, path, err)
	}
	if os.IsNotExist(statErr) {
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fail("sync dir of", err)
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail("read", err)
	}
	if each != nil {
		skipped = scanRecords(data, each)
	}
	end := int64(bytes.LastIndexByte(data, '\n') + 1)
	if end < int64(len(data)) {
		if err := f.Truncate(end); err != nil {
			return fail("truncate torn tail of", err)
		}
	}
	return &RecordLog{path: path, name: name, f: f, off: end}, skipped, nil
}

// scanRecords is the read-only scan: it hands the payload of every
// complete line with a good CRC to each. An unterminated last line is
// a torn tail and is ignored.
func scanRecords(data []byte, each func(rec []byte) bool) (skipped int) {
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line := data[off : off+nl]
		off += nl + 1
		var fr struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}
		if json.Unmarshal(line, &fr) != nil || crc32.ChecksumIEEE(fr.Rec) != fr.CRC || !each(fr.Rec) {
			skipped++
		}
	}
	return skipped
}

// Append writes recs as framed lines in one write; sync also fsyncs.
// The write goes through the writer seam. A failed write surfaces
// as a *WriteError ("append <name>") with the offset of the first
// unwritten byte, and its torn bytes are trimmed so the next append
// starts on a clean line; a failed fsync is "sync <name>".
func (l *RecordLog) Append(sync bool, recs ...any) error {
	var buf []byte
	for _, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("job: encode %s record: %w", l.name, err)
		}
		buf = append(buf, `{"crc":`...)
		buf = strconv.AppendUint(buf, uint64(crc32.ChecksumIEEE(raw)), 10)
		buf = append(buf, `,"rec":`...)
		buf = append(buf, raw...)
		buf = append(buf, "}\n"...)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := wrapWriter(l.path, l.f).Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// O_APPEND: the next write lands at the new end. If the trim
		// fails, the torn bytes stay and glue onto the next record;
		// readers skip that line, so its task re-runs as after a crash.
		_ = l.f.Truncate(l.off)
		return &WriteError{Path: l.path, Off: l.off + int64(n), Op: "append " + l.name, Err: err}
	}
	l.off += int64(n)
	if sync {
		if err := l.f.Sync(); err != nil {
			return &WriteError{Path: l.path, Off: l.off, Op: "sync " + l.name, Err: err}
		}
	}
	return nil
}

// Close closes the log. Append must not be called after Close.
func (l *RecordLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
