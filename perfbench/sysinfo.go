package main

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// ioCounters is the part of /proc/self/io the storage metrics use.
// syscw counts every write system call, loopback sockets included;
// wchar is the bytes those calls passed.
type ioCounters struct{ syscw, wchar int64 }

func readIO() ioCounters {
	w, _ := procField("/proc/self/io", "syscw:")
	b, _ := procField("/proc/self/io", "wchar:")
	return ioCounters{syscw: w, wchar: b}
}

// procField reads the first integer after key in a /proc file.
func procField(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// dirUsage walks dir and returns its regular files and their bytes; a
// missing dir holds nothing.
func dirUsage(dir string) (files int, bytes int64, err error) {
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes, err
}

// envStamp describes the machine a result was measured on, so results
// are only ever compared with results from the same kind of machine.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	StateFS    string `json:"state_fs"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func stamp(stateDir string, seed int64, workload string, seconds int, trace bool) envStamp {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		StateFS:    fsType(stateDir),
		Seed:       seed,
		Commit:     sourceID("."),
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// fsType names the file system of the mount holding dir, from the
// longest matching mount point in /proc/self/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// sourceID identifies the code under test. The benchmark may run from a
// tree that is not a git checkout, so besides any commit named in
// BENCH_COMMIT it hashes the Go sources and module files under root.
func sourceID(root string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	id := fmt.Sprintf("tree-%x", h.Sum(nil)[:8])
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		id = c + " " + id
	}
	return id
}
