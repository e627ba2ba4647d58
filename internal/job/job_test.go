package job

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/pra"
)

// tinyCfg is small enough for unit tests while exercising every
// measure of the swarming domain.
func tinyCfg() dsa.Config {
	return dsa.Config{Peers: 10, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}
}

// subset strides over the swarming space: 17 points at stride 200.
func subset(t testing.TB) []core.Point {
	t.Helper()
	all := pra.Domain().Space().Enumerate()
	var pts []core.Point
	for i := 0; i < len(all); i += 200 {
		pts = append(pts, all[i])
	}
	return pts
}

func mustRun(t *testing.T, ctx context.Context, pts []core.Point, opts Options) *dsa.Scores {
	t.Helper()
	s, err := Run(ctx, pra.Domain(), pts, tinyCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTaskEnumeration(t *testing.T) {
	spec := Spec{Domain: pra.Domain(), Points: subset(t), Cfg: tinyCfg(), Chunk: 4}
	tasks := spec.Tasks()
	perMeasure := (len(spec.Points) + 3) / 4
	measures := spec.Domain.Measures()
	if len(tasks) != len(measures)*perMeasure {
		t.Fatalf("tasks = %d, want %d", len(tasks), len(measures)*perMeasure)
	}
	// Each measure's ranges must tile [0, len) exactly, in order.
	next := map[string]int{}
	seen := map[string]bool{}
	for _, task := range tasks {
		if task.Lo != next[task.Measure] {
			t.Fatalf("task %s starts at %d, want %d", task.ID(), task.Lo, next[task.Measure])
		}
		if task.Hi <= task.Lo || task.Hi > len(spec.Points) {
			t.Fatalf("task %s has bad range", task.ID())
		}
		if seen[task.ID()] {
			t.Fatalf("duplicate task ID %s", task.ID())
		}
		seen[task.ID()] = true
		next[task.Measure] = task.Hi
	}
	for _, m := range measures {
		if next[m] != len(spec.Points) {
			t.Fatalf("%s tasks cover %d of %d points", m, next[m], len(spec.Points))
		}
	}
}

func TestChunkInvariance(t *testing.T) {
	pts := subset(t)
	ctx := context.Background()
	a := mustRun(t, ctx, pts, Options{Chunk: 1})
	b := mustRun(t, ctx, pts, Options{Chunk: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("chunk size changed the merged scores")
	}
}

func TestShardedMatchesUnsharded(t *testing.T) {
	pts := subset(t)
	ctx := context.Background()
	want := mustRun(t, ctx, pts, Options{Chunk: 3})

	dir := t.TempDir()
	const shards = 3
	// Shards 0 and 1 finish their share but cannot assemble yet.
	for idx := 0; idx < shards-1; idx++ {
		_, err := Run(ctx, pra.Domain(), pts, tinyCfg(), Options{Dir: dir, Chunk: 3, Shards: shards, ShardIndex: idx})
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("shard %d: err = %v, want ErrIncomplete", idx, err)
		}
	}
	// The last shard finds every other task checkpointed and merges.
	got, err := Run(ctx, pra.Domain(), pts, tinyCfg(), Options{Dir: dir, Chunk: 3, Shards: shards, ShardIndex: shards - 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded run does not match unsharded run")
	}
	// Load assembles the same result without simulating.
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Fatal("Load(dir) does not match unsharded run")
	}
}

// TestLastFinishingShardAssembles pins the documented concurrent-shard
// contract: a shard that finishes after the others picks their
// journalled tasks up from the shared dir and assembles the full
// result, even though they completed only after it had opened the
// checkpoint. Shard 1 runs to completion from inside shard 0's first
// progress callback, i.e. strictly mid-run.
func TestLastFinishingShardAssembles(t *testing.T) {
	pts := subset(t)
	want := mustRun(t, context.Background(), pts, Options{Chunk: 3})

	dir := t.TempDir()
	ranOther := false
	got, err := Run(context.Background(), pra.Domain(), pts, tinyCfg(), Options{
		Dir: dir, Chunk: 3, Shards: 2, ShardIndex: 0, Workers: 1,
		Progress: func(Progress) {
			if ranOther {
				return
			}
			ranOther = true
			_, err := Run(context.Background(), pra.Domain(), pts, tinyCfg(), Options{Dir: dir, Chunk: 3, Shards: 2, ShardIndex: 1})
			if !errors.Is(err, ErrIncomplete) {
				t.Errorf("inner shard: err = %v, want ErrIncomplete", err)
			}
		},
	})
	if err != nil {
		t.Fatalf("outer shard should assemble the full result, got %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("late-assembled sharded run does not match unsharded run")
	}
}

func TestResumeAfterCancelMatchesUninterrupted(t *testing.T) {
	pts := subset(t)
	want := mustRun(t, context.Background(), pts, Options{Chunk: 2})

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := 0
	_, err := Run(ctx, pra.Domain(), pts, tinyCfg(), Options{
		Dir: dir, Chunk: 2, Workers: 1,
		Progress: func(p Progress) {
			interrupted = p.FreshTasks
			if p.FreshTasks >= 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if interrupted == 0 {
		t.Fatal("nothing was checkpointed before the cancel")
	}

	var resumed Progress
	got, err := Run(context.Background(), pra.Domain(), pts, tinyCfg(), Options{
		Dir: dir, Chunk: 2,
		Progress: func(p Progress) { resumed = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.FreshTasks >= resumed.TotalTasks {
		t.Fatalf("resume re-ran everything: %d fresh of %d total", resumed.FreshTasks, resumed.TotalTasks)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed run does not match uninterrupted run")
	}
}

func TestPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := 0
	_, err := Run(ctx, pra.Domain(), subset(t), tinyCfg(), Options{Progress: func(p Progress) { fresh = p.FreshTasks }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fresh != 0 {
		t.Fatalf("%d tasks ran under a cancelled context", fresh)
	}
}

func TestSpecMismatchRejected(t *testing.T) {
	pts := subset(t)
	dir := t.TempDir()
	mustRun(t, context.Background(), pts, Options{Dir: dir})

	other := tinyCfg()
	other.Seed = 99
	if _, err := Run(context.Background(), pra.Domain(), pts, other, Options{Dir: dir}); err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("different seed accepted against existing checkpoint (err = %v)", err)
	}
	if _, err := Run(context.Background(), pra.Domain(), pts[:5], tinyCfg(), Options{Dir: dir}); err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("different point set accepted against existing checkpoint (err = %v)", err)
	}
}

func TestTornManifestLineIsReRun(t *testing.T) {
	pts := subset(t)
	dir := t.TempDir()
	want := mustRun(t, context.Background(), pts, Options{Dir: dir})

	// Simulate a crash mid-append: garbage tail on the manifest.
	matches, err := filepath.Glob(filepath.Join(dir, "manifest-*.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("manifest glob: %v %v", matches, err)
	}
	f, err := os.OpenFile(matches[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"task":"robustness-000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("torn manifest line changed the loaded scores")
	}
	// Resuming over the torn journal still assembles the same result.
	resumed := mustRun(t, context.Background(), pts, Options{Dir: dir})
	if !reflect.DeepEqual(resumed, want) {
		t.Fatal("resume over torn manifest does not match")
	}
}
