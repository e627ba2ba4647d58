package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
)

// corruptingDomain adds 1 to one measure's score of one point, the kind
// of silent wrong answer the output check exists to catch.
type corruptingDomain struct {
	dsa.Domain
	measure string
	pointID int
}

func (d corruptingDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	vals, err := d.Domain.ScoreSlice(measure, pts, opponents, cfg)
	if err != nil || measure != d.measure {
		return vals, err
	}
	for i, p := range pts {
		if id, _ := d.Domain.PointID(p); id == d.pointID {
			vals[i]++
		}
	}
	return vals, nil
}

// smallSweep is a local in-memory workload small enough for a unit test:
// a jittered stride of the gossip space with tiny simulations.
func smallSweep(t *testing.T, seed int64) *localWorkload {
	t.Helper()
	d, err := dsa.Get("gossip")
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dsa.ApplyOverrides(base, seed, 4, 8, 20, 1, 1)
	return &localWorkload{domain: d, cfg: cfg, block: 12, seed: seed,
		chunk: 1, workers: 2, root: t.TempDir()}
}

func TestOutputCheckCatchesOneCorruptedValue(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		w := smallSweep(t, seed)
		ctx := context.Background()
		if err := w.prepare(ctx); err != nil {
			t.Fatal(err)
		}
		honest, err := w.pass(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if honest.failed != 0 || honest.attempted == 0 {
			t.Fatalf("seed %d: honest pass failed %d of %d", seed, honest.failed, honest.attempted)
		}

		pts := w.points()
		victim, err := w.domain.PointID(pts[len(pts)/2])
		if err != nil {
			t.Fatal(err)
		}
		w.domain = corruptingDomain{Domain: w.domain, measure: w.domain.Measures()[1], pointID: victim}
		bad, err := w.pass(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The pass's own output fails whole; the restarts read the
		// honest checkpoint and pass.
		if bad.failed != bad.scores {
			t.Fatalf("seed %d: corrupted pass failed %d scores, want all %d of its output", seed, bad.failed, bad.scores)
		}
	}
}
