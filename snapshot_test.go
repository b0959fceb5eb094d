package reconcile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile"
)

func snapshotInstance(t testing.TB) (*reconcile.Graph, *reconcile.Graph, []reconcile.Pair) {
	t.Helper()
	r := reconcile.NewRand(301)
	g := reconcile.GeneratePA(r, 600, 6)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.7, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(600), 0.15)
	return g1, g2, seeds
}

// TestSnapshotRestoreMidRun is the public-API face of the crash-safety
// guarantee: kill a run at a bucket boundary, snapshot, restore in a "new
// process" (nothing shared but the bytes), Resume — and get bit-identical
// output to the run that never stopped.
func TestSnapshotRestoreMidRun(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)

	ref, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.NewPairs) == 0 {
		t.Fatal("reference run found nothing; instance too weak")
	}

	for _, stop := range []int{1, 3, len(want.Phases) - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		rec, err := reconcile.New(g1, g2,
			reconcile.WithSeeds(seeds),
			reconcile.WithProgress(func(reconcile.PhaseEvent) {
				events++
				if events == stop {
					cancel()
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("stop=%d: err = %v, want context.Canceled", stop, err)
		}
		cancel()

		var buf bytes.Buffer
		if err := rec.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := reconcile.Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Resume(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("stop=%d: restored run diverged: %d pairs / %d phases, want %d / %d",
				stop, len(got.Pairs), len(got.Phases), len(want.Pairs), len(want.Phases))
		}
		// Resume on a finished schedule is a no-op.
		again, err := restored.Resume(context.Background())
		if err != nil || !reflect.DeepEqual(want, again) {
			t.Fatalf("stop=%d: second Resume changed the result (err=%v)", stop, err)
		}
	}
}

// TestSnapshotStateSplitFiles exercises the store-shaped API: graphs
// persisted once with WriteGraphBinary, state checkpointed separately, the
// pair restored with RestoreState.
func TestSnapshotStateSplitFiles(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := rec.Result()

	var gb1, gb2, sb bytes.Buffer
	if err := reconcile.WriteGraphBinary(&gb1, g1); err != nil {
		t.Fatal(err)
	}
	if err := reconcile.WriteGraphBinary(&gb2, g2); err != nil {
		t.Fatal(err)
	}
	if err := rec.SnapshotState(&sb); err != nil {
		t.Fatal(err)
	}

	rg1, err := reconcile.ReadGraphBinary(bytes.NewReader(gb1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rg2, err := reconcile.ReadGraphBinary(bytes.NewReader(gb2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := reconcile.RestoreState(rg1, rg2, bytes.NewReader(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, restored.Result()) {
		t.Fatal("state-only restore lost results")
	}
	if restored.Sweeps() != rec.Sweeps() {
		t.Fatalf("sweeps = %d, want %d", restored.Sweeps(), rec.Sweeps())
	}

	// A shape mismatch is refused up front (content fidelity beyond shape is
	// the store's to guarantee — see RestoreState's contract).
	small := reconcile.FromEdges(3, nil)
	if _, err := reconcile.RestoreState(small, rg2, bytes.NewReader(sb.Bytes())); err == nil {
		t.Fatal("graph of the wrong shape accepted")
	}
}

// TestRestoreOptionRules pins which options a restore accepts: execution
// knobs yes, matching semantics no.
func TestRestoreOptionRules(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	// Converge before snapshotting, so post-restore sweeps find nothing new
	// on any engine and the counts below are comparable.
	want, err := rec.RunUntilStable(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Engine switches resume bit-identically (here: after convergence, more
	// sweeps find nothing either way). Restoring as hybrid from this
	// converged hybrid snapshot keeps its regime; the fixed engines clear
	// it, and the frontier rebuilds its state from the matching.
	for _, engine := range []reconcile.Engine{reconcile.EngineSequential, reconcile.EngineParallel, reconcile.EngineFrontier, reconcile.EngineHybrid} {
		r2, err := reconcile.Restore(bytes.NewReader(snap),
			reconcile.WithEngine(engine), reconcile.WithWorkers(2), reconcile.WithIterations(3))
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if got := r2.Options().Engine; got != engine {
			t.Fatalf("engine = %v, want %v", got, engine)
		}
		res, err := r2.RunUntilStable(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != len(want.Pairs) {
			t.Fatalf("engine %v: %d pairs after restore, want %d", engine, len(res.Pairs), len(want.Pairs))
		}
	}

	// Progress hooks re-attach.
	events := 0
	r2, err := reconcile.Restore(bytes.NewReader(snap),
		reconcile.WithProgress(func(reconcile.PhaseEvent) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("progress hook not re-attached")
	}

	// New seeds ingest exactly like AddSeeds.
	free := -1
	usedL := map[reconcile.NodeID]bool{}
	usedR := map[reconcile.NodeID]bool{}
	for _, p := range want.Pairs {
		usedL[p.Left] = true
		usedR[p.Right] = true
	}
	for i := 0; i < g1.NumNodes() && i < g2.NumNodes(); i++ {
		if !usedL[reconcile.NodeID(i)] && !usedR[reconcile.NodeID(i)] {
			free = i
			break
		}
	}
	if free >= 0 {
		r3, err := reconcile.Restore(bytes.NewReader(snap),
			reconcile.WithSeeds([]reconcile.Pair{{Left: reconcile.NodeID(free), Right: reconcile.NodeID(free)}}))
		if err != nil {
			t.Fatal(err)
		}
		if r3.Len() != len(want.Pairs)+1 {
			t.Fatalf("restore-time seed not ingested: %d links", r3.Len())
		}
	}

	// Matching semantics are locked.
	for name, opt := range map[string]reconcile.Option{
		"threshold": reconcile.WithThreshold(3),
		"scoring":   reconcile.WithScoring(reconcile.ScoreAdamicAdar),
		"ties":      reconcile.WithTieBreak(reconcile.TieLowestID),
		"margin":    reconcile.WithMargin(1),
		"bucketing": reconcile.WithBucketing(false),
		"minexp":    reconcile.WithMinBucketExp(0),
		"maxdeg":    reconcile.WithMaxDegree(7),
	} {
		if _, err := reconcile.Restore(bytes.NewReader(snap), opt); err == nil {
			t.Errorf("restore accepted a %s change", name)
		}
	}
}

// TestRecordedCheckpointOverhead pins the measured cost of the durability
// machinery against BENCH_snapshot.json: the wiring this PR added to the
// session hot path (schedule-position tracking) must cost
// BenchmarkReconcileFrontierIncremental less than 5% versus the PR 2
// baseline recorded in BENCH_engines.json, and the recorded numbers are the
// proof. Re-record both files on the same hardware when re-measuring.
func TestRecordedCheckpointOverhead(t *testing.T) {
	raw, err := os.ReadFile("BENCH_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		MachineryOverhead struct {
			BaselineNsPerOp int     `json:"baseline_ns_per_op"`
			WithSubsystemNs int     `json:"with_subsystem_ns_per_op"`
			OverheadPct     float64 `json:"overhead_pct"`
		} `json:"machinery_overhead"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	m := doc.MachineryOverhead
	if m.BaselineNsPerOp <= 0 || m.WithSubsystemNs <= 0 {
		t.Fatal("BENCH_snapshot.json missing machinery_overhead measurements")
	}
	pct := (float64(m.WithSubsystemNs)/float64(m.BaselineNsPerOp) - 1) * 100
	if pct >= 5.0 {
		t.Fatalf("recorded checkpoint machinery overhead %.2f%% (baseline %d ns, now %d ns) exceeds the 5%% budget",
			pct, m.BaselineNsPerOp, m.WithSubsystemNs)
	}
	if diff := pct - m.OverheadPct; diff > 0.01 || diff < -0.01 {
		t.Fatalf("recorded overhead_pct %.2f disagrees with the recorded measurements (%.2f)", m.OverheadPct, pct)
	}
}
