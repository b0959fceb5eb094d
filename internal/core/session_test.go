package core

import (
	"context"
	"errors"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

func TestSessionMatchesBatchReconcile(t *testing.T) {
	g1, g2, seeds := testInstance(51, 400)
	opts := DefaultOptions()

	batch, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess.Run(context.Background(), opts.Iterations)
	got := sess.Result()
	if len(got.Pairs) != len(batch.Pairs) {
		t.Fatalf("session %d pairs, batch %d", len(got.Pairs), len(batch.Pairs))
	}
	for i := range batch.Pairs {
		if got.Pairs[i] != batch.Pairs[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
	if got.Seeds != batch.Seeds || len(got.Phases) != len(batch.Phases) {
		t.Fatalf("metadata differs: seeds %d/%d phases %d/%d",
			got.Seeds, batch.Seeds, len(got.Phases), len(batch.Phases))
	}
}

func TestSessionIncrementalSeedsCatchUp(t *testing.T) {
	// Splitting the seed set into two installments and running between them
	// must reach at least as many links as the one-shot run with all seeds
	// (monotonicity: earlier sweeps only add links, which only add
	// witnesses).
	r := xrand.New(53)
	g1, g2, _ := testInstance(53, 600)
	all := sampling.Seeds(r, graph.IdentityPairs(600), 0.2)
	half := len(all) / 2

	opts := DefaultOptions()
	batch, err := Reconcile(context.Background(), g1, g2, all, opts)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(g1, g2, all[:half], opts)
	if err != nil {
		t.Fatal(err)
	}
	sess.RunUntilStable(context.Background(), 10)
	before := sess.Len()
	// Later seeds may conflict with links the first phase already made (a
	// seed exposes an earlier wrong or alternative match). Production
	// callers decide the policy; here we skip conflicts.
	conflicts := 0
	for _, s := range all[half:] {
		if err := sess.AddSeeds([]graph.Pair{s}); err != nil {
			conflicts++
		}
	}
	t.Logf("%d/%d late seeds conflicted with phase-1 links", conflicts, len(all)-half)
	sess.RunUntilStable(context.Background(), 10)
	if sess.Len() < before {
		t.Fatal("session lost links")
	}
	if sess.Len() < len(batch.Pairs)*90/100 {
		t.Errorf("incremental session found %d links, batch %d", sess.Len(), len(batch.Pairs))
	}
}

func TestSessionAddSeedsDuplicate(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	sess, err := NewSession(g, g, []graph.Pair{{Left: 0, Right: 0}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Exact duplicate is a no-op.
	if err := sess.AddSeeds([]graph.Pair{{Left: 0, Right: 0}}); err != nil {
		t.Fatalf("duplicate seed rejected: %v", err)
	}
	if sess.Len() != 1 {
		t.Fatalf("len = %d", sess.Len())
	}
	// Conflicting seed is an error.
	if err := sess.AddSeeds([]graph.Pair{{Left: 0, Right: 1}}); err == nil {
		t.Fatal("conflicting seed accepted")
	}
	// A conflict stops the batch: the seed before it stays ingested, the
	// seed after it is dropped.
	before := sess.Len()
	if err := sess.AddSeeds([]graph.Pair{{Left: 1, Right: 1}, {Left: 0, Right: 2}, {Left: 2, Right: 2}}); err == nil {
		t.Fatal("batch with a conflicting seed accepted")
	}
	if sess.Len() != before+1 {
		t.Fatalf("len %d -> %d after the stopped batch, want one more", before, sess.Len())
	}
	for _, p := range sess.Result().Pairs {
		if p.Left == 2 || p.Right == 2 {
			t.Fatalf("seed after the conflict was ingested: %v", p)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	g := graph.FromEdges(2, nil)
	if _, err := NewSession(nil, g, nil, DefaultOptions()); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewSession(g, g, nil, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := NewSession(g, g, []graph.Pair{{Left: 5, Right: 0}}, DefaultOptions()); err == nil {
		t.Error("bad seed accepted")
	}
}

// Cancelling mid-run stops at the next bucket boundary; the session keeps
// its partial progress and remains resumable.
func TestSessionRunContextCancellation(t *testing.T) {
	g1, g2, seeds := testInstance(61, 500)
	sess, err := NewSession(g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	sess.SetProgress(func(e PhaseEvent) {
		calls++
		if calls == 2 {
			cancel()
		}
	})
	_, err = sess.Run(ctx, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 2 || len(sess.Result().Phases) != 2 {
		t.Fatalf("run continued past the boundary: %d hook calls, %d phases", calls, len(sess.Result().Phases))
	}

	sess.SetProgress(nil)
	before := sess.Len()
	if _, err := sess.RunUntilStable(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if sess.Len() < before {
		t.Fatal("session lost links across cancellation")
	}
}

// Reconcile returns the partial Result together with the context error
// when cancelled before any bucket runs.
func TestReconcileContextPreCancelled(t *testing.T) {
	g1, g2, seeds := testInstance(63, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Reconcile(ctx, g1, g2, seeds, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Pairs) != res.Seeds || len(res.Phases) != 0 {
		t.Fatalf("partial result: %d pairs, %d seeds, %d phases", len(res.Pairs), res.Seeds, len(res.Phases))
	}
}

func TestSessionRunUntilStableStops(t *testing.T) {
	g1, g2, seeds := testInstance(57, 300)
	sess, err := NewSession(g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess.RunUntilStable(context.Background(), 50)
	n := sess.Len()
	// Once stable, further sweeps find nothing.
	if extra, _ := sess.Run(context.Background(), 2); extra != 0 {
		t.Fatalf("stable session found %d more links", extra)
	}
	if sess.Len() != n {
		t.Fatal("length changed after stability")
	}
}
