package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/xrand"
)

// User-Matching depends only on graph structure, so it must be equivariant
// under node relabeling: permuting G2's node IDs (and the seeds' right
// endpoints accordingly) must permute the output pairs the same way.
// This is the formal statement of "the matcher can't cheat by reading IDs"
// — except for the documented TieLowestID policy, which is ID-dependent by
// design, so the test runs under TieReject.
func TestReconcileEquivariantUnderRelabeling(t *testing.T) {
	r := xrand.New(31)
	g1, g2, seeds := testInstance(31, 400)
	n2 := g2.NumNodes()

	permInts := r.Perm(n2)
	perm := make([]graph.NodeID, n2)
	for i, p := range permInts {
		perm[i] = graph.NodeID(p)
	}
	g2p := graph.Relabel(g2, perm)
	seedsP := make([]graph.Pair, len(seeds))
	for i, s := range seeds {
		seedsP[i] = graph.Pair{Left: s.Left, Right: perm[s.Right]}
	}

	opts := DefaultOptions()
	base, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := Reconcile(context.Background(), g1, g2p, seedsP, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Pairs) != len(permuted.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(base.Pairs), len(permuted.Pairs))
	}
	want := make(map[graph.Pair]bool, len(base.Pairs))
	for _, p := range base.Pairs {
		want[graph.Pair{Left: p.Left, Right: perm[p.Right]}] = true
	}
	for _, p := range permuted.Pairs {
		if !want[p] {
			t.Fatalf("pair %v not the image of a base pair", p)
		}
	}
}

// TestFrontierEquivariantUnderRelabeling is the node-relabeling metamorphic
// property for the frontier engine: permuting BOTH sides' node IDs (and the
// seeds accordingly) must permute the output pairs the same way. The frontier
// caches proposals by node ID and drains its worklists in insertion order, so
// this pins that none of that bookkeeping leaks IDs into the matching
// semantics. Run under TieReject (TieLowestID is ID-dependent by design).
func TestFrontierEquivariantUnderRelabeling(t *testing.T) {
	for _, seed := range []uint64{31, 77} {
		r := xrand.New(seed ^ 0xfeed)
		g1, g2, seeds := testInstance(seed, 350)
		n1, n2 := g1.NumNodes(), g2.NumNodes()

		perm1 := make([]graph.NodeID, n1)
		for i, p := range r.Perm(n1) {
			perm1[i] = graph.NodeID(p)
		}
		perm2 := make([]graph.NodeID, n2)
		for i, p := range r.Perm(n2) {
			perm2[i] = graph.NodeID(p)
		}
		g1p := graph.Relabel(g1, perm1)
		g2p := graph.Relabel(g2, perm2)
		seedsP := make([]graph.Pair, len(seeds))
		for i, s := range seeds {
			seedsP[i] = graph.Pair{Left: perm1[s.Left], Right: perm2[s.Right]}
		}

		opts := DefaultOptions()
		opts.Engine = EngineFrontier
		base, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		permuted, err := Reconcile(context.Background(), g1p, g2p, seedsP, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Pairs) != len(permuted.Pairs) {
			t.Fatalf("seed %d: pair counts differ: %d vs %d", seed, len(base.Pairs), len(permuted.Pairs))
		}
		want := make(map[graph.Pair]bool, len(base.Pairs))
		for _, p := range base.Pairs {
			want[graph.Pair{Left: perm1[p.Left], Right: perm2[p.Right]}] = true
		}
		for _, p := range permuted.Pairs {
			if !want[p] {
				t.Fatalf("seed %d: pair %v not the image of a base pair", seed, p)
			}
		}
		// And the relabeled run itself must still be bit-identical to the
		// sequential engine on the relabeled instance.
		opts.Engine = EngineSequential
		seqP, err := Reconcile(context.Background(), g1p, g2p, seedsP, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(seqP, permuted) {
			t.Fatalf("seed %d: frontier diverges from sequential on relabeled instance", seed)
		}
	}
}

func TestMatchingAdd(t *testing.T) {
	m, err := NewMatching(3, 3, []graph.Pair{{Left: 0, Right: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(graph.Pair{Left: 1, Right: 2}); err != nil {
		t.Fatal(err)
	}
	if m.LeftMatch(1) != 2 || m.RightMatch(2) != 1 {
		t.Fatal("Add did not link")
	}
	if err := m.Add(graph.Pair{Left: 1, Right: 1}); err == nil {
		t.Error("re-adding matched left accepted")
	}
	if err := m.Add(graph.Pair{Left: 0, Right: 1}); err == nil {
		t.Error("re-adding matched left (seed) accepted")
	}
	if err := m.Add(graph.Pair{Left: 2, Right: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(graph.Pair{Left: 5, Right: 0}); err == nil {
		t.Error("out-of-range left accepted")
	}
	if err := m.Add(graph.Pair{Left: 0, Right: 5}); err == nil {
		t.Error("out-of-range right accepted")
	}
	if m.Len() != 3 || m.SeedCount() != 1 {
		t.Fatalf("len=%d seeds=%d", m.Len(), m.SeedCount())
	}
	if got := m.NewPairs(); len(got) != 2 {
		t.Fatalf("new pairs = %v", got)
	}
	if err := m.validateInjective(); err != nil {
		t.Fatal(err)
	}
}
