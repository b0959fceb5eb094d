package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
)

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []Options{
		{Threshold: 0, Iterations: 1},
		{Threshold: 1, Iterations: 0},
		{Threshold: 1, Iterations: 1, MinBucketExp: -1},
		{Threshold: 1, Iterations: 1, MaxDegree: -2},
		{Threshold: 1, Iterations: 1, Workers: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, o)
		}
	}
}

func TestBuckets(t *testing.T) {
	g := graph.FromEdges(10, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6}, {U: 0, V: 7}, {U: 0, V: 8}, {U: 0, V: 9},
	}) // max degree 9
	o := DefaultOptions()
	got := o.BucketSchedule(g, g)
	want := []int{8, 4, 2} // j = 3, 2, 1
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}

	o.MinBucketExp = 0
	got = o.BucketSchedule(g, g)
	if got[len(got)-1] != 1 {
		t.Fatalf("MinBucketExp=0 buckets = %v, want final 1", got)
	}

	o.DisableBucketing = true
	got = o.BucketSchedule(g, g)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("unbucketed = %v, want [1]", got)
	}

	o = DefaultOptions()
	o.MaxDegree = 100
	got = o.BucketSchedule(g, g)
	if got[0] != 64 {
		t.Fatalf("MaxDegree=100 first bucket = %d, want 64", got[0])
	}

	// Degenerate: empty graphs.
	e := graph.FromEdges(0, nil)
	got = DefaultOptions().BucketSchedule(e, e)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("empty-graph buckets = %v, want [2]", got)
	}
}

func TestNewMatchingValidation(t *testing.T) {
	if _, err := NewMatching(3, 3, []graph.Pair{{Left: 5, Right: 0}}); err == nil {
		t.Error("out-of-range left seed accepted")
	}
	if _, err := NewMatching(3, 3, []graph.Pair{{Left: 0, Right: 5}}); err == nil {
		t.Error("out-of-range right seed accepted")
	}
	if _, err := NewMatching(3, 3, []graph.Pair{{Left: 0, Right: 1}, {Left: 0, Right: 2}}); err == nil {
		t.Error("conflicting left seed accepted")
	}
	if _, err := NewMatching(3, 3, []graph.Pair{{Left: 0, Right: 1}, {Left: 2, Right: 1}}); err == nil {
		t.Error("conflicting right seed accepted")
	}
	m, err := NewMatching(3, 3, []graph.Pair{{Left: 0, Right: 1}, {Left: 0, Right: 1}})
	if err != nil {
		t.Fatalf("exact duplicate seed rejected: %v", err)
	}
	if m.Len() != 1 || m.SeedCount() != 1 {
		t.Fatalf("duplicate seed stored twice: len=%d", m.Len())
	}
	if m.LeftMatch(0) != 1 || m.RightMatch(1) != 0 || m.LeftMatch(1) != NoMatch {
		t.Fatal("matching arrays wrong")
	}
	if err := m.validateInjective(); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileInputErrors(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if _, err := Reconcile(context.Background(), nil, g, nil, DefaultOptions()); err == nil {
		t.Error("nil g1 accepted")
	}
	if _, err := Reconcile(context.Background(), g, nil, nil, DefaultOptions()); err == nil {
		t.Error("nil g2 accepted")
	}
	if _, err := Reconcile(context.Background(), g, g, nil, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := Reconcile(context.Background(), g, g, []graph.Pair{{Left: 9, Right: 0}}, DefaultOptions()); err == nil {
		t.Error("bad seed accepted")
	}
}

func TestReconcileEmptyInputs(t *testing.T) {
	e := graph.FromEdges(0, nil)
	res, err := Reconcile(context.Background(), e, e, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || len(res.NewPairs) != 0 {
		t.Fatal("empty inputs produced pairs")
	}

	// No seeds: no witnesses can ever exist, so no matches.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	res, err = Reconcile(context.Background(), g, g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewPairs) != 0 {
		t.Fatalf("no-seed run matched %d pairs", len(res.NewPairs))
	}
}

// A chain of triangles hanging off hub 0: each unseeded node becomes the
// unique partner with two witnesses once its predecessor is identified, so
// the iterated sweeps should identify the whole graph one node at a time.
func TestReconcileHandCrafted(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, // triangle seeds 2
		{U: 0, V: 3}, {U: 2, V: 3}, // 3 hangs off 0 and 2
		{U: 0, V: 4}, {U: 3, V: 4}, // 4 hangs off 0 and 3
	}
	g := graph.FromEdges(5, edges)
	opts := DefaultOptions()
	opts.Threshold = 2
	opts.MinBucketExp = 0
	opts = pathSequential.on(opts)
	seeds := []graph.Pair{{Left: 0, Right: 0}, {Left: 1, Right: 1}}
	res, err := Reconcile(context.Background(), g, g, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 is the only node adjacent to both seeds (score 2); once it is
	// linked, node 3 is the only node adjacent to {0, 2}; then node 4 to
	// {0, 3}. Everything should be identified.
	if len(res.Pairs) != 5 {
		t.Fatalf("matched %d pairs, want all 5: %v", len(res.Pairs), res.Pairs)
	}
	for _, p := range res.Pairs {
		if p.Left != p.Right {
			t.Fatalf("mismatched pair %v on identical graphs", p)
		}
	}
	if res.Seeds != 2 || len(res.NewPairs) != 3 {
		t.Fatalf("seeds=%d new=%d", res.Seeds, len(res.NewPairs))
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phase stats recorded")
	}
}

// A perfectly symmetric square: 0-1-2-3-0. Seeding only node 0 leaves nodes
// 1 and 3 indistinguishable (both neighbors of 0) — tie rejection must keep
// them unmatched rather than guess.
func TestReconcileTieRejection(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	opts := DefaultOptions()
	opts.Threshold = 1
	opts.MinBucketExp = 0
	opts = pathSequential.on(opts)
	res, err := Reconcile(context.Background(), g, g, []graph.Pair{{Left: 0, Right: 0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.NewPairs {
		if p.Left != p.Right {
			t.Fatalf("tie broke wrongly: %v", p)
		}
		if p.Left == 1 || p.Left == 3 {
			t.Fatalf("node %d matched despite symmetric ambiguity", p.Left)
		}
	}
}

func TestReconcileThreshold(t *testing.T) {
	// Path 0-1-2: seed 0; node 1's only witness is 0 (score 1).
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	opts := DefaultOptions()
	opts.MinBucketExp = 0
	opts = pathSequential.on(opts)
	opts.Threshold = 2
	res, err := Reconcile(context.Background(), g, g, []graph.Pair{{Left: 0, Right: 0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewPairs) != 0 {
		t.Fatalf("T=2 matched pairs with single witnesses: %v", res.NewPairs)
	}
	opts.Threshold = 1
	res, err = Reconcile(context.Background(), g, g, []graph.Pair{{Left: 0, Right: 0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With T=1, node 1 is the unique neighbor pair of the seed on both
	// sides... but node 1 in G1 scores against node 1 in G2 only; match it,
	// then node 2 follows.
	if len(res.NewPairs) != 2 {
		t.Fatalf("T=1 matched %d pairs, want 2: %v", len(res.NewPairs), res.NewPairs)
	}
}

func TestSimilarityWitnesses(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	m, err := NewMatching(5, 5, []graph.Pair{{Left: 0, Right: 0}, {Left: 2, Right: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Witnesses for (1,1): neighbors of 1 in G1 = {0,2}; both linked to
	// themselves; 0 and 2 are neighbors of 1 in G2 → 2 witnesses.
	if got := SimilarityWitnesses(g, g, m, 1, 1); got != 2 {
		t.Fatalf("witnesses(1,1) = %d, want 2", got)
	}
	// Witnesses for (4,4): neighbor 3 unlinked → 0.
	if got := SimilarityWitnesses(g, g, m, 4, 4); got != 0 {
		t.Fatalf("witnesses(4,4) = %d, want 0", got)
	}
	// Witnesses for (1,3): N(1)={0,2} linked to {0,2}; N_G2(3)={2,4};
	// only 2 qualifies → 1.
	if got := SimilarityWitnesses(g, g, m, 1, 3); got != 1 {
		t.Fatalf("witnesses(1,3) = %d, want 1", got)
	}
}
