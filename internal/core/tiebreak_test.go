package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
)

func TestTieBreakString(t *testing.T) {
	if TieReject.String() != "reject" || TieLowestID.String() != "lowest-id" {
		t.Fatal("tie-break names wrong")
	}
	if TieBreak(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

func TestTieBreakValidation(t *testing.T) {
	o := DefaultOptions()
	o.Ties = TieBreak(5)
	if err := o.Validate(); err == nil {
		t.Fatal("invalid tie policy accepted")
	}
}

// On the symmetric square 0-1-2-3-0 with only node 0 seeded, nodes 1 and 3
// tie. TieReject abstains (tested elsewhere); TieLowestID matches node 1
// (the lowest ID), after which the symmetry is broken and the rest follows.
func TestTieLowestIDResolvesSymmetry(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	opts := DefaultOptions()
	opts.Threshold = 1
	opts.MinBucketExp = 0
	opts.Ties = TieLowestID
	opts.Iterations = 3
	res, err := Reconcile(context.Background(), g, g, []graph.Pair{{Left: 0, Right: 0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 4 {
		t.Fatalf("matched %d pairs, want all 4: %v", len(res.Pairs), res.Pairs)
	}
	for _, p := range res.Pairs {
		if p.Left != p.Right {
			t.Fatalf("wrong pair %v (identical graphs, lowest-ID tie-break is self-consistent)", p)
		}
	}
}

// TieLowestID must stay deterministic across engines and worker counts.
func TestTieLowestIDDeterministic(t *testing.T) {
	g1, g2, seeds := testInstance(13, 300)
	opts := DefaultOptions()
	opts.Threshold = 1
	opts.Ties = TieLowestID
	opts = pathSequential.on(opts)
	seq, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 8} {
		opts = pathParallel.on(opts)
		opts.Workers = w
		par, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Pairs) != len(seq.Pairs) {
			t.Fatalf("workers=%d: %d pairs vs %d sequential", w, len(par.Pairs), len(seq.Pairs))
		}
		for i := range seq.Pairs {
			if par.Pairs[i] != seq.Pairs[i] {
				t.Fatalf("workers=%d: pair %d differs", w, i)
			}
		}
	}
}

// Tie acceptance can only add matches relative to rejection at threshold 1.
func TestTieLowestIDSupersetOfReject(t *testing.T) {
	g1, g2, seeds := testInstance(17, 400)
	reject := DefaultOptions()
	reject.Threshold = 1
	a, err := Reconcile(context.Background(), g1, g2, seeds, reject)
	if err != nil {
		t.Fatal(err)
	}
	accept := reject
	accept.Ties = TieLowestID
	b, err := Reconcile(context.Background(), g1, g2, seeds, accept)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Pairs) < len(a.Pairs) {
		t.Fatalf("tie-accepting run found fewer pairs (%d) than rejecting (%d)", len(b.Pairs), len(a.Pairs))
	}
}
