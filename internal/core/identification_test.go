package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// End-to-end identification quality on the paper's theoretical models. These
// are the Section 4 claims at test scale: near-complete identification with
// zero errors on G(n,p) (Theorems 1-4) and on PA graphs (Lemmas 10-12).

func evaluate(t *testing.T, res *Result) (correct, wrong int) {
	t.Helper()
	for _, p := range res.NewPairs {
		if p.Left == p.Right {
			correct++
		} else {
			wrong++
		}
	}
	return correct, wrong
}

func TestIdentifyErdosRenyi(t *testing.T) {
	// n=3000, np ≈ 20 > c log n keeps both copies connected (the theorem's
	// regime); s = 0.7, l = 0.1, T = 3 as in Lemma 3.
	r := xrand.New(1)
	n := 3000
	g := gen.ErdosRenyi(r, n, 20.0/float64(n))
	g1, g2 := sampling.IndependentCopies(r, g, 0.7, 0.7)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.1)
	opts := DefaultOptions()
	opts.Threshold = 3
	opts.Iterations = 3
	res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	correct, wrong := evaluate(t, res)
	if wrong != 0 {
		t.Errorf("G(n,p): %d wrong matches (theory predicts zero)", wrong)
	}
	identified := len(seeds) + correct
	if identified < n*80/100 {
		t.Errorf("G(n,p): identified %d/%d nodes; theory predicts 1-o(1)", identified, n)
	}
}

func TestIdentifyPreferentialAttachment(t *testing.T) {
	// ms² = 12.8 here, below Lemma 12's ms² ≥ 22 regime, but the paper's
	// experiments show the algorithm works well outside the proof constants.
	// At this small scale (n=5000; the paper uses n=1M) a handful of
	// dense-core coincidences can slip past the mutual-best filter, so we
	// assert near-perfect precision (≤ 0.1% error) and high recall rather
	// than exactly zero errors.
	r := xrand.New(2)
	n := 5000
	g := gen.PreferentialAttachment(r, n, 20)
	g1, g2 := sampling.IndependentCopies(r, g, 0.8, 0.8)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.1)
	opts := DefaultOptions()
	opts.Threshold = 3
	opts.Iterations = 2
	res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	correct, wrong := evaluate(t, res)
	if wrong*1000 > correct {
		t.Errorf("PA: %d wrong vs %d correct matches (>0.1%%)", wrong, correct)
	}
	identified := len(seeds) + correct
	if identified < n*90/100 {
		t.Errorf("PA: identified %d/%d nodes", identified, n)
	}
}

func TestHighDegreeNodesIdentifiedFirst(t *testing.T) {
	// Lemma 11: all high-degree nodes are identified (in the first sweep).
	r := xrand.New(3)
	n := 4000
	g := gen.PreferentialAttachment(r, n, 8)
	g1, g2 := sampling.IndependentCopies(r, g, 0.8, 0.8)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.1)
	opts := DefaultOptions()
	opts.Threshold = 2
	opts.Iterations = 1
	res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	matched := make(map[graph.NodeID]bool)
	for _, p := range res.Pairs {
		matched[p.Left] = true
	}
	// Count identification among the top-degree decile of the intersection.
	inter := graph.Intersection(g1, g2)
	missedHigh, high := 0, 0
	for v := 0; v < n; v++ {
		if inter.Degree(graph.NodeID(v)) >= 30 {
			high++
			if !matched[graph.NodeID(v)] {
				missedHigh++
			}
		}
	}
	if high == 0 {
		t.Skip("no high-degree nodes at this scale")
	}
	if missedHigh*20 > high {
		t.Errorf("missed %d/%d high-degree nodes", missedHigh, high)
	}
}

func TestDisableBucketingStillRuns(t *testing.T) {
	g1, g2, seeds := testInstance(5, 300)
	opts := DefaultOptions()
	opts.DisableBucketing = true
	res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) < len(seeds) {
		t.Fatal("unbucketed run lost seeds")
	}
	// Exactly one bucket per iteration.
	if len(res.Phases) != opts.Iterations {
		t.Fatalf("phases = %d, want %d", len(res.Phases), opts.Iterations)
	}
}

func TestPhaseStatsConsistent(t *testing.T) {
	g1, g2, seeds := testInstance(6, 300)
	res, err := Reconcile(context.Background(), g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := len(seeds)
	for i, ph := range res.Phases {
		total += ph.Matched
		if ph.TotalL != total {
			t.Fatalf("phase %d: TotalL=%d, want %d", i, ph.TotalL, total)
		}
		if ph.Iteration < 1 || ph.Iteration > DefaultOptions().Iterations {
			t.Fatalf("phase %d: bad iteration %d", i, ph.Iteration)
		}
		if ph.MinDegree < 1 {
			t.Fatalf("phase %d: bad min degree %d", i, ph.MinDegree)
		}
	}
	if total != len(res.Pairs) {
		t.Fatalf("phase totals %d != pairs %d", total, len(res.Pairs))
	}
}

// Regression guard: matching must work when the two graphs have different
// node counts (e.g. the sybil-attacked copy has 2n nodes).
func TestAsymmetricNodeCounts(t *testing.T) {
	r := xrand.New(9)
	n := 500
	g := gen.PreferentialAttachment(r, n, 6)
	g1, g2 := sampling.IndependentCopies(r, g, 0.75, 0.75)
	g2 = sampling.SybilAttack(r, g2, 0.5)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)
	res, err := Reconcile(context.Background(), g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	correct, wrong := 0, 0
	for _, p := range res.NewPairs {
		if p.Left == p.Right {
			correct++
		} else {
			wrong++
		}
	}
	if correct == 0 {
		t.Fatal("no correct matches under attack")
	}
	if wrong*10 > correct {
		t.Errorf("attack: %d wrong vs %d correct", wrong, correct)
	}
}
