package reconcile_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
)

// runBatch is the one-shot run: New over the options, then Run.
func runBatch(tb testing.TB, g1, g2 *reconcile.Graph, opts ...reconcile.Option) *reconcile.Result {
	tb.Helper()
	rec, err := reconcile.New(g1, g2, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := rec.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestQuickstart is the end-to-end flow of the README through the public
// API only: generate a network, derive two partial copies, seed, reconcile,
// evaluate.
func TestQuickstart(t *testing.T) {
	r := reconcile.NewRand(42)
	g := reconcile.GeneratePA(r, 3000, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.7, 0.7)
	truth := reconcile.IdentityPairs(g.NumNodes())
	seeds := reconcile.Seeds(r, truth, 0.10)

	res := runBatch(t, g1, g2, reconcile.WithSeeds(seeds))
	c := reconcile.Evaluate(res.Pairs, res.Seeds, reconcile.IdentityTruth(g.NumNodes()))
	if c.Precision() < 0.98 {
		t.Errorf("precision %.4f", c.Precision())
	}
	recall := reconcile.LinkedRecall(res.Pairs, reconcile.IdentityTruth(g.NumNodes()), g1, g2)
	if recall < 0.80 {
		t.Errorf("recall %.4f", recall)
	}
}

func TestFacadeEnginesAgree(t *testing.T) {
	r := reconcile.NewRand(7)
	g := reconcile.GeneratePA(r, 500, 6)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(g.NumNodes()), 0.15)
	opts := reconcile.DefaultOptions()

	direct := runBatch(t, g1, g2, reconcile.WithOptions(opts), reconcile.WithSeeds(seeds))
	mr, err := reconcile.ReconcileMapReduce(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	set := map[reconcile.Pair]bool{}
	for _, p := range direct.Pairs {
		set[p] = true
	}
	if len(mr.Pairs) != len(direct.Pairs) {
		t.Fatalf("MapReduce found %d pairs, direct %d", len(mr.Pairs), len(direct.Pairs))
	}
	for _, p := range mr.Pairs {
		if !set[p] {
			t.Fatalf("MapReduce pair %v not found by direct engine", p)
		}
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	b := reconcile.NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 || g.Degree(1) != 2 {
		t.Fatalf("edges=%d deg(1)=%d", g.NumEdges(), g.Degree(1))
	}
	h := reconcile.FromEdges(3, []reconcile.Edge{{U: 0, V: 1}})
	if h.NumEdges() != 1 {
		t.Fatal("FromEdges failed")
	}
	x := reconcile.Intersection(g, reconcile.FromEdges(3, []reconcile.Edge{{U: 0, V: 1}, {U: 0, V: 2}}))
	if x.NumEdges() != 1 || !x.HasEdge(0, 1) {
		t.Fatal("Intersection failed")
	}
	s := reconcile.ComputeStats(g)
	if s.Nodes != 3 || s.Edges != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFacadeIO(t *testing.T) {
	g := reconcile.FromEdges(3, []reconcile.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := reconcile.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, ids, err := reconcile.ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || len(ids) != 3 {
		t.Fatalf("round trip: %d edges, %d ids", h.NumEdges(), len(ids))
	}
}

func TestFacadeGenerators(t *testing.T) {
	r := reconcile.NewRand(1)
	if g := reconcile.GenerateER(r, 100, 0.1); g.NumNodes() != 100 {
		t.Fatal("ER")
	}
	if g := reconcile.GenerateWattsStrogatz(r, 100, 2, 0.1); g.NumNodes() != 100 {
		t.Fatal("WS")
	}
	if g := reconcile.GenerateRMAT(r, reconcile.DefaultRMAT(8)); g.NumNodes() == 0 {
		t.Fatal("RMAT")
	}
	an := reconcile.GenerateAffiliation(r, reconcile.DefaultAffiliation(200))
	g1, g2 := reconcile.CommunityCopies(r, an, 0.25, 150)
	if g1.NumNodes() != 200 || g2.NumNodes() != 200 {
		t.Fatal("affiliation copies")
	}
	base := reconcile.GeneratePA(r, 300, 5)
	c1, c2 := reconcile.CascadeCopies(r, base, 0.3)
	if c1.NumNodes() != 300 || c2.NumNodes() != 300 {
		t.Fatal("cascade copies")
	}
	a := reconcile.SybilAttack(r, base, 0.5)
	if a.NumNodes() != 600 {
		t.Fatal("attack")
	}
}

func TestFacadeTimeSplitAndRelabel(t *testing.T) {
	edges := []reconcile.TemporalEdge{{U: 0, V: 1, Time: 2}, {U: 1, V: 2, Time: 3}}
	g1, g2 := reconcile.TimeSplit(3, edges, func(t int) bool { return t%2 == 0 })
	if !g1.HasEdge(0, 1) || !g2.HasEdge(1, 2) {
		t.Fatal("TimeSplit")
	}
	g := reconcile.FromEdges(3, []reconcile.Edge{{U: 0, V: 1}})
	h := reconcile.Relabel(g, []reconcile.NodeID{2, 1, 0})
	if !h.HasEdge(2, 1) {
		t.Fatal("Relabel")
	}
}

func TestFacadeDegreeCurveAndTruth(t *testing.T) {
	r := reconcile.NewRand(5)
	g := reconcile.GeneratePA(r, 400, 5)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(400), 0.2)
	res := runBatch(t, g1, g2, reconcile.WithSeeds(seeds))
	curve := reconcile.DegreeCurve(g1, g2, res.Pairs, res.Seeds, reconcile.IdentityTruth(400))
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	tr := reconcile.TruthFromPairs([]reconcile.Pair{{Left: 1, Right: 2}})
	if tr[1] != 2 {
		t.Fatal("TruthFromPairs")
	}
}

func TestFacadeErrors(t *testing.T) {
	g := reconcile.FromEdges(2, nil)
	if _, err := reconcile.New(g, g, reconcile.WithOptions(reconcile.Options{})); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := reconcile.ReconcileMapReduce(g, g, []reconcile.Pair{{Left: 5, Right: 0}}, reconcile.DefaultOptions()); err == nil {
		t.Error("bad seed accepted")
	}
}
