package mapreduce

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

func instance(seed uint64, n int) (*graph.Graph, *graph.Graph, []graph.Pair) {
	r := xrand.New(seed)
	g := gen.PreferentialAttachment(r, n, 5)
	g1, g2 := sampling.IndependentCopies(r, g, 0.7, 0.7)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)
	return g1, g2, seeds
}

func toSet(ps []graph.Pair) map[graph.Pair]bool {
	s := make(map[graph.Pair]bool, len(ps))
	for _, p := range ps {
		s[p] = true
	}
	return s
}

func TestMapReduceMatchesCoreEngines(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g1, g2, seeds := instance(seed, 250)
		opts := core.DefaultOptions()
		opts.Engine = core.EngineSequential
		want, err := core.Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			return false
		}
		got, err := Reconcile(g1, g2, seeds, opts)
		if err != nil {
			return false
		}
		ws, gs := toSet(want.Pairs), toSet(got.Pairs)
		if len(ws) != len(gs) {
			return false
		}
		for p := range ws {
			if !gs[p] {
				return false
			}
		}
		// Phase-by-phase agreement, not just the final set.
		if len(want.Phases) != len(got.Phases) {
			return false
		}
		for i := range want.Phases {
			if want.Phases[i] != got.Phases[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 6})
	if err != nil {
		t.Error(err)
	}
}

func TestMapReduceDeterministicAcrossWorkers(t *testing.T) {
	g1, g2, seeds := instance(3, 300)
	opts := core.DefaultOptions()
	var base *core.Result
	for _, w := range []int{1, 2, 7} {
		opts.Workers = w
		res, err := Reconcile(g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Pairs) != len(base.Pairs) {
			t.Fatalf("workers=%d: %d pairs, want %d", w, len(res.Pairs), len(base.Pairs))
		}
		for i := range base.Pairs {
			if res.Pairs[i] != base.Pairs[i] {
				t.Fatalf("workers=%d: pair %d differs", w, i)
			}
		}
	}
}

func TestMapReduceInputErrors(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if _, err := Reconcile(nil, g, nil, core.DefaultOptions()); err == nil {
		t.Error("nil g1 accepted")
	}
	if _, err := Reconcile(g, nil, nil, core.DefaultOptions()); err == nil {
		t.Error("nil g2 accepted")
	}
	if _, err := Reconcile(g, g, nil, core.Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := Reconcile(g, g, []graph.Pair{{Left: 7, Right: 0}}, core.DefaultOptions()); err == nil {
		t.Error("bad seed accepted")
	}
}

func TestMapReduceEmpty(t *testing.T) {
	e := graph.FromEdges(0, nil)
	res, err := Reconcile(e, e, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 {
		t.Fatal("empty graphs produced pairs")
	}
}

func TestMapReduceIdentifiesPA(t *testing.T) {
	r := xrand.New(11)
	n := 800
	g := gen.PreferentialAttachment(r, n, 10)
	g1, g2 := sampling.IndependentCopies(r, g, 0.8, 0.8)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)
	opts := core.DefaultOptions()
	opts.Threshold = 3
	res, err := Reconcile(g1, g2, seeds, opts)
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
	if correct < 400 {
		t.Errorf("correct = %d; expected substantial recall", correct)
	}
	if wrong*50 > correct {
		t.Errorf("wrong = %d vs correct = %d", wrong, correct)
	}
}
