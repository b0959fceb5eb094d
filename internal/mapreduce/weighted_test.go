package mapreduce

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
)

// The MapReduce formulation must track the in-core engines under the
// non-default selection policies too: weighted scoring, margins, and the
// greedy tie policy.
func TestMapReduceMatchesCoreUnderVariants(t *testing.T) {
	g1, g2, seeds := instance(41, 300)
	variants := []core.Options{
		func() core.Options {
			o := core.DefaultOptions()
			o.Scoring = core.ScoreAdamicAdar
			return o
		}(),
		func() core.Options {
			o := core.DefaultOptions()
			o.MinMargin = 1
			return o
		}(),
		func() core.Options {
			o := core.DefaultOptions()
			o.Threshold = 1
			o.Ties = core.TieLowestID
			return o
		}(),
		func() core.Options {
			o := core.DefaultOptions()
			o.Scoring = core.ScoreAdamicAdar
			o.MinMargin = 2
			o.DisableBucketing = true
			return o
		}(),
	}
	for i, opts := range variants {
		opts.Engine = core.EngineSequential
		want, err := core.Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got, err := Reconcile(g1, g2, seeds, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		ws, gs := toSet(want.Pairs), toSet(got.Pairs)
		if len(ws) != len(gs) {
			t.Fatalf("variant %d: core %d pairs, mapreduce %d", i, len(ws), len(gs))
		}
		for p := range ws {
			if !gs[p] {
				t.Fatalf("variant %d: pair %v missing from mapreduce result", i, p)
			}
		}
	}
}
