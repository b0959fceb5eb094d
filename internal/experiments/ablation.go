package experiments

import (
	"context"
	"github.com/sociograph/reconcile/internal/baseline"
	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/datasets"
	"github.com/sociograph/reconcile/internal/eval"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
)

// AblationData reproduces the paper's final experiment block ("Importance of
// degree bucketing, comparison with straightforward algorithm"):
//
//  1. Facebook, s = 0.5, 5% seeds: User-Matching with the degree schedule
//     versus the same algorithm with bucketing disabled and threshold 1.
//     Paper: bad matches increase by ~50% without bucketing, good matches
//     barely change.
//  2. The Wikipedia-style workload: User-Matching versus the plain
//     common-neighbor baseline. Paper: the baseline's error rate is 27.87%
//     versus 17.31%, with recall under 13.52%.
type AblationData struct {
	Bucketed    eval.Counts // Facebook, schedule on, T=1
	Unbucketed  eval.Counts // Facebook, schedule off, T=1
	WikiCore    eval.Counts
	WikiBase    eval.Counts
	WikiCoreRes int // total links found by core (incl. seeds)
	WikiBaseRes int
}

// AblationRun executes both comparisons.
func AblationRun(cfg Config) (*AblationData, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	out := &AblationData{}
	{
		r := cfg.rng(0xAB1)
		g := datasets.Facebook(r, cfg.Scale)
		n := g.NumNodes()
		g1, g2 := sampling.IndependentCopies(r, g, 0.5, 0.5)
		truth := eval.IdentityTruth(n)
		seeds := sampling.Seeds(r.Split(), graph.IdentityPairs(n), 0.05)

		// The paper's ablation runs at threshold 1, where nearly every
		// low-degree candidate ties; a tie-rejecting matcher would simply
		// abstain, so the greedy tie-breaking policy is used here — the
		// behaviour implied by "the pair with highest score in which either
		// u or v appear".
		opts := core.DefaultOptions()
		opts.Threshold = 1
		opts.Workers = cfg.Workers
		opts.Ties = core.TieLowestID
		res, err := core.Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			return nil, err
		}
		out.Bucketed = eval.Evaluate(res.Pairs, res.Seeds, truth)

		// Equalize total scoring passes: the bucketed run performs
		// k·⌈log D⌉ passes, the unbucketed one k — giving it the same pass
		// budget isolates the effect of the degree schedule itself.
		opts.Iterations *= len(opts.BucketSchedule(g1, g2))
		opts.DisableBucketing = true
		res, err = core.Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			return nil, err
		}
		out.Unbucketed = eval.Evaluate(res.Pairs, res.Seeds, truth)
	}
	{
		r := cfg.rng(0xAB2)
		d := datasets.Wikipedia(r, wikiScale(cfg))
		truth := eval.FromPairs(d.Truth)
		seeds := sampling.Seeds(r.Split(), d.InterLang, 0.10)

		res, err := reconcile(d.FR, d.DE, seeds, 3, cfg)
		if err != nil {
			return nil, err
		}
		out.WikiCore = eval.Evaluate(res.Pairs, res.Seeds, truth)
		out.WikiCoreRes = len(res.Pairs)

		basePairs, err := baseline.CommonNeighbors(d.FR, d.DE, seeds, baseline.CommonNeighborsOptions{
			Threshold: 3, Iterations: 2,
		})
		if err != nil {
			return nil, err
		}
		out.WikiBase = eval.Evaluate(basePairs, len(seeds), truth)
		out.WikiBaseRes = len(basePairs)
	}
	return out, nil
}

// Ablation renders the experiment.
func Ablation(cfg Config) (*Report, error) {
	data, err := AblationRun(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: "Ablation: degree bucketing and the straightforward baseline"}
	t1 := &eval.Table{
		Title:  "Facebook s=0.5, 5% seeds, T=1",
		Header: []string{"variant", "good", "bad", "error rate"},
	}
	t1.AddRow("with bucketing", data.Bucketed.Good, data.Bucketed.Bad, data.Bucketed.ErrorRate())
	t1.AddRow("no bucketing", data.Unbucketed.Good, data.Unbucketed.Bad, data.Unbucketed.ErrorRate())
	rep.Tables = append(rep.Tables, t1)

	t2 := &eval.Table{
		Title:  "Wikipedia-style workload, 10% of inter-language links as seeds, T=3",
		Header: []string{"algorithm", "good", "bad", "error rate", "total links"},
	}
	t2.AddRow("User-Matching", data.WikiCore.Good, data.WikiCore.Bad, data.WikiCore.ErrorRate(), data.WikiCoreRes)
	t2.AddRow("common-neighbors", data.WikiBase.Good, data.WikiBase.Bad, data.WikiBase.ErrorRate(), data.WikiBaseRes)
	rep.Tables = append(rep.Tables, t2)

	rep.notef("paper: without bucketing bad matches rise ~50%% at unchanged good matches; on Wikipedia the baseline errs 27.87%% vs 17.31%% with recall under 13.52%%")
	return rep, nil
}
