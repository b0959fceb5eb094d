package experiments

import (
	"context"
	"math"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/eval"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/theory"
)

// TheoryRow compares a Section 4.1 prediction with its measurement.
type TheoryRow struct {
	Quantity  string
	Predicted float64
	Measured  float64
}

// TheoryCheckData instantiates the Erdős–Rényi model of Theorem 1 in its
// proven regime and measures the quantities the theorem bounds: the
// expected first-phase similarity witnesses of true pairs, of false pairs,
// and the resulting zero-error identification.
func TheoryCheckData(cfg Config) ([]TheoryRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := cfg.rng(0x7E0)
	n := scaled(cfg, 60000, 1500)
	model := theory.ERModel{N: n, P: 30 * math.Log(float64(n)) / float64(n), S: 0.7, L: 0.4}
	g := gen.ErdosRenyi(r, model.N, model.P)
	g1, g2 := sampling.IndependentCopies(r, g, model.S, model.S)
	seeds := sampling.Seeds(r.Split(), graph.IdentityPairs(n), model.L)
	m, err := core.NewMatching(n, n, seeds)
	if err != nil {
		return nil, err
	}

	// Sample witness counts for true and false pairs under the seed set.
	sampleR := r.Split()
	const samples = 300
	var trueSum, falseSum float64
	for i := 0; i < samples; i++ {
		v := graph.NodeID(sampleR.IntN(n))
		w := graph.NodeID(sampleR.IntN(n))
		if w == v {
			w = (w + 1) % graph.NodeID(n)
		}
		trueSum += float64(core.SimilarityWitnesses(g1, g2, m, v, v))
		falseSum += float64(core.SimilarityWitnesses(g1, g2, m, v, w))
	}

	opts := core.DefaultOptions()
	opts.Threshold = 3 // Lemma 3's threshold
	opts.Workers = cfg.Workers
	res, err := core.Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		return nil, err
	}
	counts := eval.Evaluate(res.Pairs, res.Seeds, eval.IdentityTruth(n))
	identified := float64(len(res.Pairs)) / float64(n)

	return []TheoryRow{
		{"true-pair witnesses (E=(n-1)ps²l)", model.ExpectedTrueWitnesses(), trueSum / samples},
		{"false-pair witnesses (E=(n-2)p²s²l)", model.ExpectedFalseWitnesses(), falseSum / samples},
		{"wrong matches (Thm 1+Lemma 3: 0)", 0, float64(counts.Bad)},
		{"identified fraction (Thm 4: 1-o(1))", 1, identified},
	}, nil
}

// TheoryCheck renders the Theorem 1 validation.
func TheoryCheck(cfg Config) (*Report, error) {
	rows, err := TheoryCheckData(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: "Extension: Section 4.1 theory check (G(n,p) in Theorem 1's regime, T=3)"}
	t := &eval.Table{Header: []string{"quantity", "predicted", "measured"}}
	for _, row := range rows {
		t.AddRow(row.Quantity, row.Predicted, row.Measured)
	}
	rep.Tables = append(rep.Tables, t)
	rep.notef("witness expectations are the exact formulas of Section 4.1; the gap factor between them is p")
	return rep, nil
}
