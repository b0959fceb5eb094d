package experiments

import (
	"context"
	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/eval"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
)

// Extension experiments beyond the paper's evaluation, exercising the model
// generalizations Section 3.1 sketches ("with small probability, the two
// copies could have new 'noise' edges not present in the original network,
// or vertices could be deleted in the copies") and the robustness question
// raised by the Wikipedia experiment's corrupted human-curated seeds.

// NoiseRow is one setting of the copy-noise robustness sweep.
type NoiseRow struct {
	NoiseFraction  float64
	VertexDeletion float64
	Counts         eval.Counts
	Recall         float64
}

// NoiseData sweeps the generalized copy model on a PA graph: edge survival
// fixed at the paper's 0.5, with growing noise-edge fractions and vertex
// deletion. The paper proves nothing here; the expectation from its
// discussion is graceful degradation — precision staying high while recall
// erodes — because noise edges rarely align into mutual-best witnesses.
func NoiseData(cfg Config) ([]NoiseRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := cfg.rng(0x0E1)
	n := int(1000000 * cfg.Scale)
	if n < 1000 {
		n = 1000
	}
	g := gen.PreferentialAttachment(r, n, 20)
	truth := eval.IdentityTruth(n)
	var rows []NoiseRow
	for _, setting := range []struct{ noise, vdel float64 }{
		{0, 0}, {0.05, 0}, {0.15, 0}, {0.30, 0},
		{0.05, 0.05}, {0.15, 0.10},
	} {
		p := sampling.NoisyCopyParams{
			EdgeSurvival:      0.5,
			NoiseEdgeFraction: setting.noise,
			VertexDeletion:    setting.vdel,
		}
		g1, g2 := sampling.NoisyCopies(r.Split(), g, p)
		seeds := sampling.Seeds(r.Split(), graph.IdentityPairs(n), 0.10)
		res, err := reconcile(g1, g2, seeds, 2, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NoiseRow{
			NoiseFraction:  setting.noise,
			VertexDeletion: setting.vdel,
			Counts:         eval.Evaluate(res.Pairs, res.Seeds, truth),
			Recall:         eval.LinkedRecall(res.Pairs, truth, g1, g2),
		})
	}
	return rows, nil
}

// Noise renders the copy-noise robustness extension.
func Noise(cfg Config) (*Report, error) {
	rows, err := NoiseData(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: "Extension: noise edges and vertex deletion in the copies (PA, s=0.5, 10% seeds, T=2)"}
	t := &eval.Table{Header: []string{"noise frac", "vertex del", "good", "bad", "precision", "recall"}}
	for _, row := range rows {
		t.AddRow(row.NoiseFraction, row.VertexDeletion, row.Counts.Good, row.Counts.Bad,
			row.Counts.Precision(), row.Recall)
	}
	rep.Tables = append(rep.Tables, t)
	rep.notef("the paper's Section 3.1 generalization, not evaluated there; expectation: precision degrades slowly, recall erodes with noise")
	return rep, nil
}

// SeedNoiseRow is one setting of the corrupted-seed sweep.
type SeedNoiseRow struct {
	FlipFraction float64
	Counts       eval.Counts
}

// SeedNoiseData measures sensitivity to wrong trusted links: a fraction of
// the seed pairs point at the wrong node, as Wikipedia's curated
// inter-language links do. Wrong seeds radiate wrong witnesses, so some
// multiplication of errors is expected; the mutual-best rule should keep it
// roughly linear rather than cascading.
func SeedNoiseData(cfg Config) ([]SeedNoiseRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := cfg.rng(0x5EED)
	n := int(1000000 * cfg.Scale)
	if n < 1000 {
		n = 1000
	}
	g := gen.PreferentialAttachment(r, n, 20)
	g1, g2 := sampling.IndependentCopies(r, g, 0.5, 0.5)
	truth := eval.IdentityTruth(n)
	clean := sampling.Seeds(r.Split(), graph.IdentityPairs(n), 0.10)
	var rows []SeedNoiseRow
	for _, flip := range []float64{0, 0.01, 0.05, 0.10, 0.20} {
		seeds := sampling.CorruptSeeds(r.Split(), clean, n, flip)
		res, err := reconcile(g1, g2, seeds, 2, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SeedNoiseRow{
			FlipFraction: flip,
			Counts:       eval.Evaluate(res.Pairs, res.Seeds, truth),
		})
	}
	return rows, nil
}

// SeedNoise renders the corrupted-seed robustness extension.
func SeedNoise(cfg Config) (*Report, error) {
	rows, err := SeedNoiseData(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: "Extension: corrupted seed links (PA, s=0.5, 10% seeds, T=2)"}
	t := &eval.Table{Header: []string{"flipped seeds", "good", "bad", "error rate"}}
	for _, row := range rows {
		t.AddRow(percent(row.FlipFraction), row.Counts.Good, row.Counts.Bad, row.Counts.ErrorRate())
	}
	rep.Tables = append(rep.Tables, t)
	rep.notef("models the human errors in Wikipedia's inter-language links; the paper suggests ML-based signals to validate seeds")
	return rep, nil
}

// ScoringRow is one setting of the scoring-function ablation.
type ScoringRow struct {
	Scoring core.Scoring
	Margin  int
	Counts  eval.Counts
}

// ScoringAblationData compares the paper's raw witness-count ranking with
// the Adamic-Adar weighted ranking and with margin requirements on the
// Facebook stand-in (s=0.5, 5% seeds, T=2) — the design-choice ablations
// DESIGN.md calls out.
func ScoringAblationData(cfg Config) ([]ScoringRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := cfg.rng(0x5C0)
	g := gen.PreferentialAttachment(r, scaled(cfg, 1000000, 1000), 20)
	g1, g2 := sampling.IndependentCopies(r, g, 0.5, 0.5)
	n := g.NumNodes()
	truth := eval.IdentityTruth(n)
	seeds := sampling.Seeds(r.Split(), graph.IdentityPairs(n), 0.05)
	var rows []ScoringRow
	for _, setting := range []struct {
		scoring core.Scoring
		margin  int
	}{
		{core.ScoreWitnessCount, 0},
		{core.ScoreAdamicAdar, 0},
		{core.ScoreWitnessCount, 1},
		{core.ScoreWitnessCount, 2},
	} {
		opts := core.DefaultOptions()
		opts.Threshold = 2
		opts.Workers = cfg.Workers
		opts.Scoring = setting.scoring
		opts.MinMargin = setting.margin
		res, err := core.Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScoringRow{
			Scoring: setting.scoring,
			Margin:  setting.margin,
			Counts:  eval.Evaluate(res.Pairs, res.Seeds, truth),
		})
	}
	return rows, nil
}

func scaled(cfg Config, paperN, minN int) int {
	n := int(float64(paperN) * cfg.Scale)
	if n < minN {
		n = minN
	}
	return n
}

// ScoringAblation renders the scoring/margin ablation.
func ScoringAblation(cfg Config) (*Report, error) {
	rows, err := ScoringAblationData(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: "Extension: scoring-function and margin ablation (PA, s=0.5, 5% seeds, T=2)"}
	t := &eval.Table{Header: []string{"scoring", "margin", "good", "bad", "error rate"}}
	for _, row := range rows {
		t.AddRow(row.Scoring.String(), row.Margin, row.Counts.Good, row.Counts.Bad, row.Counts.ErrorRate())
	}
	rep.Tables = append(rep.Tables, t)
	rep.notef("witness-count with margin 0 is the paper's algorithm; Adamic-Adar reweighting and margins are the refinements its discussion invites")
	return rep, nil
}
