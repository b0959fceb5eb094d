package experiments

import (
	"context"
	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/datasets"
	"github.com/sociograph/reconcile/internal/eval"
	"github.com/sociograph/reconcile/internal/sampling"
)

// ActiveAttackRow is one plant-budget setting of the active-attack sweep.
type ActiveAttackRow struct {
	Plants  int
	Targets int
	Counts  eval.Counts
	Recall  float64
}

// ActiveAttackData runs the Backstrom-et-al.-style *active* attack end to
// end (an extension; the paper's related work discusses the attack but its
// own evaluation is passive): the attacker plants k colluding accounts into
// both networks before observing them, each befriending a set of targets,
// and uses only the planted accounts as seeds. The sweep measures how much
// of the network k plants unlock — the active-attack analogue of Figure 2's
// seed-probability axis, and a measure of how little control an attacker
// needs to de-anonymize users via reconciliation.
func ActiveAttackData(cfg Config) ([]ActiveAttackRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := cfg.rng(0xAC7)
	g := datasets.Facebook(r, cfg.Scale)
	n := g.NumNodes()
	g1, g2 := sampling.IndependentCopies(r, g, 0.75, 0.75)
	truth := eval.IdentityTruth(n)
	var rows []ActiveAttackRow
	for _, setting := range []struct{ plants, targets int }{
		{5, 10}, {10, 20}, {20, 20}, {40, 40},
	} {
		params := sampling.ActiveAttackParams{
			Plants:          setting.plants,
			InterPlantProb:  0.5,
			TargetsPerPlant: setting.targets,
		}
		// The attacker plans one campaign — the same plant IDs and the same
		// targeted users on both networks; the coordinated targets are what
		// make the plants usable witnesses.
		targets := sampling.PlanTargets(r.Split(), n, params)
		a1 := sampling.ActiveAttackWith(r.Split(), g1, params, targets)
		a2 := sampling.ActiveAttackWith(r.Split(), g2, params, targets)
		seeds := sampling.PlantedPairs(a1, a2)
		opts := core.DefaultOptions()
		opts.Threshold = 2
		opts.Iterations = 4 // plants are few; give the cascade room
		opts.Workers = cfg.Workers
		res, err := core.Reconcile(context.Background(), a1.Attacked, a2.Attacked, seeds, opts)
		if err != nil {
			return nil, err
		}
		// Judge only real-node matches; plant-plant re-identifications are
		// the attacker's own accounts.
		c := eval.Counts{Seeds: res.Seeds}
		for _, p := range res.NewPairs {
			if int(p.Left) >= n && int(p.Right) >= n {
				continue
			}
			if want, ok := truth[p.Left]; ok && want == p.Right {
				c.Good++
			} else {
				c.Bad++
			}
		}
		rows = append(rows, ActiveAttackRow{
			Plants:  setting.plants,
			Targets: setting.targets,
			Counts:  c,
			Recall:  float64(c.Good) / float64(n),
		})
	}
	return rows, nil
}

// ActiveAttackExp renders the active-attack extension.
func ActiveAttackExp(cfg Config) (*Report, error) {
	rows, err := ActiveAttackData(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Name: "Extension: active attack (planted colluding accounts as the only seeds; Facebook, s=0.75, T=2)"}
	t := &eval.Table{Header: []string{"plants", "targets each", "good", "bad", "recall of population"}}
	for _, row := range rows {
		t.AddRow(row.Plants, row.Targets, row.Counts.Good, row.Counts.Bad, row.Recall)
	}
	rep.Tables = append(rep.Tables, t)
	rep.notef("the Backstrom et al. active attack driven through the reconciliation algorithm; a few dozen planted accounts substitute for thousands of organic seed links")
	return rep, nil
}
