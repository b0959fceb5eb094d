package experiments

import (
	"strings"
	"testing"

	"github.com/sociograph/reconcile/internal/eval"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 0.02, Seed: 7, RMATBase: 9}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Scale: 0, RMATBase: 10},
		{Scale: 1.5, RMATBase: 10},
		{Scale: 0.5, RMATBase: 2},
		{Scale: 0.5, RMATBase: 30},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"figure2", "table2", "table3fb", "table3enron", "figure3",
		"table4", "table5dblp", "table5gowalla", "table5wiki",
		"figure4", "attack", "ablation",
		"ext-noise", "ext-seednoise", "ext-scoring", "ext-theory", "ext-active",
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, name := range want {
		if Registry[name] == nil {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names() not sorted")
		}
	}
}

func TestFigure2Claims(t *testing.T) {
	rows, err := Figure2Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, row := range rows {
		// The paper's headline: precision ~100% on PA at every setting.
		// At unit-test scale (n=20K vs the paper's 1M) the sparsest seed
		// setting admits a few dense-core coincidences; 95% is the floor.
		if row.Counts.Precision() < 0.95 {
			t.Errorf("l=%v T=%d: precision %.4f below 95%%", row.SeedProb, row.Threshold, row.Counts.Precision())
		}
	}
	// Recall grows with seed probability at fixed threshold.
	recallAt := func(l float64, T int) float64 {
		for _, row := range rows {
			if row.SeedProb == l && row.Threshold == T {
				return row.Recall
			}
		}
		t.Fatalf("row l=%v T=%d missing", l, T)
		return 0
	}
	if recallAt(0.20, 2) < recallAt(0.01, 2) {
		t.Error("recall should not decrease with more seeds")
	}
	// Lowering the threshold raises recall.
	if recallAt(0.05, 2) < recallAt(0.05, 5) {
		t.Error("recall should not decrease with a lower threshold")
	}
	// High recall at the permissive end.
	if got := recallAt(0.20, 2); got < 0.85 {
		t.Errorf("recall at l=20%% T=2 is %.3f; expected near-complete identification", got)
	}
}

func TestTable2Scaling(t *testing.T) {
	rows, err := Table2Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Relative != 1 {
		t.Fatalf("base relative = %v", rows[0].Relative)
	}
	if rows[0].Nodes >= rows[1].Nodes || rows[1].Nodes >= rows[2].Nodes {
		t.Fatal("RMAT sizes not increasing")
	}
	if rows[2].Relative < rows[0].Relative {
		t.Error("largest graph should not be faster than the smallest")
	}
	for _, row := range rows {
		if row.AllocBytes == 0 || row.PeakHeapBytes == 0 {
			t.Errorf("%s: alloc %d B, peak heap %d B; both must be measured", row.Name, row.AllocBytes, row.PeakHeapBytes)
		}
	}
}

func TestTable3FacebookClaims(t *testing.T) {
	rows, err := Table3FacebookData(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, row := range rows {
		// Paper: error well under 1%; allow small-scale slack to 5%.
		if row.Counts.ErrorRate() > 0.05 {
			t.Errorf("l=%v T=%d: error rate %.3f", row.SeedProb, row.Threshold, row.Counts.ErrorRate())
		}
	}
	// Lower threshold ⇒ more good matches (recall/precision trade).
	var t5, t2 int
	for _, row := range rows {
		if row.SeedProb == 0.20 && row.Threshold == 5 {
			t5 = row.Counts.Good
		}
		if row.SeedProb == 0.20 && row.Threshold == 2 {
			t2 = row.Counts.Good
		}
	}
	if t2 < t5 {
		t.Errorf("T=2 good (%d) should be >= T=5 good (%d)", t2, t5)
	}
}

func TestTable3EnronClaims(t *testing.T) {
	rows, err := Table3EnronData(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Paper: ~4.8% error among new matches on this very sparse graph;
		// allow up to 12% at reduced scale.
		if row.Counts.ErrorRate() > 0.12 {
			t.Errorf("T=%d: error rate %.3f", row.Threshold, row.Counts.ErrorRate())
		}
		if row.Counts.Good == 0 {
			t.Errorf("T=%d: no good matches", row.Threshold)
		}
	}
}

func TestFigure3Claims(t *testing.T) {
	rows, err := Figure3Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		// Paper: 100% precision on the real Facebook graph; the small-scale
		// configuration-model stand-in is locally more random, so a few
		// nodes missing from the cascade intersection get mismatched.
		if row.Counts.Precision() < 0.93 {
			t.Errorf("cascade l=%v T=%d: precision %.4f", row.SeedProb, row.Threshold, row.Counts.Precision())
		}
	}
	// Cascade recall at T=2/l=5% should be high (paper: 98.4%).
	for _, row := range rows {
		if row.SeedProb == 0.05 && row.Threshold == 2 && row.Recall < 0.80 {
			t.Errorf("cascade recall %.3f at l=5%% T=2; paper reports 98.4%%", row.Recall)
		}
	}
}

func TestTable4Claims(t *testing.T) {
	rows, err := Table4Data(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Paper: zero errors under correlated community deletion; allow the
		// tiny-scale stand-in (1200 users at 26% density vs the paper's 60K
		// at 0.45%) a 5% coincidence budget.
		if row.Counts.ErrorRate() > 0.05 {
			t.Errorf("T=%d: error rate %.4f; paper reports 0", row.Threshold, row.Counts.ErrorRate())
		}
		if row.Counts.Good == 0 {
			t.Errorf("T=%d: no matches found", row.Threshold)
		}
	}
}

func TestTable5Claims(t *testing.T) {
	dblp, err := Table5DBLPData(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range dblp {
		if row.Counts.ErrorRate() > 0.15 {
			t.Errorf("dblp T=%d: error rate %.3f; paper < 4.2%%", row.Threshold, row.Counts.ErrorRate())
		}
	}
	gow, err := Table5GowallaData(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range gow {
		if row.Counts.ErrorRate() > 0.15 {
			t.Errorf("gowalla T=%d: error rate %.3f; paper < 4%%", row.Threshold, row.Counts.ErrorRate())
		}
	}
	wiki, err := Table5WikipediaData(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range wiki {
		// The hard regime: error is expected (paper 17.5%) but bounded.
		if row.Counts.ErrorRate() > 0.40 {
			t.Errorf("wiki T=%d: error rate %.3f", row.Threshold, row.Counts.ErrorRate())
		}
		if row.Counts.Good == 0 {
			t.Errorf("wiki T=%d: no good matches", row.Threshold)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	data, err := Figure4Curves(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range []struct {
		name    string
		buckets []eval.DegreeBucket
	}{
		{"gowalla", data.Gowalla},
		{"dblp", data.DBLP},
	} {
		// Collect recall for populated buckets in degree order.
		var rs []float64
		for _, b := range nc.buckets {
			if b.Total > 0 {
				rs = append(rs, b.Recall())
			}
		}
		if len(rs) < 3 {
			t.Fatalf("%s: only %d populated buckets", nc.name, len(rs))
		}
		// The paper's shape: recall climbs with degree. Compare the lowest
		// populated bucket against the mean of the top three.
		top := (rs[len(rs)-1] + rs[len(rs)-2] + rs[len(rs)-3]) / 3
		if top < rs[0] {
			t.Errorf("%s: high-degree recall %.3f below low-degree recall %.3f", nc.name, top, rs[0])
		}
	}
}

func TestAttackClaims(t *testing.T) {
	data, err := AttackRun(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// User-Matching must keep precision high under attack...
	if data.Core.Precision() < 0.95 {
		t.Errorf("core precision under attack %.3f", data.Core.Precision())
	}
	if data.Core.Good == 0 {
		t.Fatal("no matches under attack")
	}
	// ...and out-recall the straightforward baseline (paper: 2.1×).
	if data.Core.Good <= data.Baseline.Good {
		t.Errorf("core good %d should exceed baseline good %d", data.Core.Good, data.Baseline.Good)
	}
}

func TestAblationClaims(t *testing.T) {
	data, err := AblationRun(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Degree bucketing reduces bad matches (paper: ~50% more without it)
	// without materially changing good matches.
	if data.Unbucketed.Bad <= data.Bucketed.Bad {
		t.Errorf("no-bucketing bad (%d) should exceed bucketed bad (%d)",
			data.Unbucketed.Bad, data.Bucketed.Bad)
	}
	lo, hi := data.Bucketed.Good*8/10, data.Bucketed.Good*12/10
	if data.Unbucketed.Good < lo || data.Unbucketed.Good > hi {
		t.Logf("note: good matches moved more than ±20%% without bucketing: %d vs %d",
			data.Unbucketed.Good, data.Bucketed.Good)
	}
	// On the Wikipedia workload the baseline must err more than core.
	if data.WikiBase.ErrorRate() < data.WikiCore.ErrorRate() {
		t.Errorf("baseline error %.3f should exceed core error %.3f",
			data.WikiBase.ErrorRate(), data.WikiCore.ErrorRate())
	}
}

func TestReportsRender(t *testing.T) {
	// Every registered experiment must produce a printable report at tiny
	// scale without error.
	for name, run := range Registry {
		rep, err := run(tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := rep.String()
		if !strings.Contains(out, "==") || len(out) < 40 {
			t.Errorf("%s: implausible report output:\n%s", name, out)
		}
	}
}
