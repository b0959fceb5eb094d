package reconcile_test

// Benchmark harness: one benchmark per table and figure of the paper's
// Section 5 (each regenerates the corresponding experiment at bench scale
// and reports its headline quantities as custom metrics), plus
// micro-benchmarks for the matcher itself and the design-choice ablations
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks run the scaled stand-ins (the paper's graphs reach 121M nodes);
// see EXPERIMENTS.md for the paper-vs-measured comparison at these scales
// and cmd/experiments for larger runs.

import (
	"context"
	"io"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/baseline"
	"github.com/sociograph/reconcile/internal/experiments"
)

// benchConfig sizes the experiment stand-ins for benchmarking.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.02, Seed: 1, RMATBase: 12}
}

// BenchmarkFigure2 regenerates Figure 2 (PA + random deletion; recall by
// seed probability and threshold, precision ~100%).
func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig()
	var good, bad int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2Data(cfg)
		if err != nil {
			b.Fatal(err)
		}
		good, bad = 0, 0
		for _, row := range rows {
			good += row.Counts.Good
			bad += row.Counts.Bad
		}
	}
	b.ReportMetric(float64(good), "good")
	b.ReportMetric(float64(bad), "bad")
}

// BenchmarkTable2 regenerates Table 2 (relative running time on growing
// RMAT graphs); the interesting metric is the largest-to-smallest ratio.
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Data(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Relative
	}
	b.ReportMetric(ratio, "rel-time-largest")
}

// BenchmarkTable3Facebook regenerates Table 3 (left).
func BenchmarkTable3Facebook(b *testing.B) {
	benchGoodBad(b, experiments.Table3FacebookData)
}

// BenchmarkTable3Enron regenerates Table 3 (right).
func BenchmarkTable3Enron(b *testing.B) {
	benchGoodBad(b, experiments.Table3EnronData)
}

// BenchmarkTable4 regenerates Table 4 (correlated community deletion).
func BenchmarkTable4(b *testing.B) {
	benchGoodBad(b, experiments.Table4Data)
}

// BenchmarkTable5DBLP regenerates Table 5 (top left).
func BenchmarkTable5DBLP(b *testing.B) {
	benchGoodBad(b, experiments.Table5DBLPData)
}

// BenchmarkTable5Gowalla regenerates Table 5 (top right).
func BenchmarkTable5Gowalla(b *testing.B) {
	benchGoodBad(b, experiments.Table5GowallaData)
}

// BenchmarkTable5Wikipedia regenerates Table 5 (bottom).
func BenchmarkTable5Wikipedia(b *testing.B) {
	benchGoodBad(b, experiments.Table5WikipediaData)
}

func benchGoodBad(b *testing.B, data func(experiments.Config) ([]experiments.GoodBadRow, error)) {
	b.Helper()
	cfg := benchConfig()
	var good, bad int
	for i := 0; i < b.N; i++ {
		rows, err := data(cfg)
		if err != nil {
			b.Fatal(err)
		}
		good, bad = 0, 0
		for _, row := range rows {
			good += row.Counts.Good
			bad += row.Counts.Bad
		}
	}
	b.ReportMetric(float64(good), "good")
	b.ReportMetric(float64(bad), "bad")
}

// BenchmarkFigure3 regenerates Figure 3 (cascade-model copies).
func BenchmarkFigure3(b *testing.B) {
	cfg := benchConfig()
	var good, bad int
	var recall float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3Data(cfg)
		if err != nil {
			b.Fatal(err)
		}
		good, bad = 0, 0
		for _, row := range rows {
			good += row.Counts.Good
			bad += row.Counts.Bad
			recall = row.Recall
		}
	}
	b.ReportMetric(float64(good), "good")
	b.ReportMetric(float64(bad), "bad")
	b.ReportMetric(recall, "recall-last")
}

// BenchmarkFigure4 regenerates Figure 4 (precision/recall vs degree).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	var buckets int
	for i := 0; i < b.N; i++ {
		data, err := experiments.Figure4Curves(cfg)
		if err != nil {
			b.Fatal(err)
		}
		buckets = len(data.Gowalla) + len(data.DBLP)
	}
	b.ReportMetric(float64(buckets), "buckets")
}

// BenchmarkAttack regenerates the robustness-to-attack experiment.
func BenchmarkAttack(b *testing.B) {
	cfg := benchConfig()
	var data *experiments.AttackData
	for i := 0; i < b.N; i++ {
		var err error
		data, err = experiments.AttackRun(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Core.Good), "core-good")
	b.ReportMetric(float64(data.Core.Bad), "core-bad")
	b.ReportMetric(float64(data.Baseline.Good), "baseline-good")
}

// BenchmarkAblationBucketing regenerates the degree-bucketing ablation and
// the straightforward-baseline comparison.
func BenchmarkAblationBucketing(b *testing.B) {
	cfg := benchConfig()
	var data *experiments.AblationData
	for i := 0; i < b.N; i++ {
		var err error
		data, err = experiments.AblationRun(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Bucketed.Bad), "bucketed-bad")
	b.ReportMetric(float64(data.Unbucketed.Bad), "unbucketed-bad")
}

// --- matcher micro-benchmarks (per-edge cost; the gated engine rows live in
// internal/core, where each execution path can be pinned) ---

type benchInstance struct {
	g1, g2 *reconcile.Graph
	seeds  []reconcile.Pair
}

func makeInstance(n, m int) benchInstance {
	r := reconcile.NewRand(99)
	g := reconcile.GeneratePA(r, n, m)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.5, 0.5)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(n), 0.10)
	return benchInstance{g1, g2, seeds}
}

// BenchmarkReconcilePA measures the end-to-end matcher on a PA instance
// (n=20k, m=20 — Figure 2's shape at bench scale).
func BenchmarkReconcilePA(b *testing.B) {
	inst := makeInstance(20000, 20)
	benchBatch(b, inst, reconcile.DefaultOptions())
	b.ReportMetric(float64(inst.g1.NumEdges()+inst.g2.NumEdges()), "edges")
}

// benchBatch times the one-shot batch run over inst: a cold New, then Run.
func benchBatch(b *testing.B, inst benchInstance, opts reconcile.Options) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(b, inst.g1, inst.g2, reconcile.WithOptions(opts), reconcile.WithSeeds(inst.seeds))
	}
}

// BenchmarkReconcileFrontierIncrementalCheckpoint is the incremental
// workload (internal/core's BenchmarkReconcileHybridIncremental: a
// converged Reconciler, in the frontier regime by then, ingesting 20 new
// seeds) with a durable checkpoint taken at every sweep boundary (state
// encoded to a discarded stream — the serve job store's cadence minus the
// disk). The delta against the incremental rows is the per-checkpoint cost
// a -data-dir deployment pays; BENCH_snapshot.json records both, and
// DESIGN.md's Durability section discusses choosing a cadence.
func BenchmarkReconcileFrontierIncrementalCheckpoint(b *testing.B) {
	benchIncrementalCheckpoint(b, true)
}

// BenchmarkReconcileFrontierIncrementalTraced is the incremental workload
// with a span recorder actually installed. BENCH_trace.json's
// machinery_overhead row measures what tracing costs everyone (the nil
// checks left in the hot path when no recorder is set); this row shows the
// opt-in price of recording spans.
func BenchmarkReconcileFrontierIncrementalTraced(b *testing.B) {
	tr := reconcile.NewTraceRecorder(reconcile.TraceConfig{})
	benchIncrementalCheckpoint(b, false, reconcile.WithTracer(tr))
}

func benchIncrementalCheckpoint(b *testing.B, checkpoint bool, extra ...reconcile.Option) {
	inst := makeInstance(10000, 10)
	hold := 20
	if len(inst.seeds) <= hold {
		b.Fatal("instance has too few seeds")
	}
	early, late := inst.seeds[:len(inst.seeds)-hold], inst.seeds[len(inst.seeds)-hold:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := append([]reconcile.Option{reconcile.WithSeeds(early)}, extra...)
		var rec *reconcile.Reconciler
		if checkpoint {
			// Checkpoint at every sweep boundary, like cmd/serve's store; the
			// hook runs between buckets on the run goroutine, where state is
			// exportable.
			opts = append(opts, reconcile.WithProgress(func(e reconcile.PhaseEvent) {
				if e.Bucket == e.Buckets {
					if err := rec.SnapshotState(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
		rec, err := reconcile.New(inst.g1, inst.g2, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
			b.Fatal(err)
		}
		// Keep only held-back seeds that do not collide with links the
		// converged run already discovered.
		matchedL := map[reconcile.NodeID]bool{}
		matchedR := map[reconcile.NodeID]bool{}
		for _, p := range rec.Result().Pairs {
			matchedL[p.Left] = true
			matchedR[p.Right] = true
		}
		fresh := late[:0:0]
		for _, p := range late {
			if !matchedL[p.Left] && !matchedR[p.Right] {
				fresh = append(fresh, p)
			}
		}
		b.StartTimer()
		if err := rec.AddSeeds(fresh); err != nil {
			b.Fatal(err)
		}
		if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconcileMapReduce is the same instance on the 4-round MapReduce
// formulation (materializes candidate pairs; expected to trail the in-core
// engines — it exists for fidelity, not speed).
func BenchmarkReconcileMapReduce(b *testing.B) {
	inst := makeInstance(5000, 8)
	opts := reconcile.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reconcile.ReconcileMapReduce(inst.g1, inst.g2, inst.seeds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineCommonNeighbors measures the straightforward algorithm on
// the same instance as internal/core's BenchmarkReconcileSequential.
func BenchmarkBaselineCommonNeighbors(b *testing.B) {
	inst := makeInstance(10000, 10)
	opts := baseline.DefaultCommonNeighbors()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.CommonNeighbors(inst.g1, inst.g2, inst.seeds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselinePropagation measures the NS09-style propagation matcher —
// the Θ(Δ1·Δ2) per-node comparator the paper argues is unscalable.
func BenchmarkBaselinePropagation(b *testing.B) {
	inst := makeInstance(5000, 8)
	opts := baseline.DefaultPropagation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Propagation(inst.g1, inst.g2, inst.seeds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtNoise regenerates the copy-noise robustness extension sweep.
func BenchmarkExtNoise(b *testing.B) {
	cfg := benchConfig()
	var precision float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NoiseData(cfg)
		if err != nil {
			b.Fatal(err)
		}
		precision = rows[len(rows)-1].Counts.Precision()
	}
	b.ReportMetric(precision, "precision-noisiest")
}

// BenchmarkExtSeedNoise regenerates the corrupted-seed robustness sweep.
func BenchmarkExtSeedNoise(b *testing.B) {
	cfg := benchConfig()
	var errRate float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SeedNoiseData(cfg)
		if err != nil {
			b.Fatal(err)
		}
		errRate = rows[len(rows)-1].Counts.ErrorRate()
	}
	b.ReportMetric(errRate, "error-at-20pct-flips")
}

// BenchmarkExtScoring regenerates the scoring/margin ablation.
func BenchmarkExtScoring(b *testing.B) {
	cfg := benchConfig()
	var adamicBad float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ScoringAblationData(cfg)
		if err != nil {
			b.Fatal(err)
		}
		adamicBad = float64(rows[1].Counts.Bad)
	}
	b.ReportMetric(adamicBad, "adamic-adar-bad")
}

// BenchmarkExtTheory regenerates the Theorem 1 validation.
func BenchmarkExtTheory(b *testing.B) {
	cfg := benchConfig()
	var wrong float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TheoryCheckData(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wrong = rows[2].Measured
	}
	b.ReportMetric(wrong, "wrong-matches")
}

// BenchmarkReconcileAdamicAdar measures the weighted-scoring matcher on
// internal/core's BenchmarkReconcileSequential instance (the weighting's
// runtime overhead).
func BenchmarkReconcileAdamicAdar(b *testing.B) {
	inst := makeInstance(10000, 10)
	opts := reconcile.DefaultOptions()
	opts.Scoring = reconcile.ScoreAdamicAdar
	benchBatch(b, inst, opts)
}

// BenchmarkGeneratePA measures graph generation throughput (edges/sec drive
// how large an experiment fits in a run).
func BenchmarkGeneratePA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := reconcile.NewRand(uint64(i))
		reconcile.GeneratePA(r, 50000, 10)
	}
}

// BenchmarkGenerateRMAT measures RMAT generation at scale 16.
func BenchmarkGenerateRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := reconcile.NewRand(uint64(i))
		reconcile.GenerateRMAT(r, reconcile.DefaultRMAT(16))
	}
}
