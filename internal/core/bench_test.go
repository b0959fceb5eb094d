package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// Matcher micro-benchmarks: the per-bucket scoring pass under different
// schedules and policies, on a mid-size PA instance.

func benchInstance(b *testing.B) (*graph.Graph, *graph.Graph, []graph.Pair) {
	b.Helper()
	return testInstance(77, 20000)
}

func benchRun(b *testing.B, opts Options) {
	g1, g2, seeds := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconcile(context.Background(), g1, g2, seeds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBucketed(b *testing.B) {
	benchRun(b, DefaultOptions())
}

// BenchmarkEngine compares the engine's four paths on the identical
// instance and configuration; their outputs are bit-identical, so the
// ns/op ratios are pure scheduling cost.
func BenchmarkEngine(b *testing.B) {
	for _, p := range testPaths {
		b.Run(p.name, func(b *testing.B) {
			benchRun(b, p.on(DefaultOptions()))
		})
	}
}

// BenchmarkHybridCrossover is the calibration harness behind
// hybridCrossoverRate: on the BenchmarkEngine instance it prices one
// additional sweep at each point of the commit-rate decay, on both fixed
// regimes, pinned through the test seam. Each iteration runs a fresh
// session through sweeps 1..s-1 untimed, so its scoring state is warm, and times sweep s alone, reporting
// the sweep's commit rate (matched per node, scaled by 1e6 to survive the
// metric format) alongside ns/op. The rebuild row restores the frontier
// from the state at boundary s-1 instead and times sweep s: the
// all-dirty rebuild that the handoff, like any restore, pays in its
// first frontier sweep (a restore also builds the candidate lists, which a
// handoff takes over). The crossover constant is chosen between the commit
// rate of the last parallel-won sweep and the first frontier-won sweep; see
// hybrid.go for the recorded numbers.
func BenchmarkHybridCrossover(b *testing.B) {
	g1, g2, seeds := benchInstance(b)
	nodes := float64(g1.NumNodes() + g2.NumNodes())
	for s := 1; s <= 6; s++ {
		for _, row := range []string{"parallel", "frontier", "rebuild"} {
			b.Run(fmt.Sprintf("sweep%d/%s", s, row), func(b *testing.B) {
				o := pathFrontier.on(DefaultOptions())
				if row == "parallel" {
					o = pathParallel.on(o)
				}
				start := func() *Session {
					sess, err := NewSession(g1, g2, seeds, o)
					if err != nil {
						b.Fatal(err)
					}
					sess.Run(context.Background(), s-1)
					return sess
				}
				if row == "rebuild" {
					st := start().ExportState()
					start = func() *Session {
						sess, err := RestoreSession(g1, g2, st)
						if err != nil {
							b.Fatal(err)
						}
						return sess
					}
				}
				matched := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sess := start()
					before := sess.Len()
					b.StartTimer()
					sess.Run(context.Background(), 1)
					b.StopTimer()
					matched = sess.Len() - before
					b.StartTimer()
				}
				b.ReportMetric(float64(matched)/nodes*1e6, "commit-rate-ppm")
			})
		}
	}
}

// BenchmarkEngineHighThreshold is the frontier's best case during a cold
// run: at T=5 most nodes abstain, so after the first pass almost nothing is
// dirty while the full scan keeps re-scanning both node sets.
func BenchmarkEngineHighThreshold(b *testing.B) {
	for _, p := range []testPath{pathParallel, pathFrontier} {
		b.Run(p.name, func(b *testing.B) {
			o := p.on(DefaultOptions())
			o.Threshold = 5
			benchRun(b, o)
		})
	}
}

func BenchmarkUnbucketed(b *testing.B) {
	o := DefaultOptions()
	o.DisableBucketing = true
	benchRun(b, o)
}

func BenchmarkHighThreshold(b *testing.B) {
	o := DefaultOptions()
	o.Threshold = 5 // the linked-count skip prunes most nodes
	benchRun(b, o)
}

func BenchmarkWeightedScoring(b *testing.B) {
	o := DefaultOptions()
	o.Scoring = ScoreAdamicAdar
	benchRun(b, o)
}

func BenchmarkSimilarityWitnesses(b *testing.B) {
	g1, g2, seeds := benchInstance(b)
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := graph.NodeID(i % g1.NumNodes())
		SimilarityWitnesses(g1, g2, m, v, v)
	}
}

// The gated engine benchmarks (BENCH_store.json, CI's bench-smoke job): the
// cold one-shot batch and the incremental ingest on BENCH_engines.json's
// instance, on each path. The pinned rows exist so the same-run dominance
// rules can hold the default to the better of the two regimes on each
// workload.

// gateInstance is BENCH_engines.json's instance: PA n=10000 m=10, copies at
// 0.5/0.5, 10% of the identity pairs as seeds, from xrand seed 99.
func gateInstance() (*graph.Graph, *graph.Graph, []graph.Pair) {
	const n = 10000
	r := xrand.New(99)
	g := gen.PreferentialAttachment(r, n, 10)
	g1, g2 := sampling.IndependentCopies(r, g, 0.5, 0.5)
	return g1, g2, sampling.Seeds(r, graph.IdentityPairs(n), 0.10)
}

// benchBatch times the one-shot batch run on path p: a cold NewSession,
// then Run. It reports allocations too, so the engine rows show a run's
// B/op beside its ns/op.
func benchBatch(b *testing.B, p testPath) {
	g1, g2, seeds := gateInstance()
	opts := p.on(DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(g1, g2, seeds, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background(), opts.Iterations); err != nil {
			b.Fatal(err)
		}
		s.Result()
	}
}

// BenchmarkReconcileSequential is the single-threaded reference cost: the
// full scan throughout at one worker.
func BenchmarkReconcileSequential(b *testing.B) { benchBatch(b, pathSequential) }

// BenchmarkReconcileParallel is the full scan throughout on the worker
// pool; the speedup over BenchmarkReconcileSequential is the scalability
// headline.
func BenchmarkReconcileParallel(b *testing.B) { benchBatch(b, pathParallel) }

// BenchmarkReconcileFrontier runs the frontier from the first bucket:
// identical output with only the dirty neighborhoods of committed links
// re-scored each pass. Its ratio to BenchmarkReconcileParallel is the cost
// of frontier scheduling where commits are dense, tracked in
// BENCH_engines.json.
func BenchmarkReconcileFrontier(b *testing.B) { benchBatch(b, pathFrontier) }

// BenchmarkReconcileHybrid is the default path. A cold batch stays on the
// full scan until the commit rate decays, so this row must track
// BenchmarkReconcileParallel, not BenchmarkReconcileFrontier; the gap is the
// cost of the late-sweep handoff minus the frontier's win on the converged
// tail.
func BenchmarkReconcileHybrid(b *testing.B) { benchBatch(b, pathHybrid) }

// BenchmarkReconcileFrontierIncremental measures the production steady
// state the frontier exists for: a converged session ingesting a small
// batch of new trusted links and re-sweeping. The full scan pays a complete
// re-scan per sweep here; the frontier touches only the new links'
// neighborhoods.
func BenchmarkReconcileFrontierIncremental(b *testing.B) { benchIncremental(b, pathFrontier) }

// BenchmarkReconcileParallelIncremental is the same incremental workload on
// the full scan throughout, for the ratio.
func BenchmarkReconcileParallelIncremental(b *testing.B) { benchIncremental(b, pathParallel) }

// BenchmarkReconcileHybridIncremental is the incremental workload on the
// default path: by ingest time the run converged long ago and has handed
// off, so this row must track the frontier's several-fold win over
// BenchmarkReconcileParallelIncremental.
func BenchmarkReconcileHybridIncremental(b *testing.B) { benchIncremental(b, pathHybrid) }

// benchIncremental times, on path p, the ingest of 20 held-back seeds into
// a session converged untimed on the rest, and the re-sweep to stability.
func benchIncremental(b *testing.B, p testPath) {
	g1, g2, seeds := gateInstance()
	const hold = 20
	if len(seeds) <= hold {
		b.Fatal("instance has too few seeds")
	}
	early, late := seeds[:len(seeds)-hold], seeds[len(seeds)-hold:]
	opts := p.on(DefaultOptions())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewSession(g1, g2, early, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunUntilStable(ctx, 10); err != nil {
			b.Fatal(err)
		}
		// Keep only held-back seeds that do not collide with links the
		// converged run already discovered.
		fresh := late[:0:0]
		for _, p := range late {
			if s.m.LeftMatch(p.Left) == NoMatch && s.m.RightMatch(p.Right) == NoMatch {
				fresh = append(fresh, p)
			}
		}
		b.StartTimer()
		if err := s.AddSeeds(fresh); err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunUntilStable(ctx, 10); err != nil {
			b.Fatal(err)
		}
		s.Result()
	}
}
