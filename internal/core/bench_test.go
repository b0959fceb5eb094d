package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
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

// BenchmarkEngine compares the four in-core engines on the identical
// instance and configuration; their outputs are bit-identical, so the
// ns/op ratios are pure scheduling cost.
func BenchmarkEngine(b *testing.B) {
	for _, engine := range []Engine{EngineSequential, EngineParallel, EngineFrontier, EngineHybrid} {
		b.Run(engine.String(), func(b *testing.B) {
			o := DefaultOptions()
			o.Engine = engine
			benchRun(b, o)
		})
	}
}

// BenchmarkHybridCrossover is the calibration harness behind
// hybridCrossoverRate: on the BenchmarkEngine instance it prices one
// additional sweep at each point of the commit-rate decay, on both fixed
// regimes. Each iteration runs a fresh session through sweeps 1..s-1
// untimed, so its scoring state is warm, and times sweep s alone, reporting
// the sweep's commit rate (matched per node, scaled by 1e6 to survive the
// metric format) alongside ns/op. The rebuild row restores the frontier
// engine from the state at boundary s-1 instead and times sweep s: the
// all-dirty rebuild that a hybrid handoff, like any restore, pays in its
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
				o := DefaultOptions()
				o.Engine = EngineFrontier
				if row == "parallel" {
					o.Engine = EngineParallel
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
// dirty while the full engines keep re-scanning both node sets.
func BenchmarkEngineHighThreshold(b *testing.B) {
	for _, engine := range []Engine{EngineParallel, EngineFrontier} {
		b.Run(engine.String(), func(b *testing.B) {
			o := DefaultOptions()
			o.Engine = engine
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
