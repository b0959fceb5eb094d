package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// FuzzEngineEquivalence generates random reconciliation instances and option
// combinations and asserts that all four engines — sequential reference,
// parallel, frontier, hybrid — produce bit-identical output: same pairs in
// the same discovery order and the same phase statistics. It then drives the
// frontier, hybrid and sequential engines through an incremental schedule
// (run, ingest the held-back seeds, run to convergence) and requires the
// final states to agree, pinning the frontier's persistent caches and
// invalidation and the hybrid's automatic regime handoff under arbitrary
// option mixes. Finally it kills a run at a cfg-derived bucket boundary and
// restores the exported state under a different engine — crossing the hybrid
// switch point in both directions — and requires the finished run to match.
//
// Run the smoke corpus with the normal test suite, or explore with
//
//	go test -fuzz=FuzzEngineEquivalence -fuzztime=20s ./internal/core
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint16(0))
	f.Add(uint64(2), uint16(150), uint16(0x35))
	f.Add(uint64(3), uint16(300), uint16(0x1ff))
	f.Add(uint64(77), uint16(200), uint16(0x0aa))
	f.Add(uint64(1234), uint16(90), uint16(0x155))

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, cfg uint16) {
		// Derive a small instance: PA parent, independent edge-sampled
		// copies, Bernoulli seed reveal — the paper's basic model.
		n := 20 + int(nRaw)%280
		r := xrand.New(seed)
		g := gen.PreferentialAttachment(r, n, 3+int(seed%3))
		g1, g2 := sampling.IndependentCopies(r, g, 0.6, 0.8)
		seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)

		// Decode the option combination from cfg bits.
		opts := DefaultOptions()
		opts.Threshold = 1 + int(cfg&0x3)         // 1..4
		opts.Iterations = 1 + int((cfg>>2)&0x1)   // 1..2
		opts.MinMargin = int((cfg >> 3) & 0x1)    // 0..1
		opts.MinBucketExp = int((cfg >> 4) & 0x1) // 0..1
		opts.DisableBucketing = cfg&0x20 != 0
		if cfg&0x40 != 0 {
			opts.Ties = TieLowestID
		}
		if cfg&0x80 != 0 {
			opts.Scoring = ScoreAdamicAdar
		}
		if cfg&0x100 != 0 {
			opts.MaxDegree = 1 + int(cfg>>9) // exercise schedule overrides
		}

		run := func(engine Engine, workers int) *Result {
			o := opts
			o.Engine = engine
			o.Workers = workers
			res, err := Reconcile(context.Background(), g1, g2, seeds, o)
			if err != nil {
				t.Fatalf("%v engine: %v", engine, err)
			}
			return res
		}
		seq := run(EngineSequential, 0)
		if par := run(EngineParallel, 3); !resultsIdentical(seq, par) {
			t.Fatalf("parallel diverges from sequential: %d vs %d pairs (cfg=%#x n=%d)",
				len(par.Pairs), len(seq.Pairs), cfg, n)
		}
		for _, workers := range []int{1, 4} {
			if fr := run(EngineFrontier, workers); !resultsIdentical(seq, fr) {
				t.Fatalf("frontier(workers=%d) diverges from sequential: %d vs %d pairs (cfg=%#x n=%d)",
					workers, len(fr.Pairs), len(seq.Pairs), cfg, n)
			}
		}
		if hy := run(EngineHybrid, 2); !resultsIdentical(seq, hy) {
			t.Fatalf("hybrid diverges from sequential: %d vs %d pairs (cfg=%#x n=%d)",
				len(hy.Pairs), len(seq.Pairs), cfg, n)
		}

		// Forced mid-run engine switch: kill a run at a cfg-derived bucket
		// boundary, export, restore under another engine (by the public
		// restore's rule), finish — still bit-identical. When the victim
		// is hybrid this crosses its automatic switch point from both sides.
		if total := len(seq.Phases); total > 1 {
			engines := []Engine{EngineSequential, EngineParallel, EngineFrontier, EngineHybrid}
			runAs := engines[int(cfg>>3)%len(engines)]
			resumeAs := engines[int(cfg>>5)%len(engines)]
			stop := 1 + int(seed>>13)%(total-1)
			o := opts
			o.Engine = runAs
			s, err := NewSession(g1, g2, seeds, o)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			buckets := 0
			s.SetProgress(func(PhaseEvent) {
				buckets++
				if buckets == stop {
					cancel()
				}
			})
			if _, err := s.Run(ctx, o.Iterations); err != context.Canceled {
				t.Fatalf("victim err = %v, want context.Canceled", err)
			}
			cancel()
			st := s.ExportState()
			st.SwitchEngine(resumeAs)
			restored, err := RestoreSession(g1, g2, st)
			if err != nil {
				t.Fatalf("%v->%v stop=%d: restore: %v", runAs, resumeAs, stop, err)
			}
			remaining := o.Iterations - restored.Sweeps()
			if _, err := restored.Run(context.Background(), remaining); err != nil {
				t.Fatal(err)
			}
			if got := restored.Result(); !resultsIdentical(seq, got) {
				t.Fatalf("%v->%v stop=%d: switched run diverged: %d vs %d pairs (cfg=%#x n=%d)",
					runAs, resumeAs, stop, len(got.Pairs), len(seq.Pairs), cfg, n)
			}
		}

		// Incremental schedule: the same session workflow on both engines.
		if len(seeds) < 2 {
			return
		}
		half := len(seeds) / 2
		incremental := func(engine Engine) (*Result, string) {
			o := opts
			o.Engine = engine
			s, err := NewSession(g1, g2, seeds[:half], o)
			if err != nil {
				t.Fatalf("%v engine: %v", engine, err)
			}
			s.Run(context.Background(), 1)
			// Late seeds may conflict with discovered links; the error (and
			// the partial application preceding it) must match across
			// engines, so it is part of the compared output.
			errStr := ""
			if err := s.AddSeeds(seeds[half:]); err != nil {
				errStr = err.Error()
			}
			s.RunUntilStable(context.Background(), 3)
			return s.Result(), errStr
		}
		seqInc, seqErr := incremental(EngineSequential)
		for _, engine := range []Engine{EngineFrontier, EngineHybrid} {
			inc, incErr := incremental(engine)
			if seqErr != incErr {
				t.Fatalf("incremental %v AddSeeds errors diverge: %q vs %q (cfg=%#x n=%d)",
					engine, incErr, seqErr, cfg, n)
			}
			if !resultsIdentical(seqInc, inc) {
				t.Fatalf("incremental %v diverges: %d vs %d pairs (cfg=%#x n=%d)",
					engine, len(inc.Pairs), len(seqInc.Pairs), cfg, n)
			}
		}
	})
}
