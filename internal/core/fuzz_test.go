package core

import (
	"context"
	"slices"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// FuzzEngineEquivalence generates random reconciliation instances and option
// combinations and asserts that the engine's four paths (testPaths: the full
// scan throughout at one worker and on a pool, the frontier from the first
// bucket, and the default handoff) produce bit-identical output: same pairs
// in the same discovery order and the same phase statistics. It then drives
// the frontier, default and single-worker full-scan paths through an
// incremental schedule (run, ingest the held-back seeds, run to convergence)
// and requires the final states to agree, pinning the frontier's persistent
// caches and invalidation and the automatic regime handoff under arbitrary
// option mixes. Finally it kills a run at a cfg-derived bucket boundary and
// restores the exported state on another path (resumeOn) — crossing the
// handoff from both sides — and requires the finished run to match.
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

		run := func(p testPath, workers int) *Result {
			o := opts
			o.Workers = workers
			res, err := Reconcile(context.Background(), g1, g2, seeds, p.on(o))
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			return res
		}
		seq := run(pathSequential, 0)
		if par := run(pathParallel, 3); !resultsIdentical(seq, par) {
			t.Fatalf("parallel diverges from sequential: %d vs %d pairs (cfg=%#x n=%d)",
				len(par.Pairs), len(seq.Pairs), cfg, n)
		}
		for _, workers := range []int{1, 4} {
			if fr := run(pathFrontier, workers); !resultsIdentical(seq, fr) {
				t.Fatalf("frontier(workers=%d) diverges from sequential: %d vs %d pairs (cfg=%#x n=%d)",
					workers, len(fr.Pairs), len(seq.Pairs), cfg, n)
			}
		}
		if hy := run(pathHybrid, 2); !resultsIdentical(seq, hy) {
			t.Fatalf("hybrid diverges from sequential: %d vs %d pairs (cfg=%#x n=%d)",
				len(hy.Pairs), len(seq.Pairs), cfg, n)
		}

		// Forced mid-run path switch: kill a run at a cfg-derived bucket
		// boundary, export, restore on another path (resumeOn), finish —
		// still bit-identical. When the victim or the resumed run is on the
		// default path this crosses the handoff from both sides.
		if total := len(seq.Phases); total > 1 {
			runAs := testPaths[int(cfg>>3)%len(testPaths)]
			resumeAs := testPaths[int(cfg>>5)%len(testPaths)]
			stop := 1 + int(seed>>13)%(total-1)
			o := runAs.on(opts)
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
			resumeOn(st, resumeAs)
			restored, err := RestoreSession(g1, g2, st)
			if err != nil {
				t.Fatalf("%s->%s stop=%d: restore: %v", runAs.name, resumeAs.name, stop, err)
			}
			remaining := o.Iterations - restored.Sweeps()
			if _, err := restored.Run(context.Background(), remaining); err != nil {
				t.Fatal(err)
			}
			if got := restored.Result(); !resultsIdentical(seq, got) {
				t.Fatalf("%s->%s stop=%d: switched run diverged: %d vs %d pairs (cfg=%#x n=%d)",
					runAs.name, resumeAs.name, stop, len(got.Pairs), len(seq.Pairs), cfg, n)
			}
		}

		// Incremental schedule: the same session workflow on each path.
		if len(seeds) < 2 {
			return
		}
		half := len(seeds) / 2
		incremental := func(p testPath) (*Result, string) {
			s, err := NewSession(g1, g2, seeds[:half], p.on(opts))
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			s.Run(context.Background(), 1)
			// Late seeds may conflict with discovered links; the error (and
			// the partial application preceding it) must match across
			// paths, so it is part of the compared output.
			errStr := ""
			if err := s.AddSeeds(seeds[half:]); err != nil {
				errStr = err.Error()
			}
			s.RunUntilStable(context.Background(), 3)
			return s.Result(), errStr
		}
		seqInc, seqErr := incremental(pathSequential)
		for _, p := range []testPath{pathFrontier, pathHybrid} {
			inc, incErr := incremental(p)
			if seqErr != incErr {
				t.Fatalf("incremental %s AddSeeds errors diverge: %q vs %q (cfg=%#x n=%d)",
					p.name, incErr, seqErr, cfg, n)
			}
			if !resultsIdentical(seqInc, inc) {
				t.Fatalf("incremental %s diverges: %d vs %d pairs (cfg=%#x n=%d)",
					p.name, len(inc.Pairs), len(seqInc.Pairs), cfg, n)
			}
		}
	})
}

// FuzzNaiveEquivalence compares every path of the engine (testPaths) with
// naiveReconcile, a reference that shares none of the engine's scoring
// code, on tiny random instances under the paper's count ranking with no
// margin: T from 1 to 4, either tie policy, bucketing on or off, a
// MinBucketExp of 0 or 1, an optional MaxDegree override, and one or two
// sweeps. The pairs must agree in discovery order. The corpus covers T 1 to
// 3 under both tie policies and T 4 under TieReject, on instances that find
// links beyond their seeds. Explore with
//
//	go test -fuzz=FuzzNaiveEquivalence -fuzztime=20s -run '^FuzzNaiveEquivalence$' ./internal/core
func FuzzNaiveEquivalence(f *testing.F) {
	f.Add(uint64(3), uint8(70), uint16(0x00))   // T1, TieReject
	f.Add(uint64(5), uint8(70), uint16(0x14))   // T1, TieLowestID, MinBucketExp 1
	f.Add(uint64(9), uint8(70), uint16(0x29))   // T2, TieReject, unbucketed, two sweeps
	f.Add(uint64(1), uint8(70), uint16(0x05))   // T2, TieLowestID
	f.Add(uint64(11), uint8(60), uint16(0x22))  // T3, TieReject, two sweeps
	f.Add(uint64(11), uint8(60), uint16(0x1c6)) // T3, TieLowestID, MaxDegree 4
	f.Add(uint64(11), uint8(60), uint16(0x33))  // T4, TieReject, MinBucketExp 1, two sweeps

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, cfg uint16) {
		n := 10 + int(nRaw)%71
		r := xrand.New(seed)
		g := gen.PreferentialAttachment(r, n, 2+int(seed%3))
		g1, g2 := sampling.IndependentCopies(r, g, 0.7, 0.7)
		seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)

		opts := DefaultOptions()
		opts.Threshold = 1 + int(cfg&0x3) // 1..4
		if cfg&0x4 != 0 {
			opts.Ties = TieLowestID
		}
		opts.DisableBucketing = cfg&0x8 != 0
		opts.MinBucketExp = int((cfg >> 4) & 0x1)
		opts.Iterations = 1 + int((cfg>>5)&0x1)
		if cfg&0x40 != 0 {
			opts.MaxDegree = 1 + int((cfg>>7)&0xf)
		}
		opts.Workers = 3

		want := naiveReconcile(t, g1, g2, seeds, opts)
		for _, p := range testPaths {
			res, err := Reconcile(context.Background(), g1, g2, seeds, p.on(opts))
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if !slices.Equal(res.Pairs, want) {
				t.Fatalf("%s: %d pairs, the reference %d (cfg=%#x n=%d)", p.name, len(res.Pairs), len(want), cfg, n)
			}
		}
	})
}
