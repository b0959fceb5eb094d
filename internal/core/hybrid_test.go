package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/trace"
)

// TestHybridMatchesSequential pins the hybrid engine's bit-identity against
// the sequential reference over batch runs on the standard instances.
func TestHybridMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		g1, g2, seeds := testInstance(seed, 300)
		opts := DefaultOptions()
		opts.Engine = EngineSequential
		seq, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Engine = EngineHybrid
		hy, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(seq, hy) {
			t.Fatalf("seed %d: hybrid %d pairs, sequential %d", seed, len(hy.Pairs), len(seq.Pairs))
		}
	}
}

// TestHybridIncrementalMatchesSequential drives the production workflow —
// run, ingest late seeds, run to convergence — across the switch point and
// requires identical output.
func TestHybridIncrementalMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{3, 9, 27} {
		g1, g2, seeds := testInstance(seed, 400)
		half := len(seeds) / 2
		run := func(engine Engine) *Result {
			o := DefaultOptions()
			o.Engine = engine
			s, err := NewSession(g1, g2, seeds[:half], o)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(context.Background(), 1)
			if err := s.AddSeeds(seeds[half:]); err != nil {
				t.Logf("engine %v: AddSeeds: %v", engine, err)
			}
			s.Run(context.Background(), 1)
			s.RunUntilStable(context.Background(), 4)
			return s.Result()
		}
		seq := run(EngineSequential)
		hy := run(EngineHybrid)
		if !resultsIdentical(seq, hy) {
			t.Fatalf("seed %d: incremental schedule diverged: seq %d pairs, hybrid %d",
				seed, len(seq.Pairs), len(hy.Pairs))
		}
	}
}

// TestHybridAutoSwitch pins the handoff mechanics: the session starts in the
// parallel regime (no frontier caches), the switch decision arrives once the
// per-sweep commit rate decays below the crossover, the frontier state is
// built lazily at the next bucket — and from then on converged sweeps
// re-score nothing, which is the scheduling win the handoff buys.
func TestHybridAutoSwitch(t *testing.T) {
	g1, g2, seeds := testInstance(5, 400)
	o := DefaultOptions()
	o.Engine = EngineHybrid
	s, err := NewSession(g1, g2, seeds, o)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(context.Background(), 1)
	if s.hybridSwitched {
		t.Fatal("switched during the commit-dense first sweep")
	}
	if s.fr != nil {
		t.Fatal("frontier caches exist before the switch")
	}
	s.RunUntilStable(context.Background(), 10)
	if !s.hybridSwitched {
		t.Fatal("no switch by convergence: a stable sweep commits nothing, which is below any crossover")
	}
	// The decision may have landed on the final sweep; one more sweep forces
	// the lazy build.
	s.Run(context.Background(), 1)
	if s.fr == nil {
		t.Fatal("frontier state not built after the switch")
	}
	idle := s.fr.rescored
	s.Run(context.Background(), 1)
	if s.fr.rescored != idle {
		t.Fatalf("converged hybrid sweep re-scored %d nodes, want 0", s.fr.rescored-idle)
	}
}

// TestHybridRestoreAfterSwitch kills a hybrid run at every bucket boundary
// of a multi-sweep schedule — both sides of the automatic switch — and pins
// that the exported regime flag matches the session, that restore resumes in
// that regime rather than restarting parallel, and that the restored run
// finishes bit-identically.
func TestHybridRestoreAfterSwitch(t *testing.T) {
	g1, g2, seeds := testInstance(11, 350)
	opts := DefaultOptions()
	opts.Engine = EngineHybrid
	// Enough sweeps to converge and switch mid-schedule: this instance's
	// commit decay crosses the rate crossover after sweep 4.
	opts.Iterations = 6

	full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	totalBuckets := full.Totals.Buckets
	if totalBuckets < 4 {
		t.Fatalf("instance too small to interrupt: %d buckets", totalBuckets)
	}

	sawSwitched := false
	for stop := 1; stop < totalBuckets; stop++ {
		victim := runToBoundary(t, g1, g2, seeds, opts, opts.Iterations, stop)
		st := victim.ExportState()
		if st.HybridFrontier != victim.hybridSwitched {
			t.Fatalf("stop=%d: exported regime flag %v, session %v", stop, st.HybridFrontier, victim.hybridSwitched)
		}
		sawSwitched = sawSwitched || st.HybridFrontier

		restored, err := RestoreSession(g1, g2, st)
		if err != nil {
			t.Fatalf("stop=%d: restore: %v", stop, err)
		}
		if restored.hybridSwitched != st.HybridFrontier {
			t.Fatalf("stop=%d: restored regime %v, snapshot says %v", stop, restored.hybridSwitched, st.HybridFrontier)
		}
		finishSchedule(t, restored, opts.Iterations)
		if got := restored.Result(); !resultsIdentical(full, got) {
			t.Fatalf("stop=%d: restored run diverged: %d pairs, want %d", stop, len(got.Pairs), len(full.Pairs))
		}
	}
	if !sawSwitched {
		t.Fatal("no boundary observed the frontier regime; the schedule never crossed the switch point")
	}
}

// TestRestoreRebuildsFrontierState pins the one frontier restore path: a
// state restored in the frontier regime — fixed EngineFrontier, or a hybrid
// past its handoff — gets its frontier state from the matching at restore,
// with the work counter starting over, and the resumed run records no
// handoff span.
func TestRestoreRebuildsFrontierState(t *testing.T) {
	g1, g2, seeds := testInstance(11, 350)
	for _, engine := range []Engine{EngineFrontier, EngineHybrid} {
		opts := DefaultOptions()
		opts.Engine = engine
		opts.Iterations = 6
		full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for stop := 1; stop < full.Totals.Buckets; stop++ {
			st := runToBoundary(t, g1, g2, seeds, opts, opts.Iterations, stop).ExportState()
			restored, err := RestoreSession(g1, g2, st)
			if err != nil {
				t.Fatalf("%v stop=%d: restore: %v", engine, stop, err)
			}
			frontierRegime := engine == EngineFrontier || st.HybridFrontier
			if (restored.fr != nil) != frontierRegime {
				t.Fatalf("%v stop=%d: frontier state built %v, regime is frontier %v", engine, stop, restored.fr != nil, frontierRegime)
			}
			if !frontierRegime {
				continue
			}
			checked++
			if restored.fr.rescored != 0 {
				t.Fatalf("%v stop=%d: restored work counter %d, want 0", engine, stop, restored.fr.rescored)
			}
			tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
			restored.SetTracer(tr)
			finishSchedule(t, restored, opts.Iterations)
			if n := len(spansByKind(tr.Export())[trace.KindHandoff]); n != 0 {
				t.Fatalf("%v stop=%d: resumed run recorded %d handoff spans, want 0", engine, stop, n)
			}
			if got := restored.Result(); !resultsIdentical(full, got) {
				t.Fatalf("%v stop=%d: restored run diverged", engine, stop)
			}
		}
		if checked == 0 {
			t.Fatalf("%v: no boundary in the frontier regime", engine)
		}
	}
}

// TestInferHybridRegime pins SwitchEngine's inference: a converged snapshot
// reads as the frontier regime, a commit-dense early one as parallel, and an
// empty history defaults to parallel.
func TestInferHybridRegime(t *testing.T) {
	g1, g2, seeds := testInstance(7, 400)
	o := DefaultOptions()
	o.Engine = EngineSequential
	s, err := NewSession(g1, g2, seeds, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.ExportState().inferHybridRegime() {
		t.Fatal("empty history inferred as frontier regime")
	}
	s.Run(context.Background(), 1)
	if s.ExportState().inferHybridRegime() {
		t.Fatal("commit-dense first sweep inferred as frontier regime")
	}
	s.RunUntilStable(context.Background(), 10)
	if !s.ExportState().inferHybridRegime() {
		t.Fatal("converged history inferred as parallel regime")
	}
}

// TestSwitchEngine pins the restore rule for the regime bit: a fixed target
// clears it, a hybrid target keeps a hybrid source's bit and infers one for
// a fixed source.
func TestSwitchEngine(t *testing.T) {
	g1, g2, seeds := testInstance(7, 400)
	o := DefaultOptions()
	o.Engine = EngineSequential
	s, err := NewSession(g1, g2, seeds, o)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilStable(context.Background(), 10)
	converged := s.ExportState() // infers as the frontier regime
	for _, tc := range []struct {
		from   Engine
		bit    bool
		to     Engine
		wantOn bool
	}{
		{EngineHybrid, true, EngineFrontier, false},
		{EngineHybrid, true, EngineParallel, false},
		{EngineHybrid, true, EngineHybrid, true},
		{EngineHybrid, false, EngineHybrid, false}, // kept, not inferred
		{EngineSequential, false, EngineHybrid, true},
		{EngineFrontier, false, EngineHybrid, true},
		{EngineParallel, false, EngineSequential, false},
	} {
		st := *converged
		st.Opts.Engine, st.HybridFrontier = tc.from, tc.bit
		st.SwitchEngine(tc.to)
		if st.Opts.Engine != tc.to || st.HybridFrontier != tc.wantOn {
			t.Errorf("%v (bit %v) -> %v: engine %v, bit %v; want bit %v",
				tc.from, tc.bit, tc.to, st.Opts.Engine, st.HybridFrontier, tc.wantOn)
		}
	}
}

// TestPhaseRetention pins the bounded phase log: a long-lived session keeps
// per-bucket entries for the last PhaseRetainSweeps sweeps only, folds the
// evicted prefix into Result.Totals without losing a single count, and
// export/restore at a late boundary reproduces the identical window and
// totals.
func TestPhaseRetention(t *testing.T) {
	g1, g2, seeds := testInstance(7, 200)
	for _, engine := range []Engine{EngineSequential, EngineHybrid} {
		t.Run(engine.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Engine = engine
			s, err := NewSession(g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			events, matchedSum := 0, 0
			s.SetProgress(func(e PhaseEvent) {
				events++
				matchedSum += e.Matched
			})
			const sweeps = phaseRetainSweeps + 5
			s.Run(context.Background(), sweeps)
			s.SetProgress(nil)

			buckets := len(opts.BucketSchedule(g1, g2))
			res := s.Result()
			if want := phaseRetainSweeps * buckets; len(res.Phases) != want {
				t.Fatalf("window holds %d entries, want %d", len(res.Phases), want)
			}
			if first := res.Phases[0].Iteration; first != sweeps-phaseRetainSweeps+1 {
				t.Fatalf("window starts at sweep %d, want %d", first, sweeps-phaseRetainSweeps+1)
			}
			if res.Totals.Buckets != events {
				t.Fatalf("Totals.Buckets = %d, ran %d bucket passes", res.Totals.Buckets, events)
			}
			if res.Totals.Matched != matchedSum {
				t.Fatalf("Totals.Matched = %d, phases reported %d", res.Totals.Matched, matchedSum)
			}

			st := s.ExportState()
			if st.PhasesDropped != (sweeps-phaseRetainSweeps)*buckets {
				t.Fatalf("exported %d evicted entries, want %d", st.PhasesDropped, (sweeps-phaseRetainSweeps)*buckets)
			}
			restored, err := RestoreSession(g1, g2, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.Result(); !resultsIdentical(res, got) {
				t.Fatal("restore across the evicted prefix changed the result")
			}
		})
	}
}

// TestPhaseRetentionResumeEquivalence extends the crash-injection harness
// past the retention horizon: on a schedule long enough that early sweeps
// are evicted, kill/export/restore/finish at boundaries before, around and
// after eviction starts — the finished run must stay bit-identical to the
// uninterrupted one, including the cumulative totals.
func TestPhaseRetentionResumeEquivalence(t *testing.T) {
	g1, g2, seeds := testInstance(13, 150)
	opts := DefaultOptions()
	opts.Engine = EngineHybrid
	opts.Iterations = phaseRetainSweeps + 4

	full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	buckets := len(opts.BucketSchedule(g1, g2))
	totalBuckets := full.Totals.Buckets
	if totalBuckets != opts.Iterations*buckets {
		t.Fatalf("ran %d bucket passes, want %d", totalBuckets, opts.Iterations*buckets)
	}

	stops := []int{
		1,                             // before anything is evicted
		phaseRetainSweeps * buckets,   // the last boundary with nothing evicted
		phaseRetainSweeps*buckets + 1, // first boundary after eviction begins
		(phaseRetainSweeps+2)*buckets + buckets/2, // mid-sweep, deep in eviction
		totalBuckets - 1, // the final boundary
	}
	for _, stop := range stops {
		victim := runToBoundary(t, g1, g2, seeds, opts, opts.Iterations, stop)
		st := victim.ExportState()
		restored, err := RestoreSession(g1, g2, st)
		if err != nil {
			t.Fatalf("stop=%d: restore: %v", stop, err)
		}
		finishSchedule(t, restored, opts.Iterations)
		if got := restored.Result(); !resultsIdentical(full, got) {
			t.Fatalf("stop=%d: restored run diverged (totals %+v, want %+v)", stop, got.Totals, full.Totals)
		}
	}
}

// TestPhaseRetentionHistoryIndependent pins that the exported state at a
// schedule position does not depend on how the session got there: reaching
// sweep S in one uninterrupted run and reaching it through an export/restore
// in the middle must produce byte-equal windows and eviction counters.
func TestPhaseRetentionHistoryIndependent(t *testing.T) {
	g1, g2, seeds := testInstance(3, 150)
	opts := DefaultOptions()
	opts.Engine = EngineSequential
	const sweeps = phaseRetainSweeps + 3

	direct, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct.Run(context.Background(), sweeps)

	hopped, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	hopped.Run(context.Background(), sweeps/2)
	mid, err := RestoreSession(g1, g2, hopped.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	mid.Run(context.Background(), sweeps-sweeps/2)

	if !resultsIdentical(direct.Result(), mid.Result()) {
		t.Fatal("export/restore mid-run changed the retained window or totals")
	}
}
