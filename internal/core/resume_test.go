package core

import (
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
)

// runToBoundary starts a session and cancels it after exactly `stop` bucket
// passes, returning the session frozen at that phase boundary.
func runToBoundary(t *testing.T, g1, g2 *graph.Graph, seeds []graph.Pair, opts Options, sweeps, stop int) *Session {
	t.Helper()
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buckets := 0
	s.SetProgress(func(PhaseEvent) {
		buckets++
		if buckets == stop {
			cancel()
		}
	})
	if _, err := s.Run(ctx, sweeps); err != context.Canceled {
		t.Fatalf("stop=%d: err = %v, want context.Canceled", stop, err)
	}
	if buckets != stop {
		t.Fatalf("ran %d buckets, want %d", buckets, stop)
	}
	s.SetProgress(nil)
	return s
}

// finishSchedule completes an interrupted k-sweep schedule: the partial
// sweep (free), then whatever full sweeps remain.
func finishSchedule(t *testing.T, s *Session, sweeps int) {
	t.Helper()
	remaining := sweeps - s.Sweeps()
	if _, err := s.Run(context.Background(), remaining); err != nil {
		t.Fatal(err)
	}
}

// TestResumeEquivalence is the crash-injection harness: for every engine,
// kill a run at every bucket boundary in turn, export the session state at
// the point of death, restore it into a fresh session, finish the schedule —
// and require the result to be bit-identical (pairs, discovery order, phase
// log) to the run that was never interrupted. It extends the PR 2
// cancel-prefix tests from "the prefix is valid" to "the resumed whole is
// the uninterrupted whole".
func TestResumeEquivalence(t *testing.T) {
	g1, g2, seeds := testInstance(5, 400)
	for _, engine := range []Engine{EngineSequential, EngineParallel, EngineFrontier, EngineHybrid} {
		t.Run(engine.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Engine = engine

			full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			totalBuckets := len(full.Phases)
			if totalBuckets < 4 {
				t.Fatalf("instance too small to interrupt: %d buckets", totalBuckets)
			}

			for stop := 1; stop < totalBuckets; stop++ {
				victim := runToBoundary(t, g1, g2, seeds, opts, opts.Iterations, stop)
				st := victim.ExportState()

				restored, err := RestoreSession(g1, g2, st)
				if err != nil {
					t.Fatalf("stop=%d: restore: %v", stop, err)
				}
				finishSchedule(t, restored, opts.Iterations)
				if got := restored.Result(); !resultsIdentical(full, got) {
					t.Fatalf("stop=%d: restored run diverged: %d pairs / %d phases, want %d / %d",
						stop, len(got.Pairs), len(got.Phases), len(full.Pairs), len(full.Phases))
				}

				// The victim itself must also finish identically: restore is a
				// copy, not a transfer.
				finishSchedule(t, victim, opts.Iterations)
				if got := victim.Result(); !resultsIdentical(full, got) {
					t.Fatalf("stop=%d: interrupted session itself diverged after finishing", stop)
				}
			}
		})
	}
}

// TestResumeEquivalenceCrossEngine restores frontier-engine snapshots into
// the sequential engine and sequential snapshots into the frontier engine at
// every boundary; the finished runs must still be bit-identical.
func TestResumeEquivalenceCrossEngine(t *testing.T) {
	g1, g2, seeds := testInstance(11, 350)
	opts := DefaultOptions()

	full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	totalBuckets := len(full.Phases)
	if totalBuckets < 4 {
		t.Fatalf("instance too small to interrupt: %d buckets", totalBuckets)
	}

	for _, tc := range []struct {
		name     string
		runAs    Engine
		resumeAs Engine
	}{
		{"frontier to sequential", EngineFrontier, EngineSequential},
		{"sequential to frontier", EngineSequential, EngineFrontier},
		{"parallel to frontier", EngineParallel, EngineFrontier},
		{"hybrid to frontier", EngineHybrid, EngineFrontier},
		{"hybrid to sequential", EngineHybrid, EngineSequential},
		{"frontier to hybrid", EngineFrontier, EngineHybrid},
		{"parallel to hybrid", EngineParallel, EngineHybrid},
		{"sequential to hybrid", EngineSequential, EngineHybrid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for stop := 1; stop < totalBuckets; stop++ {
				o := opts
				o.Engine = tc.runAs
				victim := runToBoundary(t, g1, g2, seeds, o, o.Iterations, stop)
				st := victim.ExportState()
				st.SwitchEngine(tc.resumeAs) // the public restore's rule
				restored, err := RestoreSession(g1, g2, st)
				if err != nil {
					t.Fatalf("stop=%d: restore: %v", stop, err)
				}
				finishSchedule(t, restored, o.Iterations)
				if got := restored.Result(); !resultsIdentical(full, got) {
					t.Fatalf("stop=%d: cross-engine resume diverged: %d pairs, want %d",
						stop, len(got.Pairs), len(full.Pairs))
				}
			}
		})
	}
}

// TestResumeMidSweepContinuation pins the schedule-position semantics
// directly: a cancelled mid-sweep run completes the interrupted sweep at the
// start of the next Run without consuming its sweep budget, so phase logs of
// interrupted and uninterrupted runs are identical bucket for bucket.
func TestResumeMidSweepContinuation(t *testing.T) {
	g1, g2, seeds := testInstance(7, 300)
	opts := DefaultOptions()

	full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	perSweep := len(full.Phases) / opts.Iterations
	if perSweep < 2 {
		t.Fatalf("schedule too short: %d buckets/sweep", perSweep)
	}

	// Stop inside the first sweep.
	s := runToBoundary(t, g1, g2, seeds, opts, opts.Iterations, 1)
	if s.Sweeps() != 1 {
		t.Fatalf("started sweeps = %d, want 1", s.Sweeps())
	}
	// Run(0) finishes the interrupted sweep and nothing more.
	if _, err := s.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Result().Phases); got != perSweep {
		t.Fatalf("after Run(0): %d phases, want %d (one completed sweep)", got, perSweep)
	}
	if s.Sweeps() != 1 {
		t.Fatalf("Run(0) consumed a sweep: %d", s.Sweeps())
	}
	// The remaining budget completes the schedule identically.
	finishSchedule(t, s, opts.Iterations)
	if got := s.Result(); !resultsIdentical(full, got) {
		t.Fatal("mid-sweep continuation diverged from the uninterrupted run")
	}
}

// TestRestoreSessionRejectsInvalidState walks every class of invariant the
// import checks enforce: a corrupted state must be refused, never installed.
func TestRestoreSessionRejectsInvalidState(t *testing.T) {
	g1, g2, seeds := testInstance(19, 200)
	opts := DefaultOptions()
	opts.Engine = EngineFrontier // a fixed engine: a set hybrid flag is a corruption
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(context.Background(), 1)
	good := s.ExportState()

	check := func(name string, corrupt func(st *SessionState)) {
		t.Helper()
		st := s.ExportState() // fresh deep copy each time
		corrupt(st)
		if _, err := RestoreSession(g1, g2, st); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}

	if _, err := RestoreSession(g1, g2, good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if _, err := RestoreSession(nil, g2, good); err == nil {
		t.Error("nil graph accepted")
	}

	check("invalid options", func(st *SessionState) { st.Opts.Threshold = 0 })
	check("wrong node counts", func(st *SessionState) { st.N1++ })
	check("seed count past pairs", func(st *SessionState) { st.Seeds = len(st.Pairs) + 1 })
	check("negative seed count", func(st *SessionState) { st.Seeds = -1 })
	check("out-of-range pair", func(st *SessionState) {
		st.Pairs[0].Left = graph.NodeID(g1.NumNodes())
	})
	check("conflicting pairs", func(st *SessionState) { st.Pairs[1] = st.Pairs[0] })
	check("negative sweeps", func(st *SessionState) { st.Sweeps = -1 })
	check("bucket position past schedule", func(st *SessionState) { st.NextBucket = len(st.Opts.BucketSchedule(g1, g2)) })
	check("phase log too short", func(st *SessionState) { st.Phases = st.Phases[:len(st.Phases)-1] })
	check("phase log off schedule", func(st *SessionState) { st.Phases[0].MinDegree++ })
	check("phase log non-monotone", func(st *SessionState) {
		st.Phases[len(st.Phases)-1].TotalL = st.Phases[0].TotalL - 1
	})
	check("negative evicted-phase count", func(st *SessionState) { st.PhasesDropped = -1 })
	check("negative evicted-match count", func(st *SessionState) { st.DroppedMatched = -1 })
	check("evicted prefix not whole sweeps", func(st *SessionState) {
		// Pretend one extra entry was evicted: the count stops being a
		// multiple of the schedule length and disagrees with the position.
		st.PhasesDropped++
		st.Phases = st.Phases[1:]
	})
	check("evicted prefix overstates position", func(st *SessionState) {
		st.PhasesDropped += len(st.Opts.BucketSchedule(g1, g2))
	})
	check("hybrid flag under fixed engine", func(st *SessionState) { st.HybridFrontier = true })
}

// TestExportStateIsDeepCopy ensures a snapshot is immune to the session
// continuing (and vice versa).
func TestExportStateIsDeepCopy(t *testing.T) {
	g1, g2, seeds := testInstance(23, 250)
	s, err := NewSession(g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.Run(context.Background(), 1)
	st := s.ExportState()
	pairsBefore := len(st.Pairs)
	phasesBefore := len(st.Phases)
	s.Run(context.Background(), 1)
	s.RunUntilStable(context.Background(), 5)
	if len(st.Pairs) != pairsBefore || len(st.Phases) != phasesBefore {
		t.Fatal("exported state aliases the live session")
	}
	restored, err := RestoreSession(g1, g2, st)
	if err != nil {
		t.Fatal(err)
	}
	finishSchedule(t, restored, DefaultOptions().Iterations)
	restored.RunUntilStable(context.Background(), 5)
	if !pairsEqual(restored.Result().Pairs, s.Result().Pairs) {
		t.Fatal("restored continuation diverged from the live session")
	}
}
