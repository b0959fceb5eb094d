package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/sociograph/reconcile/internal/trace"
)

// TestHybridMatchesSequential pins the default path's bit-identity against
// the single-worker full scan over batch runs on the standard instances.
func TestHybridMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		g1, g2, seeds := testInstance(seed, 300)
		seq, err := Reconcile(context.Background(), g1, g2, seeds, pathSequential.on(DefaultOptions()))
		if err != nil {
			t.Fatal(err)
		}
		hy, err := Reconcile(context.Background(), g1, g2, seeds, DefaultOptions())
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
		run := func(p testPath) *Result {
			s, err := NewSession(g1, g2, seeds[:half], p.on(DefaultOptions()))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(context.Background(), 1)
			if err := s.AddSeeds(seeds[half:]); err != nil {
				t.Logf("%s: AddSeeds: %v", p.name, err)
			}
			s.Run(context.Background(), 1)
			s.RunUntilStable(context.Background(), 4)
			return s.Result()
		}
		seq := run(pathSequential)
		hy := run(pathHybrid)
		if !resultsIdentical(seq, hy) {
			t.Fatalf("seed %d: incremental schedule diverged: seq %d pairs, hybrid %d",
				seed, len(seq.Pairs), len(hy.Pairs))
		}
	}
}

// TestHybridAutoSwitch pins the handoff mechanics: the session starts in the
// full-scan regime (no frontier caches), the switch decision arrives once the
// per-sweep commit rate decays below the crossover, the frontier state is
// built lazily at the next bucket — and from then on converged sweeps
// re-score nothing, which is the scheduling win the handoff buys.
func TestHybridAutoSwitch(t *testing.T) {
	g1, g2, seeds := testInstance(5, 400)
	s, err := NewSession(g1, g2, seeds, DefaultOptions())
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
	idle := s.fr.totalRescored()
	s.Run(context.Background(), 1)
	if s.fr.totalRescored() != idle {
		t.Fatalf("converged sweep re-scored %d nodes, want 0", s.fr.totalRescored()-idle)
	}
}

// TestHybridRestoreAfterSwitch kills a default run at every bucket boundary
// of a multi-sweep schedule — both sides of the automatic switch — and pins
// that the exported regime flag matches the session, that restore resumes in
// that regime rather than restarting the full scan, and that the restored
// run finishes bit-identically.
func TestHybridRestoreAfterSwitch(t *testing.T) {
	g1, g2, seeds := testInstance(11, 350)
	opts := DefaultOptions()
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

// requireNoRunState fails unless s holds neither linked counts nor a
// frontier state: the shape of a session that has not run a bucket yet.
func requireNoRunState(t *testing.T, s *Session, where string) {
	t.Helper()
	if s.lc != nil || s.fr != nil {
		t.Fatalf("%s: run state before the first bucket (counts %v, frontier %v)", where, s.lc != nil, s.fr != nil)
	}
}

// runFirstBucket runs s's next bucket alone and checks the run state it
// built: linked counts equal to a recount from the matching, and a frontier
// state exactly when the session ran the bucket in the frontier regime,
// whose live rows agree with its cache.
func runFirstBucket(t *testing.T, s *Session, where string) {
	t.Helper()
	frontier := s.hybridSwitched
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SetProgress(func(PhaseEvent) { cancel() })
	if _, err := s.Run(ctx, 1); err != nil && err != context.Canceled {
		t.Fatalf("%s: %v", where, err)
	}
	s.SetProgress(nil)
	if s.lc == nil {
		t.Fatalf("%s: no linked counts after the first bucket", where)
	}
	want := newLinkedCounts(s.g1, s.g2, s.m)
	if !slices.Equal(s.lc.left, want.left) || !slices.Equal(s.lc.right, want.right) {
		t.Fatalf("%s: linked counts differ from a recount of the matching", where)
	}
	if (s.fr != nil) != frontier {
		t.Fatalf("%s: frontier state built %v, bucket ran in the frontier regime %v", where, s.fr != nil, frontier)
	}
	if s.fr != nil {
		checkLiveRows(t, s, where)
	}
}

// TestRunStateLifetime pins when a session builds its run state, the linked
// counts and the frontier state: NewSession, RestoreSession and AddSeeds
// before the first bucket build neither, on every path, on both sides of
// the handoff and mid-sweep; the first bucket builds both from the
// matching (runFirstBucket). Only a live handoff records an engine-handoff
// span, exactly one; a session resumed in the frontier regime records none.
// Every run still finishes bit-identically to the uninterrupted one, or to
// a single-worker full scan driven through the same seeds.
func TestRunStateLifetime(t *testing.T) {
	g1, g2, seeds := testInstance(11, 350)
	half := len(seeds) / 2
	for _, p := range testPaths {
		t.Run(p.name, func(t *testing.T) {
			opts := p.on(DefaultOptions())
			opts.Iterations = 6
			full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			handoffs := func(tr *trace.Recorder) int { return len(spansByKind(tr.Export())[trace.KindHandoff]) }

			s, err := NewSession(g1, g2, seeds[:half], opts)
			if err != nil {
				t.Fatal(err)
			}
			requireNoRunState(t, s, "New")
			if err := s.AddSeeds(seeds[half:]); err != nil {
				t.Fatal(err)
			}
			requireNoRunState(t, s, "New+AddSeeds")
			tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
			s.SetTracer(tr)
			runFirstBucket(t, s, "New")
			finishSchedule(t, s, opts.Iterations)
			if !pairsEqual(s.Result().Pairs, full.Pairs) {
				t.Fatal("New+AddSeeds run diverged from New with every seed")
			}
			if p == pathHybrid && s.fr == nil {
				t.Fatal("the default path never handed off live")
			}
			if want := b2i(p == pathHybrid); handoffs(tr) != want {
				t.Fatalf("New run recorded %d handoff spans, want %d", handoffs(tr), want)
			}

			sides := map[bool]bool{}
			midSweep := false
			for stop := 1; stop < full.Totals.Buckets; stop++ {
				st := runToBoundary(t, g1, g2, seeds, opts, opts.Iterations, stop).ExportState()
				sides[st.HybridFrontier] = true
				midSweep = midSweep || st.NextBucket > 0
				where := fmt.Sprintf("stop=%d", stop)

				r, err := RestoreSession(g1, g2, st)
				if err != nil {
					t.Fatalf("%s: restore: %v", where, err)
				}
				requireNoRunState(t, r, where+" restore")
				tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
				r.SetTracer(tr)
				runFirstBucket(t, r, where+" restore")
				finishSchedule(t, r, opts.Iterations)
				if !resultsIdentical(full, r.Result()) {
					t.Fatalf("%s: restored run diverged", where)
				}
				live := p == pathHybrid && !st.HybridFrontier && r.fr != nil
				if handoffs(tr) != b2i(live) {
					t.Fatalf("%s: resumed run recorded %d handoff spans, want %d (restored in the frontier regime %v)",
						where, handoffs(tr), b2i(live), st.HybridFrontier)
				}

				// Seeds ingested before the first bucket only extend the
				// matching.
				r, err = RestoreSession(g1, g2, st)
				if err != nil {
					t.Fatal(err)
				}
				extra := unmatchedIdentity(r, 5)
				if err := r.AddSeeds(extra); err != nil {
					t.Fatal(err)
				}
				requireNoRunState(t, r, where+" restore+AddSeeds")
				runFirstBucket(t, r, where+" restore+AddSeeds")
				finishSchedule(t, r, opts.Iterations)
				ref := *st
				ref.Opts, ref.HybridFrontier = pathSequential.on(ref.Opts), false
				seq, err := RestoreSession(g1, g2, &ref)
				if err != nil {
					t.Fatal(err)
				}
				if err := seq.AddSeeds(extra); err != nil {
					t.Fatal(err)
				}
				finishSchedule(t, seq, opts.Iterations)
				if !resultsIdentical(seq.Result(), r.Result()) {
					t.Fatalf("%s: restore+AddSeeds diverged from the single-worker full scan", where)
				}
			}
			if !midSweep {
				t.Fatal("no mid-sweep restore")
			}
			if p == pathHybrid && !(sides[false] && sides[true]) {
				t.Fatalf("default path restored on one side of its handoff only: %v", sides)
			}
		})
	}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestPhaseRetention pins the bounded phase log: a long-lived session keeps
// per-bucket entries for the last PhaseRetainSweeps sweeps only, folds the
// evicted prefix into Result.Totals without losing a single count, and
// export/restore at a late boundary reproduces the identical window and
// totals.
func TestPhaseRetention(t *testing.T) {
	g1, g2, seeds := testInstance(7, 200)
	for _, p := range []testPath{pathSequential, pathHybrid} {
		t.Run(p.name, func(t *testing.T) {
			opts := p.on(DefaultOptions())
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
	opts := pathSequential.on(DefaultOptions())
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
