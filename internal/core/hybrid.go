package core

// Regime control. The handoff is a scheduling policy, not a new algorithm:
// before it the session runs full scans, after it the frontier's
// incremental re-scoring. Both produce bit-identical matchings (the
// engine-equivalence suites pin this), so the decision influences
// performance only — a wrong regime is slow, never wrong.
//
// The decision signal is the per-sweep commit rate, which the session already
// tracks for the phase log: commits are what the frontier pays for (every
// committed link invalidates its neighborhood on both sides), while the
// full scan pays for graph size regardless. When the sweep commit
// rate is high, frontier invalidation churn approaches a full rescan and the
// all-levels re-scoring makes it several times slower than the full scan (0.22x
// on the calibration instance's first sweep); when it is low, frontier
// skips almost all scoring work and wins many times over.

// hybridCrossoverRate is the per-sweep commit rate — pairs committed during
// the sweep divided by the total node count n1+n2 — below which a session
// hands off to the frontier at the sweep boundary. The handoff is one-way:
// commit rates decay as the matching converges (the algorithm is monotone),
// and the frontier handles later seed bursts through its own invalidation.
//
// Measured with BenchmarkHybridCrossover (internal/core/bench_test.go) on
// a shared two-vCPU Xeon VM (linux/amd64, GOMAXPROCS=1, go1.24.0,
// 2026-10-20; min of 12 runs at -benchtime 5x, in two batches of 6
// alternating with the previous commit's binary), after the frontier's
// right side began re-scoring a stale row only where a live left row
// targets it. On the 2x20k-node preferential-attachment calibration
// instance, per-sweep cost of a warm session (parallel vs frontier, ns),
// and of the frontier sweep right after a restore (rebuild):
//
//	rate 0.241    8.7M vs 39.3M  rebuild 36.4M  (parallel 4.5x)
//	rate 0.062    3.5M vs  7.7M  rebuild  9.1M  (parallel 2.2x)
//	rate 0.012    1.8M vs  2.2M  rebuild  4.6M  (parallel 1.2x)
//	rate 0.0023   1.5M vs  0.71M rebuild  3.9M  (frontier 2.1x)
//	rate 0.0006   1.3M vs  0.23M rebuild  3.7M  (frontier 5.9x)
//	rate 0.0002   1.3M vs  0.06M rebuild  3.4M  (frontier 22x)
//
// The same runs of the previous commit read rebuilds of 40.3M, 10.7M,
// 5.5M, 4.7M, 4.6M and 4.3M, so the rebuild fell 10-21%, and warm
// frontier sweeps of 45.2M, 9.3M, 3.2M, 1.05M, 0.35M and 0.09M; the
// parallel rows run unchanged code and read within 2%. The frontier now
// wins the warm 0.0023 sweep, where the two were level. The switch fires
// at the sweep boundary after a sweep whose rate is below 0.02, so here it
// fires after the 0.012 sweep: the 0.0023 sweep pays the all-dirty rebuild
// (the rebuild row, which also builds the candidate lists a handoff takes
// over), and every later sweep and every AddSeeds re-run runs at frontier
// speed. Firing a sweep later (a constant between 0.0023 and 0.012) would
// run the 0.0023 sweep on parallel and pay the rebuild on the 0.0006 one:
// 1.5M + 3.7M against 3.9M + 0.23M, 20% in the present constant's favour.
// Firing a sweep earlier (a constant between 0.012 and 0.062) would pay
// the rebuild on the 0.012 sweep and run the 0.0023 one warm: 4.6M + 0.71M
// against 1.8M + 3.9M, 8% in that constant's favour, within the 12% by
// which this host's batch minima moved. A rebuild costs about three parallel sweeps at the
// low rates, so the handoff pays off over the sweeps and re-runs that
// follow it; the serve and incremental workloads, which decide a move,
// were not measured with another constant, so it stays (ROADMAP).
// Commit-dense sweeps never trigger it: cold-batch sweeps on the recorded
// workloads run at rates 0.05-0.3 until convergence, incremental AddSeeds
// sweeps at <0.001.
const hybridCrossoverRate = 0.02

// phaseRetainSweeps bounds the session's phase log: at every completed sweep
// boundary, entries older than the most recent phaseRetainSweeps sweeps are
// folded into the session's cumulative PhaseTotals and dropped. Eviction is
// whole-sweep and purely position-driven, so an exported state at a given
// schedule position holds the same window regardless of how many runs,
// restores, or checkpoints led there — the resume-equivalence suites depend
// on that. 16 sweeps is an order of magnitude more than the paper's k=2
// schedule and comfortably covers every consumer (serve's live phase feed,
// the hybrid regime decision, delta diffing between per-sweep checkpoints)
// while keeping long-lived incremental sessions' checkpoints O(window), not
// O(lifetime).
const phaseRetainSweeps = 16

// PhaseRetainSweeps is the phase-log retention window, exported for the
// public API (reconcile.PhaseRetainSweeps).
const PhaseRetainSweeps = phaseRetainSweeps

// FrontierActive reports whether the session has handed off to the
// frontier regime; once true it stays true (the handoff is one-way). Safe
// wherever session state is readable — the run goroutine between buckets,
// or any goroutine while no run is in flight — which is exactly where the
// serve layer's progress hook samples it for the regime-switch counter.
func (s *Session) FrontierActive() bool { return s.hybridSwitched }

// endSweep performs the bookkeeping owed at every completed sweep boundary:
// the regime decision and phase-log eviction. It must run at sweep
// completions and nowhere else — both effects are position-driven and
// exported state must not depend on run history.
func (s *Session) endSweep() {
	if s.opts.pin != pinFullScan && !s.hybridSwitched &&
		float64(s.sweepMatched) < hybridCrossoverRate*float64(s.g1.NumNodes()+s.g2.NumNodes()) {
		// Record the decision only; buildRunState builds the frontier state
		// when the next bucket actually runs, so a run that ends here pays
		// nothing, and a kill/restore at this exact boundary builds the
		// identical state from the matching at the restored first bucket.
		// The frontier takes over the candidate lists; the full scan's
		// proposals and column words have no further use (the frontier
		// lends its scorers no words, so its selections fold nothing), and
		// no scorer holds the words past its pass, so dropping the scan
		// state frees them.
		s.hybridSwitched = true
		s.scan = nil
	}
	s.evictPhases()
}

// evictPhases drops phase-log entries older than the retention window,
// folding them into the cumulative totals. Called at completed sweep
// boundaries only, so the log always starts at a sweep boundary and the
// evicted prefix is a whole number of sweeps.
func (s *Session) evictPhases() {
	minIter := s.sweeps - phaseRetainSweeps + 1
	if minIter <= 1 {
		return
	}
	cut := 0
	for cut < len(s.phases) && s.phases[cut].Iteration < minIter {
		s.dropped.Buckets++
		s.dropped.Matched += s.phases[cut].Matched
		cut++
	}
	if cut == 0 {
		return
	}
	// Re-slice rather than shift: a Result holds a view of the window, which
	// must keep reading the entries it was returned with.
	s.phases = s.phases[cut:]
}
