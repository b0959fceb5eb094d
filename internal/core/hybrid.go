package core

import "github.com/sociograph/reconcile/internal/trace"

// EngineHybrid regime control. The hybrid engine is a scheduling policy, not
// a new algorithm: before the switch the session runs the parallel engine's
// full scans, after it the frontier engine's incremental re-scoring. Both
// produce bit-identical matchings (the engine-equivalence suites pin this),
// so the switch decision influences performance only — a wrong regime is
// slow, never wrong.
//
// The decision signal is the per-sweep commit rate, which the session already
// tracks for the phase log: commits are what the frontier engine pays for
// (every committed link invalidates its neighborhood on both sides), while
// the parallel engine pays for graph size regardless. When the sweep commit
// rate is high, frontier invalidation churn approaches a full rescan and the
// all-levels re-scoring makes it several times slower than parallel (0.17x
// on the calibration instance's first sweep); when it is low, frontier
// skips almost all scoring work and wins many times over.

// hybridCrossoverRate is the per-sweep commit rate — pairs committed during
// the sweep divided by the total node count n1+n2 — below which EngineHybrid
// hands off to the frontier engine at the sweep boundary. The handoff is
// one-way: commit rates decay as the matching converges (the algorithm is
// monotone), and the frontier engine handles later seed bursts through its
// own invalidation.
//
// Measured with BenchmarkHybridCrossover (internal/core/bench_test.go) on
// the recording machine of BENCH_engines.json (linux/amd64, GOMAXPROCS=1,
// go1.24, 2026-10-17; min of 6 runs at -benchtime 5x), after the full scan
// began deriving the right side's proposals instead of walking it. On the
// 2x20k-node preferential-attachment calibration instance, per-sweep cost
// of a warm session (parallel vs frontier, ns), and of the frontier sweep
// right after a restore (rebuild):
//
//	rate 0.241   12.2M vs 72.1M  rebuild 77.3M  (parallel 5.9x)
//	rate 0.062    4.2M vs 12.4M  rebuild 16.1M  (parallel 2.9x)
//	rate 0.012    2.7M vs  5.3M  rebuild  7.9M  (parallel 2.0x)
//	rate 0.0023   1.9M vs  2.2M  rebuild  5.7M  (level)
//	rate 0.0006   1.8M vs  0.7M  rebuild  4.3M  (frontier 2.6x)
//	rate 0.0002   1.7M vs  0.16M rebuild  5.1M  (frontier 10x)
//
// The warm regimes are level at 0.0023 and the frontier wins from 0.0006
// on. Before the derivation the frontier already won at 0.0023 (3.6M vs
// 1.9M in a min-of-3 run of the same harness on the previous code), so the
// crossover has moved about one sweep later. The switch fires at the sweep boundary after a sweep
// whose rate is below 0.02, so here it fires after the 0.012 sweep: the
// 0.0023 sweep pays the all-dirty rebuild (the rebuild row, which also
// builds the candidate lists a handoff takes over), and every later sweep
// and every AddSeeds re-run runs at frontier speed. Firing a sweep later (a
// constant between 0.0023 and 0.012) would run the 0.0023 sweep on
// parallel and pay the rebuild on the 0.0006 one: 1.9M + 4.3M against
// 5.7M + 0.7M, within noise. A rebuild now costs two to four parallel
// sweeps at every rate, so the handoff pays off over the sweeps and re-runs
// that follow it; the serve and incremental workloads, which decide a move,
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

// PhaseRetainSweeps is the phase-log retention window, exported for callers
// that mirror the session's bounded log (cmd/serve's wire-phase feed).
const PhaseRetainSweeps = phaseRetainSweeps

// FrontierActive reports whether a hybrid session has handed off to the
// frontier regime. Always false for fixed-engine sessions (they have no
// regime to switch), always true once a hybrid session crosses over (the
// handoff is one-way). Safe wherever session state is readable — the run
// goroutine between buckets, or any goroutine while no run is in flight —
// which is exactly where the serve layer's progress hook samples it for
// the regime-switch counter.
func (s *Session) FrontierActive() bool {
	return s.opts.Engine == EngineHybrid && s.hybridSwitched
}

// endSweep performs the bookkeeping owed at every completed sweep boundary:
// the hybrid engine's regime decision and phase-log eviction. It must run at
// sweep completions and nowhere else — both effects are position-driven and
// exported state must not depend on run history.
func (s *Session) endSweep() {
	if s.opts.Engine == EngineHybrid && !s.hybridSwitched &&
		float64(s.sweepMatched) < hybridCrossoverRate*float64(s.g1.NumNodes()+s.g2.NumNodes()) {
		// Record the decision only; the frontier state is built lazily when
		// the next bucket actually runs, so a run that ends here pays
		// nothing, and a kill/restore at this exact boundary rebuilds the
		// identical state from the matching (the cross-engine restore path).
		// The frontier takes over the candidate lists; the full scan's
		// proposal buffers, and the pair buffers its count-scored left
		// passes filled, have no further use (the frontier selects through
		// selectLevels and records no pairs).
		s.hybridSwitched = true
		s.scan = nil
		if s.walk != nil {
			for _, sc := range s.walk.leftScorers {
				sc.pairs = nil
			}
		}
	}
	s.evictPhases()
}

// ensureHybridFrontier builds the frontier state for a hybrid session that
// has decided to switch but not yet run a bucket in the new regime. Building
// from the live matching queues every node once, exactly like a cross-engine
// restore, so the first frontier sweep re-scores each node once and the
// output is bit-identical to having run any fixed engine throughout.
func (s *Session) ensureHybridFrontier() {
	if s.hybridSwitched && s.fr == nil {
		sp := s.tracer.Begin(trace.KindHandoff, "parallel->frontier state build")
		s.fr = newFrontierState(s.g1, s.g2, s.m, s.lc, s.opts)
		sp.End()
	}
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
	s.phases = append(s.phases[:0], s.phases[cut:]...)
}

// inferHybridRegime returns the regime EngineHybrid would run at the state's
// schedule position, judged from the recorded commit history: true (frontier)
// when the last completed sweep's commit rate is below the crossover, false
// (parallel) when it is above or when no completed sweep is in the log.
// SwitchEngine uses it when a fixed-engine state, which records no regime,
// is restored onto the hybrid engine.
func (st *SessionState) inferHybridRegime() bool {
	last := st.Sweeps
	if st.NextBucket > 0 {
		last--
	}
	if last < 1 {
		return false
	}
	matched, seen := 0, false
	for _, ph := range st.Phases {
		if ph.Iteration == last {
			matched += ph.Matched
			seen = true
		}
	}
	if !seen {
		return false
	}
	return float64(matched) < hybridCrossoverRate*float64(st.N1+st.N2)
}
