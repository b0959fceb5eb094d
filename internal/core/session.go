package core

import (
	"context"
	"fmt"

	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/trace"
)

// PhaseEvent describes one completed bucket pass. Sessions deliver events to
// the progress hook (SetProgress) synchronously as the run advances, so a
// caller can observe phase, bucket and match counts live — and cancel the
// run's context from inside the hook if it has seen enough.
type PhaseEvent struct {
	Iteration  int // 1-based sweep number, cumulative across Runs
	Bucket     int // 1-based bucket index within the sweep
	Buckets    int // buckets per sweep under the current schedule
	MinDegree  int // the 2^j degree floor of this pass
	Matched    int // pairs accepted in this pass
	TotalLinks int // |L| after the pass, seeds included
}

// Session is the incremental form of Reconcile for production pipelines:
// networks are reconciled once, then new trusted links trickle in (users
// keep connecting their accounts) and the matching is extended without
// recomputing from scratch. A Session holds the evolving link set and its
// bookkeeping; each Run performs full bucket sweeps, so results after
// AddSeeds+Run are exactly what a fresh Reconcile with the union of seeds
// would eventually find (the algorithm is monotone: links are never
// retracted).
type Session struct {
	g1, g2 *graph.Graph
	opts   Options
	m      *Matching
	// lc and fr are the run state a bucket reads beyond the matching: the
	// linked-neighbor counts, and the frontier's persistent scheduling
	// state, non-nil in the frontier regime only. Both are functions of the
	// graphs and the matching, built by buildRunState at the first bucket a
	// session runs — never by NewSession or RestoreSession — and never
	// exported.
	lc *linkedCounts
	fr *frontierState
	// walk is the candidate lists and scorers both regimes score with,
	// created at the first bucket of either regime (each side's lists at
	// their first walk) and kept across the handoff. scan is the full
	// scan's proposal buffers, built at the first full-scan bucket and
	// dropped at the handoff. Neither is exported.
	walk   *walkState
	scan   *scanState
	phases []PhaseStat
	// dropped aggregates the phase entries evicted from the bounded log
	// (see evictPhases); phases plus dropped is the complete history.
	dropped PhaseTotals
	sweeps  int
	pos     int // next bucket index within the current sweep; 0 = sweep boundary
	// sweepMatched counts the pairs committed in the current sweep — the
	// regime signal, reset when a sweep is claimed.
	sweepMatched int
	// hybridSwitched is the regime bit: the one-way handoff decision to the
	// frontier regime. The frontier state itself is built lazily at the
	// next bucket.
	hybridSwitched bool
	progress       func(PhaseEvent)
	// tracer receives execution spans (sweeps, buckets, handoffs, seed
	// ingests) when installed. Like progress it is not part of exported
	// state: a restored session gets its tracer re-installed by the caller.
	// The session never reads a clock — all timestamps come from the
	// recorder, whose clock is injectable, so determinism is untouched.
	tracer *trace.Recorder
	// sweepSpan is the open span of the sweep currently running. It is
	// begun lazily at the first bucket that runs under the sweep — which,
	// after a mid-sweep restore, is not the sweep-claim boundary — so a
	// resumed sweep gets exactly one span covering its post-restore part
	// and sweeps are never double-counted across a kill/resume.
	sweepSpan *trace.Active
}

// NewSession prepares an incremental matcher over the two networks with the
// initial seed links. The Iterations option is ignored; sweeps are driven
// by Run.
func NewSession(g1, g2 *graph.Graph, seeds []graph.Pair, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if g1 == nil || g2 == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		return nil, err
	}
	return &Session{g1: g1, g2: g2, opts: opts, m: m, hybridSwitched: opts.pin == pinFrontier}, nil
}

// AddSeeds injects newly learned trusted links, in order. A seed whose
// endpoints are already linked to each other is ignored. A seed conflicting
// with an existing link (either endpoint linked elsewhere) stops the
// ingestion with an error: the seeds before it stay ingested, and it and
// every seed after it are dropped. Before the session's first bucket it
// only extends the matching, which the run state is then built from.
func (s *Session) AddSeeds(seeds []graph.Pair) error {
	if s.tracer != nil {
		sp := s.tracer.Begin(trace.KindSeedIngest, fmt.Sprintf("%d seeds", len(seeds)))
		defer sp.End()
	}
	for _, p := range seeds {
		if int(p.Left) < len(s.m.left) && s.m.left[p.Left] == p.Right {
			continue // already known
		}
		if err := s.m.Add(p); err != nil {
			return err
		}
		if s.lc != nil {
			s.lc.addPair(s.g1, s.g2, p)
		}
		if s.fr != nil {
			s.fr.invalidatePair(s.g1, s.g2, s.m, s.lc, p)
		}
	}
	return nil
}

// SetProgress installs a hook called synchronously after every bucket pass.
// A nil fn removes the hook. The hook must not call back into the Session.
func (s *Session) SetProgress(fn func(PhaseEvent)) { s.progress = fn }

// SetTracer installs a span recorder observing the session's execution
// (sweeps, bucket phases, hybrid handoff, seed ingests). A nil tr removes
// it. Like the progress hook, the tracer does not serialize with session
// state — restore paths re-install it.
func (s *Session) SetTracer(tr *trace.Recorder) { s.tracer = tr }

// Sweeps returns the number of sweeps started so far (a sweep interrupted by
// cancellation counts: its remaining buckets run, at no extra sweep cost, at
// the start of the next Run). Iterations - Sweeps is therefore the number of
// sweeps still owed on the original schedule.
func (s *Session) Sweeps() int { return s.sweeps }

// Graphs returns the two networks the session reconciles. The graphs are
// immutable and shared, not copied.
func (s *Session) Graphs() (g1, g2 *graph.Graph) { return s.g1, s.g2 }

// Run performs the given number of full bucket sweeps and returns how many
// new links were found. It honors cancellation and deadlines: the context
// is checked at every bucket-phase boundary, and on expiry the run stops
// there with ctx.Err(). Links found before the stop are kept — the session
// remains valid, Result reflects the partial progress, and a later Run
// picks up exactly where this one stopped: a sweep interrupted
// mid-schedule is completed first (its remaining buckets do not count
// toward the new call's sweep budget), so an interrupted schedule replays
// bucket for bucket as if it had never stopped. Run with sweeps <= 0 runs
// nothing beyond that completion.
func (s *Session) Run(ctx context.Context, sweeps int) (int, error) {
	found := 0
	buckets := s.opts.BucketSchedule(s.g1, s.g2)
	remaining := sweeps
	for remaining > 0 || s.pos > 0 {
		// Check before every bucket — in particular before claiming a sweep
		// number: a cancelled run must not consume an iteration label no
		// bucket ever ran under.
		if err := ctx.Err(); err != nil {
			return found, err
		}
		if s.pos == 0 {
			s.sweeps++
			remaining--
			s.sweepMatched = 0
		}
		if s.tracer != nil && s.sweepSpan == nil {
			// Begun at the first bucket that runs under this sweep — at the
			// claim above normally, mid-schedule after a restore — so every
			// sweep gets exactly one span even across kill/resume.
			s.tracer.SetSweep(s.sweeps)
			s.sweepSpan = s.tracer.Begin(trace.KindSweep, fmt.Sprintf("sweep %d", s.sweeps))
		}
		s.buildRunState()
		bi := s.pos
		minDeg := buckets[bi]
		var bsp *trace.Active
		if s.tracer != nil {
			bsp = s.tracer.Begin(trace.KindBucket, "")
		}
		if s.walk == nil {
			s.walk = &walkState{}
		}
		var matched int
		if s.fr != nil {
			matched = s.fr.runBucket(s.g1, s.g2, s.m, s.lc, s.walk, bi, minDeg, s.opts)
		} else {
			if s.scan == nil {
				s.scan = newScanState(s.g1, s.g2)
			}
			matched = s.scan.runBucket(s.g1, s.g2, s.m, s.lc, s.walk, minDeg, s.opts)
		}
		if bsp != nil {
			bsp.SetDetail(fmt.Sprintf("b%d/%d min %d matched %d", bi+1, len(buckets), minDeg, matched))
			bsp.End()
		}
		s.pos = bi + 1
		if s.pos == len(buckets) {
			s.pos = 0
		}
		found += matched
		s.sweepMatched += matched
		s.phases = append(s.phases, PhaseStat{
			Iteration: s.sweeps,
			MinDegree: minDeg,
			Matched:   matched,
			TotalL:    s.m.Len(),
		})
		if s.pos == 0 {
			s.endSweep()
			s.sweepSpan.End()
			s.sweepSpan = nil
		}
		if s.progress != nil {
			s.progress(PhaseEvent{
				Iteration:  s.sweeps,
				Bucket:     bi + 1,
				Buckets:    len(buckets),
				MinDegree:  minDeg,
				Matched:    matched,
				TotalLinks: s.m.Len(),
			})
		}
	}
	return found, nil
}

// buildRunState builds, from the current matching, the run state the next
// bucket reads and the session does not hold yet: the linked-neighbor
// counts at its first bucket, and the frontier state at its first bucket in
// the frontier regime. The frontier build queues every unmatched node with
// at least T linked neighbors, so the first refresh re-scores every node
// that could propose against the current matching, which by the clean-row
// invariant reproduces the rows incremental maintenance would hold,
// whatever AddSeeds added before it. Only a session whose counts already
// exist ran full-scan buckets and is handing off live, so only that build
// records an engine-handoff span; a session restored in the frontier regime
// handed off before it was exported.
func (s *Session) buildRunState() {
	handoff := s.lc != nil
	if s.lc == nil {
		s.lc = newLinkedCounts(s.g1, s.g2, s.m)
	}
	if s.fr != nil || !s.hybridSwitched {
		return
	}
	var sp *trace.Active
	if handoff {
		sp = s.tracer.Begin(trace.KindHandoff, "parallel->frontier state build")
	}
	s.fr = newFrontierState(s.g1, s.g2, s.m, s.lc, s.opts)
	sp.End()
}

// RunUntilStable sweeps until a full sweep finds nothing new, maxSweeps is
// reached, or the context ends (checked at bucket boundaries, like Run),
// returning the total number of links found. A sweep a previous run left
// interrupted is completed first, outside the maxSweeps budget and the
// stability check — its links belong to a sweep that already counted, so
// only whole fresh sweeps decide convergence.
func (s *Session) RunUntilStable(ctx context.Context, maxSweeps int) (int, error) {
	total, err := s.Run(ctx, 0) // finish any interrupted sweep
	if err != nil {
		return total, err
	}
	for i := 0; i < maxSweeps; i++ {
		found, err := s.Run(ctx, 1)
		total += found
		if err != nil {
			return total, err
		}
		if found == 0 {
			break
		}
	}
	return total, nil
}

// Len returns the current number of links, seeds included.
func (s *Session) Len() int { return s.m.Len() }

// Result snapshots the session as a Result (same layout as Reconcile's). It
// copies nothing: Pairs, NewPairs and Phases are read-only views of the
// append-only link log and phase window (see Result), so a call costs
// nothing per link or phase.
func (s *Session) Result() *Result {
	t := s.dropped
	t.Buckets += len(s.phases)
	for _, ph := range s.phases {
		t.Matched += ph.Matched
	}
	n := len(s.phases)
	return &Result{
		Pairs:    s.m.Pairs(),
		NewPairs: s.m.NewPairs(),
		Seeds:    s.m.SeedCount(),
		Phases:   s.phases[:n:n],
		Totals:   t,
	}
}
