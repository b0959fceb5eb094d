package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/sociograph/reconcile/internal/graph"
)

// SessionState is the complete serializable state of a Session beyond the two
// immutable graphs: the configuration, the matching with its seed boundary,
// the bucket-schedule position, the phase log and the hybrid regime bit.
// Everything else a session holds — linked-neighbor counts, the candidate
// lists, the frontier's proposal cache and worklists — is a function
// of the graphs and the matching, so the restored session's first bucket
// builds it instead of reading it. Exporting at any bucket boundary and
// restoring over the same graphs yields a session whose future output is
// bit-identical to the uninterrupted original — the guarantee the
// resume-equivalence and snapshot fuzz suites pin.
//
// All slices are deep copies; a SessionState shares no memory with the
// session it was exported from.
type SessionState struct {
	Opts Options

	// N1, N2 are the node counts of the graphs the state belongs to; restore
	// rejects a graph pair of any other shape before deeper checks run.
	N1, N2 int

	// Pairs is the matching in insertion order, the first Seeds of which are
	// the construction-time seed links.
	Pairs []graph.Pair
	Seeds int

	// Sweeps counts started sweeps and NextBucket is the index of the next
	// bucket within the current sweep (0 = at a sweep boundary), together the
	// exact position in the k·log D schedule.
	Sweeps     int
	NextBucket int

	// Phases is the bounded per-bucket progress log: the most recent
	// PhaseRetainSweeps sweeps. PhasesDropped counts the evicted older
	// entries (always a whole number of sweeps) and DroppedMatched the pairs
	// they accepted, so PhasesDropped+len(Phases) is the total number of
	// bucket passes ever run.
	Phases         []PhaseStat
	PhasesDropped  int
	DroppedMatched int

	// HybridFrontier records the regime at export: false while the session
	// is still in the full-scan regime, true once it has decided to hand off
	// to the frontier (the handoff is one-way).
	HybridFrontier bool
}

// ExportState deep-copies the session's complete state. It may be called at
// any bucket boundary — between runs, or from inside a progress hook (which
// runs synchronously between buckets on the run's own goroutine).
func (s *Session) ExportState() *SessionState {
	return &SessionState{
		Opts:           s.opts,
		N1:             s.g1.NumNodes(),
		N2:             s.g2.NumNodes(),
		Pairs:          slices.Clone(s.m.Pairs()),
		Seeds:          s.m.SeedCount(),
		Sweeps:         s.sweeps,
		NextBucket:     s.pos,
		Phases:         append([]PhaseStat(nil), s.phases...),
		PhasesDropped:  s.dropped.Buckets,
		DroppedMatched: s.dropped.Matched,
		HybridFrontier: s.hybridSwitched,
	}
}

// RestoreSession rebuilds a Session over the two graphs from an exported
// state. It builds no run state: the linked-neighbor counts, the candidate
// lists and, in the frontier regime, the frontier state are built from the
// matching at the restored session's first bucket (buildRunState), so a
// restore that is never run — a recovery boot restores every job and runs
// none of them — pays only for the matching. Every invariant the state must
// satisfy is checked before any of it is installed: an invalid or corrupt
// state returns an error and never a session in a half-restored shape. The
// restored session's future output is bit-identical to the exporting
// session's.
func RestoreSession(g1, g2 *graph.Graph, st *SessionState) (*Session, error) {
	if g1 == nil || g2 == nil {
		return nil, errors.New("core: restore: nil graph")
	}
	if st == nil {
		return nil, errors.New("core: restore: nil state")
	}
	if err := st.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if st.N1 != g1.NumNodes() || st.N2 != g2.NumNodes() {
		return nil, fmt.Errorf("core: restore: state is for %d x %d nodes, graphs have %d x %d",
			st.N1, st.N2, g1.NumNodes(), g2.NumNodes())
	}
	if st.Seeds < 0 || st.Seeds > len(st.Pairs) {
		return nil, fmt.Errorf("core: restore: seed count %d out of range for %d pairs", st.Seeds, len(st.Pairs))
	}
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), st.Pairs)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if m.Len() != len(st.Pairs) {
		// NewMatching tolerates exact duplicates; a session never records one.
		return nil, fmt.Errorf("core: restore: %d pairs contain duplicates", len(st.Pairs))
	}
	m.seeds = st.Seeds

	buckets := st.Opts.BucketSchedule(g1, g2)
	if st.Sweeps < 0 {
		return nil, fmt.Errorf("core: restore: negative sweep count %d", st.Sweeps)
	}
	if st.NextBucket < 0 || st.NextBucket >= len(buckets) {
		return nil, fmt.Errorf("core: restore: bucket position %d outside schedule of %d buckets", st.NextBucket, len(buckets))
	}
	if st.NextBucket > 0 && st.Sweeps == 0 {
		return nil, errors.New("core: restore: mid-sweep position without a started sweep")
	}
	// Every sweep runs the full schedule in order, so the phase log length
	// and per-entry schedule fields are determined by the position. The log
	// is a bounded window; the evicted prefix is whole sweeps only.
	ran := st.Sweeps * len(buckets)
	if st.NextBucket > 0 {
		ran = (st.Sweeps-1)*len(buckets) + st.NextBucket
	}
	if st.PhasesDropped < 0 || st.DroppedMatched < 0 {
		return nil, fmt.Errorf("core: restore: negative evicted-phase totals (%d entries, %d matched)", st.PhasesDropped, st.DroppedMatched)
	}
	if st.PhasesDropped%len(buckets) != 0 {
		return nil, fmt.Errorf("core: restore: evicted phase prefix of %d entries is not whole sweeps of %d buckets", st.PhasesDropped, len(buckets))
	}
	if st.PhasesDropped+len(st.Phases) != ran {
		return nil, fmt.Errorf("core: restore: phase log has %d+%d entries, schedule position implies %d", st.PhasesDropped, len(st.Phases), ran)
	}
	prevTotal := 0
	for i, ph := range st.Phases {
		gi := st.PhasesDropped + i
		if ph.Iteration != gi/len(buckets)+1 || ph.MinDegree != buckets[gi%len(buckets)] {
			return nil, fmt.Errorf("core: restore: phase %d (%+v) disagrees with the bucket schedule", gi, ph)
		}
		if ph.Matched < 0 || ph.TotalL < prevTotal {
			return nil, fmt.Errorf("core: restore: phase %d (%+v) not monotone", gi, ph)
		}
		prevTotal = ph.TotalL
	}
	if prevTotal > m.Len() {
		return nil, fmt.Errorf("core: restore: phase log reaches %d links, matching has %d", prevTotal, m.Len())
	}
	s := &Session{
		g1:             g1,
		g2:             g2,
		opts:           st.Opts,
		m:              m,
		phases:         append([]PhaseStat(nil), st.Phases...),
		dropped:        PhaseTotals{Buckets: st.PhasesDropped, Matched: st.DroppedMatched},
		sweeps:         st.Sweeps,
		pos:            st.NextBucket,
		hybridSwitched: st.HybridFrontier,
	}
	if st.NextBucket > 0 {
		// Rebuild the current sweep's commit counter from the retained log
		// (the window always covers the sweep in progress), so a session
		// restored mid-sweep makes the same regime decision at the
		// sweep's end as the uninterrupted run.
		for _, ph := range s.phases[len(s.phases)-st.NextBucket:] {
			s.sweepMatched += ph.Matched
		}
	}
	return s, nil
}
