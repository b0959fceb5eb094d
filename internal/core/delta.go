package core

import (
	"errors"
	"fmt"

	"github.com/sociograph/reconcile/internal/graph"
)

// State diffing: between two checkpoints of the same run, everything in a
// SessionState is either append-only (the matching is monotone; the phase
// history only grows, even though the retained window over it is bounded
// and slides) or a handful of scalars. A StateDelta captures exactly that
// change, so a per-sweep checkpoint costs O(links and phases added since
// the last checkpoint) instead of O(matching). ApplyDelta replays a delta
// onto the base state it was diffed from and reproduces the later state
// exactly — restore from (full + deltas) is therefore bit-identical to
// restore from a monolithic snapshot, which the delta round-trip fuzz suite
// and the chain resume-equivalence suite pin.

// ErrNotDiffable reports that two states cannot be related by a StateDelta —
// they belong to different runs (options, graph shape or seed boundary
// differ), the matching is not an append (never the case within one run), or
// the hybrid regime changed between them. Callers fall back to a full
// snapshot.
var ErrNotDiffable = errors.New("core: states are not delta-compatible; write a full snapshot")

// StateDelta is the change record between a base SessionState and a later
// state of the same run. The Base* fields fingerprint the position of the
// base state; ApplyDelta refuses a base at any other position, so a chain
// with a missing or reordered record fails loudly instead of replaying into
// a wrong state.
type StateDelta struct {
	// Base fingerprint: the schedule position, log lengths, evicted-phase
	// offset and hybrid regime of the state this delta applies to.
	BasePairs         int
	BasePhases        int
	BaseSweeps        int
	BaseNextBucket    int
	BasePhasesDropped int

	// The new schedule position.
	Sweeps     int
	NextBucket int

	// The target's phase-window offset and evicted totals. Deltas never span
	// a hybrid regime change (DiffStates refuses one), so a single regime
	// flag fingerprints the base and describes the target.
	PhasesDropped  int
	DroppedMatched int
	HybridFrontier bool

	// NewPairs holds the matching entries appended since the base state;
	// NewPhases the phase entries beyond the base window's end (the target
	// window may also have evicted part of the base's — PhasesDropped says
	// how far it slid).
	NewPairs  []graph.Pair
	NewPhases []PhaseStat
}

// DiffStates computes the delta from base to cur, two exported states of the
// same run with base the earlier checkpoint. It returns ErrNotDiffable when
// the states cannot be related by appends — different options, shapes, or
// seed boundaries, or a matching that is not an append (none of which occur
// between checkpoints of a live session) — or when a hybrid handoff lies
// between them.
func DiffStates(base, cur *SessionState) (*StateDelta, error) {
	if base == nil || cur == nil {
		return nil, errors.New("core: diff: nil state")
	}
	if base.Opts != cur.Opts {
		return nil, fmt.Errorf("%w: options differ", ErrNotDiffable)
	}
	if base.N1 != cur.N1 || base.N2 != cur.N2 {
		return nil, fmt.Errorf("%w: graph shapes differ", ErrNotDiffable)
	}
	if base.Seeds != cur.Seeds {
		return nil, fmt.Errorf("%w: seed boundaries differ", ErrNotDiffable)
	}
	if len(cur.Pairs) < len(base.Pairs) {
		return nil, fmt.Errorf("%w: target state is behind the base", ErrNotDiffable)
	}
	if base.HybridFrontier != cur.HybridFrontier {
		return nil, fmt.Errorf("%w: hybrid regime changed", ErrNotDiffable)
	}
	for i, p := range base.Pairs {
		if cur.Pairs[i] != p {
			return nil, fmt.Errorf("%w: matching is not an append (pair %d changed)", ErrNotDiffable, i)
		}
	}
	// The phase logs are bounded windows over the same append-only history;
	// compare them in global coordinates. The target window may start later
	// (eviction slid it) but must still cover everything the base's covers
	// beyond its own start, with identical entries.
	baseEnd := base.PhasesDropped + len(base.Phases)
	curEnd := cur.PhasesDropped + len(cur.Phases)
	if cur.PhasesDropped < base.PhasesDropped || curEnd < baseEnd ||
		cur.DroppedMatched < base.DroppedMatched {
		return nil, fmt.Errorf("%w: target state is behind the base", ErrNotDiffable)
	}
	for g := cur.PhasesDropped; g < baseEnd; g++ {
		if cur.Phases[g-cur.PhasesDropped] != base.Phases[g-base.PhasesDropped] {
			return nil, fmt.Errorf("%w: phase log is not an append (entry %d changed)", ErrNotDiffable, g)
		}
	}
	newFrom := baseEnd - cur.PhasesDropped
	if newFrom < 0 {
		newFrom = 0 // the target window starts past the base's end entirely
	}
	return &StateDelta{
		BasePairs:         len(base.Pairs),
		BasePhases:        len(base.Phases),
		BaseSweeps:        base.Sweeps,
		BaseNextBucket:    base.NextBucket,
		BasePhasesDropped: base.PhasesDropped,
		Sweeps:            cur.Sweeps,
		NextBucket:        cur.NextBucket,
		PhasesDropped:     cur.PhasesDropped,
		DroppedMatched:    cur.DroppedMatched,
		HybridFrontier:    cur.HybridFrontier,
		NewPairs:          append([]graph.Pair(nil), cur.Pairs[len(base.Pairs):]...),
		NewPhases:         append([]PhaseStat(nil), cur.Phases[newFrom:]...),
	}, nil
}

// ApplyDelta replays a delta onto the base state it was diffed from and
// returns the resulting state. The base's position is checked against the
// delta's fingerprint, so a delta applied out of order, onto the wrong base,
// or after corruption the codec's CRC somehow missed returns an error —
// never a wrong state — and leaves base as it was.
// ApplyDelta(base, d) for d = DiffStates(base, cur) reproduces cur exactly.
//
// The result takes over base's pair log: the new pairs are appended in
// place, growing the array geometrically when it is full, so replaying a
// full and k deltas copies the matching a few times in all rather than once
// per delta. base itself still reads as before, but a base must not be
// applied to twice: the second result would overwrite the first's appended
// entries.
func ApplyDelta(base *SessionState, d *StateDelta) (*SessionState, error) {
	if base == nil || d == nil {
		return nil, errors.New("core: apply delta: nil argument")
	}
	if len(base.Pairs) != d.BasePairs || len(base.Phases) != d.BasePhases ||
		base.Sweeps != d.BaseSweeps || base.NextBucket != d.BaseNextBucket ||
		base.PhasesDropped != d.BasePhasesDropped || base.HybridFrontier != d.HybridFrontier {
		return nil, fmt.Errorf("core: apply delta: base at position (pairs %d, phases %d+%d, sweep %d.%d, hybrid %v), delta expects (%d, %d+%d, %d.%d, %v)",
			len(base.Pairs), base.PhasesDropped, len(base.Phases), base.Sweeps, base.NextBucket, base.HybridFrontier,
			d.BasePairs, d.BasePhasesDropped, d.BasePhases, d.BaseSweeps, d.BaseNextBucket, d.HybridFrontier)
	}
	if d.PhasesDropped < d.BasePhasesDropped {
		return nil, fmt.Errorf("core: apply delta: phase window slides backwards (%d to %d)", d.BasePhasesDropped, d.PhasesDropped)
	}
	// Rebuild the target phase window in global coordinates: keep the part
	// of the base window the target still covers, then the appended entries.
	baseEnd := d.BasePhasesDropped + d.BasePhases
	var phases []PhaseStat
	if d.PhasesDropped >= baseEnd {
		phases = appendCopy(nil, d.NewPhases)
	} else {
		phases = appendCopy(base.Phases[d.PhasesDropped-d.BasePhasesDropped:], d.NewPhases)
	}
	return &SessionState{
		Opts:           base.Opts,
		N1:             base.N1,
		N2:             base.N2,
		Seeds:          base.Seeds,
		Sweeps:         d.Sweeps,
		NextBucket:     d.NextBucket,
		PhasesDropped:  d.PhasesDropped,
		DroppedMatched: d.DroppedMatched,
		HybridFrontier: d.HybridFrontier,
		Pairs:          append(base.Pairs, d.NewPairs...),
		Phases:         phases,
	}, nil
}

// appendCopy returns a fresh slice holding base followed by extra; unlike
// append(base, extra...) it never aliases the base's backing array.
func appendCopy[T any](base, extra []T) []T {
	if len(base)+len(extra) == 0 {
		return nil
	}
	out := make([]T, 0, len(base)+len(extra))
	return append(append(out, base...), extra...)
}
