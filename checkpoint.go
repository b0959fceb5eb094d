package reconcile

import (
	"errors"
	"fmt"
	"io"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/snapshot"
)

// Checkpoint chains: a store that checkpoints every sweep pays O(links) per
// checkpoint with SnapshotState — on a large converged session, the whole
// matching rewritten to record a handful of new links. A Checkpointer
// instead writes a full state record occasionally and cheap delta records
// (the pairs and phase entries since the last checkpoint) in between;
// replaying (full + deltas) restores the identical state, so the
// resume-equivalence guarantee carries over unchanged.
//
// A chain is cut into R ≥ 1 node ranges, fixed for its life. Each checkpoint
// is R records, every one an ordinary state or delta record of its range.
// Range 0, the head, also carries what must not be split — the phase window
// — and the R−1 tails repeat the head's schedule and regime scalars, so a
// replay can prove they belong to the head's checkpoint. With R = 1 the head is the exported state itself: its fulls
// are SnapshotState bytes and its deltas plain delta records. With R > 1 a
// store can encode and fsync the ranges of one huge job on every core it
// has. cmd/serve's -data-dir store is the reference consumer: it writes the
// tails first and the head last, so the head's durable rename commits the
// checkpoint.

// MaxStateRanges is the largest range count a checkpoint chain may use.
const MaxStateRanges = core.MaxStateRanges

// StateRangeCount returns the range count for a graph pair:
// ceil((n1+n2)/targetNodes) clamped to [1, MaxStateRanges]; non-positive
// targetNodes disables sharding (returns 1).
func StateRangeCount(n1, n2, targetNodes int) int {
	return core.RangeCount(n1, n2, targetNodes)
}

// ErrFullRequired reports that a delta checkpoint cannot be prepared — there
// is no base yet, or the session changed in a way deltas do not express
// (a hybrid session handing off to the frontier regime). Callers prepare a
// full checkpoint and continue.
var ErrFullRequired = errors.New("reconcile: delta checkpoint requires a full snapshot first")

// A Checkpointer writes a Reconciler's checkpoint chain over a fixed number
// of node ranges: full checkpoints interleaved with delta checkpoints, each
// delta relative to the checkpoint committed immediately before it. Each
// checkpoint is prepared as one unit (Prepare), its ranges encoded to the
// caller's writers in any order or in parallel (Encode), and committed
// (Commit) once every record durably landed. The caller owns durability
// ordering: after a failed or discarded write, Reset, so the next
// checkpoint is a full rather than a delta over the gap. The zero value
// writes one-range chains.
//
// A Checkpointer follows the same calling rules as Snapshot: drive it
// between runs or from inside a progress hook, never concurrently with a
// run from another goroutine.
type Checkpointer struct {
	ranges int
	bases  []*core.SessionState
}

// NewCheckpointer returns a checkpointer writing chains of the given range
// count, clamped to [1, MaxStateRanges]. The count is fixed for the life of
// the chain: recovery must merge with the geometry the chain was written
// with.
func NewCheckpointer(ranges int) *Checkpointer {
	return &Checkpointer{ranges: min(max(ranges, 1), MaxStateRanges)}
}

// Ranges returns the fixed range count.
func (c *Checkpointer) Ranges() int { return max(c.ranges, 1) }

// Reset drops the delta base: the next Prepare must be a full.
func (c *Checkpointer) Reset() { c.bases = nil }

// A Checkpoint is one prepared checkpoint: Ranges() records, all frozen from
// a single ExportState and safe to encode from any goroutine until Commit or
// abandonment.
type Checkpoint struct {
	full   bool
	parts  []*core.SessionState
	deltas []*core.StateDelta
}

// Full reports whether the records are full state records (true) or delta
// records against the previous committed checkpoint (false).
func (ck *Checkpoint) Full() bool { return ck.full }

// Ranges returns the checkpoint's range count.
func (ck *Checkpoint) Ranges() int { return len(ck.parts) }

// Encode writes range i's record — range 0 is the head — as a state record
// when Full, a delta record otherwise. Ranges may be encoded concurrently,
// each to its own writer.
func (ck *Checkpoint) Encode(i int, w io.Writer) error {
	if i < 0 || i >= len(ck.parts) {
		return fmt.Errorf("reconcile: checkpoint has no range %d (ranges %d)", i, len(ck.parts))
	}
	if ck.full {
		return snapshot.WriteState(w, ck.parts[i])
	}
	return snapshot.WriteDelta(w, ck.deltas[i])
}

// Prepare exports the Reconciler's state and splits it into the next
// checkpoint of the chain. With wantFull false it prepares per-range deltas
// against the previous committed checkpoint, freezing the pair-log cut at
// the base geometry so every range diffs as a pure prefix; if there is no
// base, or any range is not delta-expressible (seed ingestion, engine
// switch), nothing is prepared and ErrFullRequired says to retry with
// wantFull true.
func (c *Checkpointer) Prepare(r *Reconciler, wantFull bool) (*Checkpoint, error) {
	if !wantFull && c.bases == nil {
		return nil, ErrFullRequired
	}
	st := r.sess.ExportState()
	if wantFull {
		parts, err := core.SplitStateRanges(st, c.Ranges(), nil)
		if err != nil {
			return nil, err
		}
		return &Checkpoint{full: true, parts: parts}, nil
	}
	parts, err := core.SplitStateRanges(st, c.Ranges(), core.PairChunkStarts(c.bases))
	if err != nil {
		// A frozen cut that no longer fits the state means the session
		// moved somewhere deltas do not express; restart the chain.
		return nil, fmt.Errorf("%w: %v", ErrFullRequired, err)
	}
	deltas := make([]*core.StateDelta, len(parts))
	for i := range parts {
		d, err := core.DiffStates(c.bases[i], parts[i])
		if err != nil {
			if errors.Is(err, core.ErrNotDiffable) {
				return nil, fmt.Errorf("%w: %v", ErrFullRequired, err)
			}
			return nil, err
		}
		deltas[i] = d
	}
	return &Checkpoint{parts: parts, deltas: deltas}, nil
}

// Commit makes ck the base the next delta Prepare diffs against. Call it
// only after every record durably landed; on any failure, abandon ck and
// Reset.
func (c *Checkpointer) Commit(ck *Checkpoint) {
	c.bases = ck.parts
}

// ApplyRanges advances one checkpoint's range states by the next
// checkpoint's range deltas, all or nothing: it returns the advanced states
// only when every range's delta applies and the advanced ranges still
// belong together (MergeRanges' cross-checks); otherwise it returns an
// error and parts stay as they were. Checkpoints must be applied in the
// order they were written: a delta that does not fit its range's current
// position (wrong order, wrong chain, or a gap) is an error.
func ApplyRanges(parts []*SessionState, deltas []*StateDelta) ([]*SessionState, error) {
	if len(deltas) != len(parts) {
		return nil, fmt.Errorf("reconcile: %d range deltas for %d ranges", len(deltas), len(parts))
	}
	next := make([]*core.SessionState, len(parts))
	for i := range parts {
		if parts[i] == nil || deltas[i] == nil {
			return nil, fmt.Errorf("reconcile: range %d: nil state or delta", i)
		}
		st, err := core.ApplyDelta(parts[i].st, deltas[i].d)
		if err != nil {
			return nil, fmt.Errorf("reconcile: range %d: %w", i, err)
		}
		next[i] = st
	}
	if err := core.CheckStateRanges(next); err != nil {
		return nil, err
	}
	out := make([]*SessionState, len(next))
	for i, st := range next {
		out[i] = &SessionState{st: st}
	}
	return out, nil
}

// MergeRanges reassembles the session state from one checkpoint's range
// states, head first. The tails are cross-checked against the head — span
// geometry, repeated fingerprints, the seed prefix — so a torn or mixed
// checkpoint fails cleanly here rather than restoring something subtly
// wrong. A one-range merge returns the head's state without copying it.
func MergeRanges(parts []*SessionState) (*SessionState, error) {
	sts := make([]*core.SessionState, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("reconcile: merge: nil range %d", i)
		}
		sts[i] = p.st
	}
	merged, err := core.MergeStateRanges(sts)
	if err != nil {
		return nil, err
	}
	return &SessionState{st: merged}, nil
}
