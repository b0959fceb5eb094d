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
// Each checkpoint is one record: a full is the SnapshotState bytes of its
// moment, a delta a plain delta record against the checkpoint before it.
// cmd/serve's -data-dir store is the reference consumer.

// ErrFullRequired reports that a delta checkpoint cannot be prepared — there
// is no base yet, or the session changed in a way deltas do not express
// (a session handing off to the frontier regime). Callers prepare a
// full checkpoint and continue.
var ErrFullRequired = errors.New("reconcile: delta checkpoint requires a full snapshot first")

// A Checkpointer writes a Reconciler's checkpoint chain: full checkpoints
// interleaved with delta checkpoints, each delta relative to the checkpoint
// committed immediately before it. Each checkpoint is prepared (Prepare),
// encoded to the caller's writer (Encode), and committed (Commit) once its
// record durably landed. The caller owns durability ordering: after a
// failed or discarded write, Reset, so the next checkpoint is a full rather
// than a delta over the gap. The zero value is ready to use.
//
// A Checkpointer follows the same calling rules as Snapshot: drive it
// between runs or from inside a progress hook, never concurrently with a
// run from another goroutine.
type Checkpointer struct {
	base *core.SessionState
}

// Reset drops the delta base: the next Prepare must be a full.
func (c *Checkpointer) Reset() { c.base = nil }

// A Checkpoint is one prepared checkpoint, frozen from a single ExportState
// and safe to encode from any goroutine until Commit or abandonment.
type Checkpoint struct {
	st    *core.SessionState
	delta *core.StateDelta // nil for a full
}

// Full reports whether the record is a full state record (true) or a delta
// record against the previous committed checkpoint (false).
func (ck *Checkpoint) Full() bool { return ck.delta == nil }

// Encode writes the checkpoint's record: a state record when Full, a delta
// record otherwise.
func (ck *Checkpoint) Encode(w io.Writer) error {
	if ck.delta == nil {
		return snapshot.WriteState(w, ck.st)
	}
	return snapshot.WriteDelta(w, ck.delta)
}

// Prepare exports the Reconciler's state as the next checkpoint of the
// chain. With wantFull false it prepares a delta against the previous
// committed checkpoint; if there is no base, or the state is not
// delta-expressible from it (a regime handoff), nothing is prepared
// and ErrFullRequired says to retry with wantFull true.
func (c *Checkpointer) Prepare(r *Reconciler, wantFull bool) (*Checkpoint, error) {
	if !wantFull && c.base == nil {
		return nil, ErrFullRequired
	}
	st := r.sess.ExportState()
	if wantFull {
		return &Checkpoint{st: st}, nil
	}
	d, err := core.DiffStates(c.base, st)
	if errors.Is(err, core.ErrNotDiffable) {
		return nil, fmt.Errorf("%w: %v", ErrFullRequired, err)
	}
	if err != nil {
		return nil, err
	}
	return &Checkpoint{st: st, delta: d}, nil
}

// Commit makes ck the base the next delta Prepare diffs against. Call it
// only after its record durably landed; on any failure, abandon ck and
// Reset.
func (c *Checkpointer) Commit(ck *Checkpoint) {
	c.base = ck.st
}

// ApplyDelta advances a replayed state by the next checkpoint's delta
// record and returns the advanced state. Checkpoints must be applied in the
// order they were written: a delta that does not fit st's position (wrong
// order, wrong chain, or a gap) is an error, and st stays as it was. The
// result takes over st's matching, so apply each delta to the state the
// previous step returned and never apply two deltas to the same st.
func ApplyDelta(st *SessionState, d *StateDelta) (*SessionState, error) {
	if st == nil || d == nil {
		return nil, errors.New("reconcile: apply delta: nil state or delta")
	}
	next, err := core.ApplyDelta(st.st, d.d)
	if err != nil {
		return nil, err
	}
	return &SessionState{st: next}, nil
}
