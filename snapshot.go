package reconcile

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/snapshot"
)

// Durable sessions: a Reconciler's complete state — graphs, matching, seed
// boundary, bucket-schedule position, phase log and regime bit —
// serializes to a versioned, checksummed binary snapshot and restores to a
// Reconciler whose future output is bit-identical to the original's, even
// when the snapshot was taken mid-run at a bucket boundary. Engine caches
// are not part of it: they are functions of the graphs and the matching,
// and restore rebuilds them.
// That is the crash-safety contract production runs need: hours of matching
// work survive process death, and a restored run finishes exactly as the
// uninterrupted one would have (pinned by the resume-equivalence and
// snapshot fuzz suites). cmd/serve builds its -data-dir job store on this
// API.

// Snapshot writes the Reconciler's complete state — both graphs and all
// session state — as one self-contained snapshot. It may be called between
// runs, or from inside a progress hook (which runs synchronously at a bucket
// boundary on the run's own goroutine); it must not be called concurrently
// with a run from another goroutine.
func (r *Reconciler) Snapshot(w io.Writer) error {
	g1, g2 := r.sess.Graphs()
	return snapshot.Write(w, g1, g2, r.sess.ExportState())
}

// SnapshotState writes only the mutable session state, for stores that
// persist the immutable graphs once (WriteGraphBinary) and checkpoint
// repeatedly: a state snapshot is O(links) however large the graphs are.
// Restore the pair with RestoreState. The same calling rules as Snapshot
// apply.
func (r *Reconciler) SnapshotState(w io.Writer) error {
	return snapshot.WriteState(w, r.sess.ExportState())
}

// Graphs returns the two networks the Reconciler was built over. The graphs
// are immutable and shared, not copied.
func (r *Reconciler) Graphs() (g1, g2 *Graph) { return r.sess.Graphs() }

// Sweeps returns the number of bucket sweeps started so far, across runs and
// restores. Together with Options().Iterations it locates a restored run in
// its schedule; Resume uses it to finish exactly what remains.
func (r *Reconciler) Sweeps() int { return r.sess.Sweeps() }

// Resume finishes the configured schedule from wherever the Reconciler
// stopped: it first completes a sweep interrupted mid-schedule (after a
// cancelled run or a mid-run snapshot), then performs the sweeps still owed
// on the original Iterations budget. On a Reconciler whose schedule already
// completed it is a no-op. Run, by contrast, always performs Iterations
// fresh sweeps; after a restore, Resume is almost always what you want.
// Its Result shares the link slices with the Reconciler, as Run's does.
func (r *Reconciler) Resume(ctx context.Context) (*Result, error) {
	remaining := r.opts.Iterations - r.sess.Sweeps()
	if remaining < 0 {
		remaining = 0
	}
	_, err := r.sess.Run(ctx, remaining)
	return r.sess.Result(), err
}

// Restore reads a full snapshot (written by Snapshot) and reconstructs the
// Reconciler mid-schedule. Options may adjust execution without touching
// matching semantics:
//
//   - WithWorkers and WithIterations re-tune execution; the run resumes in
//     the regime it was exported in (full scan or frontier);
//   - WithProgress re-installs a progress hook (hooks do not serialize),
//     and WithTracer a span recorder (tracers do not either — continue a
//     persisted trace with RestoreTraceRecorder);
//   - WithSeeds ingests new trusted links, exactly like AddSeeds after
//     restore.
//
// Options that would change what the already-committed links mean —
// threshold, scoring, tie policy, margin, or the bucket schedule — are
// rejected: a snapshot resumes the run it came from, it does not start a
// different one.
func Restore(rd io.Reader, opts ...Option) (*Reconciler, error) {
	g1, g2, st, err := snapshot.Read(rd)
	if err != nil {
		return nil, err
	}
	return restoreReconciler(g1, g2, st, opts)
}

// RestoreState reads a state-only snapshot (written by SnapshotState) and
// attaches it to the graphs it was exported over, with the same option rules
// as Restore. The graphs must be the very ones the snapshot was taken over
// (shape is verified; content fidelity is the caller's store to guarantee).
// cmd/serve's store is the chain form of this: it persists the graphs next
// to its checkpoint chain with WriteGraphMapped (WriteGraphBinary under
// -mmap=false), and on boot replays the chain and attaches the result with
// RestoreSessionState.
func RestoreState(g1, g2 *Graph, rd io.Reader, opts ...Option) (*Reconciler, error) {
	st, err := snapshot.ReadState(rd)
	if err != nil {
		return nil, err
	}
	return restoreReconciler(g1, g2, st, opts)
}

func restoreReconciler(g1, g2 *Graph, st *core.SessionState, opts []Option) (*Reconciler, error) {
	s := settings{opts: st.Opts}
	for _, opt := range opts {
		opt(&s)
	}
	// Workers and Iterations are pure execution knobs; everything else is
	// baked into the committed links.
	masked := st.Opts
	masked.Workers, masked.Iterations = s.opts.Workers, s.opts.Iterations
	if masked != s.opts {
		return nil, fmt.Errorf("reconcile: restore options may change workers and iterations only; matching semantics (threshold, scoring, ties, margin, bucket schedule) come from the snapshot")
	}
	st.Opts = s.opts
	sess, err := core.RestoreSession(g1, g2, st)
	if err != nil {
		return nil, err
	}
	sess.SetProgress(s.progress)
	sess.SetTracer(s.tracer)
	if len(s.seeds) > 0 {
		if err := sess.AddSeeds(s.seeds); err != nil {
			return nil, err
		}
	}
	return &Reconciler{sess: sess, opts: s.opts}, nil
}

// SessionState is a decoded state-only checkpoint held as a value:
// ApplyDelta advances it by a chain's delta records, and
// RestoreSessionState attaches the final state to its graphs. It is the
// replay half of the Checkpointer's chain format.
type SessionState struct {
	st *core.SessionState
}

// ReadSessionState reads a state-only snapshot (written by SnapshotState, or
// a full Checkpoint's record) without yet attaching it to graphs.
func ReadSessionState(r io.Reader) (*SessionState, error) {
	st, err := snapshot.ReadState(r)
	if err != nil {
		return nil, err
	}
	return &SessionState{st: st}, nil
}

// StateDelta is one decoded delta record of a checkpoint chain.
type StateDelta struct {
	d *core.StateDelta
}

// ReadStateDelta reads a delta Checkpoint's record.
func ReadStateDelta(r io.Reader) (*StateDelta, error) {
	d, err := snapshot.ReadDelta(r)
	if err != nil {
		return nil, err
	}
	return &StateDelta{d: d}, nil
}

// RestoreSessionState attaches a replayed state to the graphs it was
// exported over, with the same option rules and shape checks as
// RestoreState. Restoring from (full + deltas) is bit-identical to
// restoring the monolithic snapshot of the same moment — the chain
// resume-equivalence suite pins this at one worker and several, on both
// sides of the regime handoff.
func RestoreSessionState(g1, g2 *Graph, s *SessionState, opts ...Option) (*Reconciler, error) {
	// Work on a shallow copy: restoreReconciler canonicalizes the options,
	// and the caller's SessionState must stay reusable.
	st := *s.st
	return restoreReconciler(g1, g2, &st, opts)
}

// WriteGraphBinary writes g as a framed, checksummed binary CSR stream — the
// compact, validation-on-load on-disk form for graphs that are read many
// times (snapshot stores, dataset caches). ReadGraphBinary reads it back.
func WriteGraphBinary(w io.Writer, g *Graph) error { return snapshot.WriteGraph(w, g) }

// ReadGraphBinary reads a graph written by WriteGraphBinary — or by
// WriteGraphMapped, sniffed by magic and decoded onto the heap — and
// re-validates its structural invariants; corrupt or truncated input
// returns an error. Reading both formats (as OpenGraphMapped does from the
// other side) means a store can flip its on-disk graph format either way
// without migrating existing files.
func ReadGraphBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(graph.MappableMagic)); err == nil && string(peek) == graph.MappableMagic {
		return graph.DecodeMappable(br)
	}
	return snapshot.ReadGraph(br)
}
