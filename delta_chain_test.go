package reconcile_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile"
)

// chainCheckpoint is one checkpoint of a victim run: its record (a full
// state record or a delta) plus the monolithic state snapshot of the same
// moment, for the bit-identity comparison.
type chainCheckpoint struct {
	full       bool
	record     []byte
	monolithic []byte
}

// writeChain checkpoints a victim run on path at every bucket boundary —
// one full, then deltas — and returns the chain.
func writeChain(t *testing.T, path string, g1, g2 *reconcile.Graph, opts []reconcile.Option) []chainCheckpoint {
	t.Helper()
	var chain []chainCheckpoint
	var ckpt reconcile.Checkpointer
	var victim *reconcile.Reconciler
	victim, err := reconcile.NewOnPath(path, g1, g2, append(opts,
		reconcile.WithProgress(func(reconcile.PhaseEvent) {
			ck := ckpt.Prepare(victim, len(chain) == 0)
			var rec, mono bytes.Buffer
			if err := ck.Encode(&rec); err != nil {
				t.Errorf("encode checkpoint %d: %v", len(chain), err)
				return
			}
			ckpt.Commit(ck)
			if err := victim.SnapshotState(&mono); err != nil {
				t.Errorf("monolithic checkpoint: %v", err)
				return
			}
			chain = append(chain, chainCheckpoint{full: ck.Full(), record: rec.Bytes(), monolithic: mono.Bytes()})
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return chain
}

// readFull decodes a full checkpoint's record.
func readFull(t *testing.T, c chainCheckpoint) *reconcile.SessionState {
	t.Helper()
	st, err := reconcile.ReadSessionState(bytes.NewReader(c.record))
	if err != nil {
		t.Fatalf("read full: %v", err)
	}
	return st
}

// readDelta decodes a delta checkpoint's record.
func readDelta(t *testing.T, c chainCheckpoint) *reconcile.StateDelta {
	t.Helper()
	d, err := reconcile.ReadStateDelta(bytes.NewReader(c.record))
	if err != nil {
		t.Fatalf("read delta: %v", err)
	}
	return d
}

// replayChain reconstructs the state at chain[cut] from bytes alone: decode
// the last full at or before it, then apply each later delta in order.
func replayChain(t *testing.T, chain []chainCheckpoint, cut int) *reconcile.SessionState {
	t.Helper()
	base := cut
	for base > 0 && !chain[base].full {
		base--
	}
	st := readFull(t, chain[base])
	for i := base + 1; i <= cut; i++ {
		var err error
		if st, err = reconcile.ApplyDelta(st, readDelta(t, chain[i])); err != nil {
			t.Fatalf("cut %d: apply checkpoint %d: %v", cut, i, err)
		}
	}
	return st
}

// TestDeltaChainResumeEquivalence extends the resume-equivalence guarantee
// to checkpoint chains, on all four paths: a run checkpointed as
// (full + per-bucket deltas) one record per checkpoint, cut at any
// checkpoint, replayed and resumed, finishes bit-identically to the run
// that was never interrupted — and the replayed state is byte-identical to
// the monolithic snapshot taken at the same boundary, so restore-from-chain
// and restore-from-snapshot are the same operation. The hybrid row runs a
// schedule long enough to cross its regime handoff, whose checkpoint is not
// delta-expressible: Prepare re-anchors the chain with a full there, and
// the chain keeps replaying.
func TestDeltaChainResumeEquivalence(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	for _, path := range reconcile.PathNames {
		t.Run(path, func(t *testing.T) {
			iterations := 3
			if path == "hybrid" {
				iterations = 8 // commits decay to zero and the handoff fires mid-chain
			}
			opts := []reconcile.Option{
				reconcile.WithSeeds(seeds),
				reconcile.WithIterations(iterations),
			}
			ref, err := reconcile.NewOnPath(path, g1, g2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(want.NewPairs) == 0 {
				t.Fatal("reference run found nothing; instance too weak")
			}
			chainResumeEquivalence(t, g1, g2, path, opts, want)
		})
	}
}

func chainResumeEquivalence(t *testing.T, g1, g2 *reconcile.Graph, path string, opts []reconcile.Option, want *reconcile.Result) {
	chain := writeChain(t, path, g1, g2, opts)
	if len(chain) != len(want.Phases) {
		t.Fatalf("victim checkpointed %d times, want one per phase (%d)", len(chain), len(want.Phases))
	}
	// The hybrid chain must actually contain the re-anchoring full —
	// otherwise the schedule never crossed the handoff and the row proves
	// nothing extra.
	anchored := false
	for _, c := range chain[1:] {
		anchored = anchored || c.full
	}
	if path == "hybrid" && !anchored {
		t.Fatal("hybrid chain has no mid-chain full; the handoff never fired")
	}

	for _, cut := range []int{0, 1, len(chain) / 2, len(chain) - 1} {
		// "New process": replay from the last full at or before the cut,
		// from bytes alone.
		restored, err := reconcile.RestoreSessionState(g1, g2, replayChain(t, chain, cut))
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		// Bit-identity of the replayed state: re-snapshotting it yields the
		// exact bytes of the monolithic snapshot taken at the same boundary.
		var again bytes.Buffer
		if err := restored.SnapshotState(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), chain[cut].monolithic) {
			t.Fatalf("cut %d: replayed state differs from the monolithic snapshot", cut)
		}
		// And the resumed run finishes bit-identically.
		got, err := restored.Resume(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut %d: chain-restored run diverged: %d pairs / %d phases, want %d / %d",
				cut, len(got.Pairs), len(got.Phases), len(want.Pairs), len(want.Phases))
		}
	}

	// A delta checkpoint applied out of order is refused, not replayed
	// wrongly.
	if len(chain) > 2 && !chain[1].full && !chain[2].full {
		if _, err := reconcile.ApplyDelta(readFull(t, chain[0]), readDelta(t, chain[2])); err == nil {
			t.Fatal("delta checkpoint 2 applied directly onto the full (gap undetected)")
		}
	}
}

// TestCheckpointerFullRequired pins when Prepare returns a full: the first
// checkpoint of a fresh (zero-value) Checkpointer, one asked to be full,
// the first after Reset, and the one across the regime handoff, which a
// delta does not express. Every other checkpoint is a delta.
func TestCheckpointerFullRequired(t *testing.T) {
	g1, g2, seeds := snapshotInstance(t)
	var ckpt reconcile.Checkpointer
	var rec *reconcile.Reconciler
	frontier, handoffs := false, 0
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds), reconcile.WithIterations(8),
		reconcile.WithProgress(func(reconcile.PhaseEvent) {
			ck := ckpt.Prepare(rec, false)
			handoff := rec.FrontierActive() != frontier
			if handoff {
				frontier = true
				handoffs++
			}
			if ck.Full() != handoff {
				t.Errorf("checkpoint full = %v where the handoff landing is %v", ck.Full(), handoff)
			}
			ckpt.Commit(ck)
		}))
	if err != nil {
		t.Fatal(err)
	}
	first := ckpt.Prepare(rec, false)
	if !first.Full() {
		t.Fatal("a fresh Checkpointer prepared a delta")
	}
	ckpt.Commit(first)
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if handoffs != 1 {
		t.Fatalf("the run handed off %d times, want once", handoffs)
	}
	if !ckpt.Prepare(rec, true).Full() {
		t.Fatal("a checkpoint asked to be full is a delta")
	}
	if ckpt.Prepare(rec, false).Full() {
		t.Fatal("a checkpoint after a committed one in the same regime is a full")
	}
	ckpt.Reset()
	if !ckpt.Prepare(rec, false).Full() {
		t.Fatal("the first checkpoint after Reset is a delta")
	}
}

// TestDeltaCheckpointSizeRatio pins the delta chain's economics on the
// incremental benchmark workload (a converged 10k-node frontier session
// ingesting 20 fresh seeds and re-sweeping): the per-sweep delta checkpoint
// must be at least 5x smaller than the full state snapshot it replaces.
func TestDeltaCheckpointSizeRatio(t *testing.T) {
	r := reconcile.NewRand(99)
	g := reconcile.GeneratePA(r, 10000, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.5, 0.5)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(10000), 0.10)
	hold := 20
	early, late := seeds[:len(seeds)-hold], seeds[len(seeds)-hold:]

	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(early))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	matchedL := map[reconcile.NodeID]bool{}
	matchedR := map[reconcile.NodeID]bool{}
	for _, p := range rec.Result().Pairs {
		matchedL[p.Left] = true
		matchedR[p.Right] = true
	}
	var fresh []reconcile.Pair
	for _, p := range late {
		if !matchedL[p.Left] && !matchedR[p.Right] {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("no fresh seeds survive; instance too saturated")
	}

	var ckpt reconcile.Checkpointer
	ckpt.Commit(ckpt.Prepare(rec, true))
	if err := rec.AddSeeds(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	ck := ckpt.Prepare(rec, false)
	var delta bytes.Buffer
	if err := ck.Encode(&delta); err != nil {
		t.Fatal(err)
	}
	var fullAfter bytes.Buffer
	if err := rec.SnapshotState(&fullAfter); err != nil {
		t.Fatal(err)
	}
	if delta.Len() == 0 || fullAfter.Len() == 0 {
		t.Fatal("empty checkpoint bytes")
	}
	if ratio := float64(fullAfter.Len()) / float64(delta.Len()); ratio < 5 {
		t.Fatalf("delta checkpoint only %.1fx smaller than full (%d vs %d bytes), want >= 5x",
			ratio, delta.Len(), fullAfter.Len())
	} else {
		t.Logf("delta %d bytes vs full %d bytes: %.0fx smaller", delta.Len(), fullAfter.Len(), ratio)
	}
}
