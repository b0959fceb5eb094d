package reconcile

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/snapshot"
)

// chainInstance is a small matchable instance: two copies of a 600-node
// preferential-attachment graph with 15% of the identity links as seeds.
func chainInstance() (g1, g2 *Graph, seeds []Pair) {
	r := NewRand(301)
	g := GeneratePA(r, 600, 6)
	g1, g2 = IndependentCopies(r, g, 0.7, 0.8)
	return g1, g2, Seeds(r, IdentityPairs(600), 0.15)
}

// TestOneRangeChainByteIdentity pins the contract that keeps every
// one-record chain already on disk readable: a one-range chain's full
// records are the SnapshotState bytes of the same moment, and its delta
// records are the delta codec over DiffStates of the exports at
// consecutive checkpoints — on every engine, including the hybrid's
// mid-chain re-anchoring full.
func TestOneRangeChainByteIdentity(t *testing.T) {
	g1, g2, seeds := chainInstance()
	for _, engine := range []Engine{EngineFrontier, EngineParallel, EngineSequential, EngineHybrid} {
		t.Run(engine.String(), func(t *testing.T) {
			var ckpt Checkpointer
			var prev *core.SessionState
			fulls, deltas := 0, 0
			var victim *Reconciler
			victim, err := New(g1, g2, WithSeeds(seeds), WithEngine(engine), WithIterations(8),
				WithProgress(func(PhaseEvent) {
					cur := victim.sess.ExportState()
					ck, err := ckpt.Prepare(victim, prev == nil)
					if errors.Is(err, ErrFullRequired) {
						ck, err = ckpt.Prepare(victim, true)
					}
					if err != nil {
						t.Errorf("prepare: %v", err)
						return
					}
					if ck.Ranges() != 1 {
						t.Errorf("zero Checkpointer prepared %d ranges", ck.Ranges())
						return
					}
					var got, want bytes.Buffer
					if err := ck.Encode(0, &got); err != nil {
						t.Errorf("encode: %v", err)
						return
					}
					if ck.Full() {
						fulls++
						err = victim.SnapshotState(&want)
					} else {
						deltas++
						var d *core.StateDelta
						if d, err = core.DiffStates(prev, cur); err == nil {
							err = snapshot.WriteDelta(&want, d)
						}
					}
					if err != nil {
						t.Errorf("reference encode: %v", err)
						return
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("checkpoint %d (full=%v): one-range record differs from the plain codec bytes", fulls+deltas, ck.Full())
					}
					ckpt.Commit(ck)
					prev = cur
				}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := victim.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if fulls == 0 || deltas == 0 {
				t.Fatalf("chain of %d fulls and %d deltas does not cover both record kinds", fulls, deltas)
			}
		})
	}
}

// TestApplyRangesAllOrNothing pins the replay side's acceptance rule: a
// delta checkpoint is taken only when every range's delta applies and the
// advanced tails still agree with the advanced head; otherwise the ranges
// stay where they were.
func TestApplyRangesAllOrNothing(t *testing.T) {
	g1, g2, seeds := chainInstance()
	rec, err := New(g1, g2, WithSeeds(seeds), WithEngine(EngineFrontier), WithIterations(2))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := NewCheckpointer(4)
	full, err := ckpt.Prepare(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Commit(full)
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	next, err := ckpt.Prepare(rec, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*SessionState, len(full.parts))
	for i, st := range full.parts {
		parts[i] = &SessionState{st: st}
	}
	deltas := func() []*StateDelta {
		out := make([]*StateDelta, len(next.deltas))
		for i, d := range next.deltas {
			c := *d
			out[i] = &StateDelta{d: &c}
		}
		return out
	}

	// A tail whose delta applies but lands elsewhere than the head's.
	bad := deltas()
	bad[2].d.Sweeps++
	if _, err := ApplyRanges(parts, bad); err == nil {
		t.Fatal("accepted a checkpoint whose tail disagrees with its head")
	}
	// A tail whose delta does not apply at all.
	bad = deltas()
	bad[3].d.BaseSweeps++
	if _, err := ApplyRanges(parts, bad); err == nil {
		t.Fatal("accepted a checkpoint with an inapplicable tail delta")
	}
	if _, err := ApplyRanges(parts, deltas()[:3]); err == nil {
		t.Fatal("accepted a checkpoint missing a range")
	}
	for i, p := range parts {
		if p.st != full.parts[i] {
			t.Fatalf("a refused checkpoint moved range %d", i)
		}
	}
	got, err := ApplyRanges(parts, deltas())
	if err != nil {
		t.Fatalf("the genuine checkpoint: %v", err)
	}
	merged, err := MergeRanges(got)
	if err != nil {
		t.Fatal(err)
	}
	var want, again bytes.Buffer
	if err := rec.SnapshotState(&want); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteState(&again, merged.st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), again.Bytes()) {
		t.Fatal("applied and merged ranges differ from the exported state")
	}
}
