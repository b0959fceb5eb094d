package reconcile

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"unsafe"

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

// TestChainByteIdentity pins the contract that keeps every chain already on
// disk readable: a chain's full records are the SnapshotState bytes of the
// same moment, and its delta records are the delta codec over DiffStates
// of the exports at consecutive checkpoints — on every path, including the
// default's mid-chain re-anchoring full at its handoff.
func TestChainByteIdentity(t *testing.T) {
	g1, g2, seeds := chainInstance()
	for _, path := range PathNames {
		t.Run(path, func(t *testing.T) {
			var ckpt Checkpointer
			var prev *core.SessionState
			fulls, deltas := 0, 0
			var victim *Reconciler
			victim, err := NewOnPath(path, g1, g2, WithSeeds(seeds), WithIterations(8),
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
					var got, want bytes.Buffer
					if err := ck.Encode(&got); err != nil {
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
						t.Errorf("checkpoint %d (full=%v): record differs from the plain codec bytes", fulls+deltas, ck.Full())
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

// TestApplyDeltaRefusesMisfit pins the replay step's acceptance rule: a
// delta that does not fit the state's position — one that skips a
// checkpoint, or one already applied — is refused and leaves the state as
// it was, and the genuine next delta still advances it to the exported
// state.
func TestApplyDeltaRefusesMisfit(t *testing.T) {
	g1, g2, seeds := chainInstance()
	rec, err := NewOnPath("frontier", g1, g2, WithSeeds(seeds), WithIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt Checkpointer
	var records [][]byte
	for i := 0; i < 3; i++ {
		if i > 0 {
			if _, err := rec.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := ckpt.Prepare(rec, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		ckpt.Commit(ck)
		records = append(records, buf.Bytes())
	}
	delta := func(i int) *StateDelta {
		d, err := ReadStateDelta(bytes.NewReader(records[i]))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	encode := func(st *SessionState) []byte {
		var buf bytes.Buffer
		if err := snapshot.WriteState(&buf, st.st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	refuse := func(what string, st *SessionState, d *StateDelta) {
		t.Helper()
		before := encode(st)
		if _, err := ApplyDelta(st, d); err == nil {
			t.Fatalf("applied %s", what)
		}
		if !bytes.Equal(encode(st), before) {
			t.Fatalf("refusing %s moved the state", what)
		}
	}

	st, err := ReadSessionState(bytes.NewReader(records[0]))
	if err != nil {
		t.Fatal(err)
	}
	refuse("a delta that skips a checkpoint", st, delta(2))
	next, err := ApplyDelta(st, delta(1))
	if err != nil {
		t.Fatalf("the genuine first delta: %v", err)
	}
	refuse("a delta twice", next, delta(1))
	if _, err := ApplyDelta(next, nil); err == nil {
		t.Fatal("applied a nil delta")
	}
	final, err := ApplyDelta(next, delta(2))
	if err != nil {
		t.Fatalf("the genuine second delta: %v", err)
	}
	var want bytes.Buffer
	if err := rec.SnapshotState(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(final), want.Bytes()) {
		t.Fatal("replayed chain differs from the exported state")
	}
}

// TestReplayAllocation pins what a chain replay allocates beyond decoding
// its records: each delta appends to the pair log of the state the step
// before returned, so replaying a full and k deltas allocates a small
// multiple of the final pair log, not a copy of it per delta.
func TestReplayAllocation(t *testing.T) {
	r := NewRand(17)
	const n = 20_000
	g1, g2 := IndependentCopies(r, GeneratePA(r, n, 6), 0.7, 0.7)
	var records [][]byte
	var ckpt Checkpointer
	var rec *Reconciler
	// In the frontier regime from the start, so no handoff re-anchors the
	// chain: one full, then deltas.
	rec, err := NewOnPath("frontier", g1, g2, WithSeeds(Seeds(r, IdentityPairs(n), 0.3)),
		WithIterations(2),
		WithProgress(func(PhaseEvent) {
			ck, err := ckpt.Prepare(rec, len(records) == 0)
			if err != nil {
				t.Errorf("prepare: %v", err)
				return
			}
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			ckpt.Commit(ck)
			records = append(records, buf.Bytes())
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(records) < 9 {
		t.Fatalf("chain of %d records, want a full and at least 8 deltas", len(records))
	}

	var least uint64
	var final *SessionState
	for try := 0; try < 3; try++ {
		st, err := ReadSessionState(bytes.NewReader(records[0]))
		if err != nil {
			t.Fatal(err)
		}
		deltas := make([]*StateDelta, len(records)-1)
		for i, raw := range records[1:] {
			if deltas[i], err = ReadStateDelta(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range deltas {
			if st, err = ApplyDelta(st, d); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; try == 0 || grew < least {
			least = grew
		}
		final = st
	}
	var want bytes.Buffer
	if err := rec.SnapshotState(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := snapshot.WriteState(&got, final.st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("replayed chain differs from the exported state")
	}
	pairLog := uint64(len(final.st.Pairs)) * uint64(unsafe.Sizeof(Pair{}))
	if least > 6*pairLog {
		t.Fatalf("replaying %d deltas allocated %d bytes, more than 6x the final %d-byte pair log", len(records)-1, least, pairLog)
	}
	t.Logf("%d deltas: %d bytes allocated, final pair log %d bytes", len(records)-1, least, pairLog)
}
