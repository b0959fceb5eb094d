package snapshot

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
)

// testdata/golden holds a state record and a delta record written from a
// fixed run of the default engine (see the README there). Every other test
// here compares an encoding with itself within one build; these compare it
// with bytes an earlier build wrote, so a layout change, such as a lost or
// moved options slot, fails here even when encode and decode change
// together.

// goldenRun is the run the golden records come from: testSession's instance
// for seed 205 and 300 nodes, six sweeps of DefaultOptions, with the state
// exported after every bucket.
func goldenRun(t *testing.T) []*core.SessionState {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Iterations = 6
	_, _, s := testSession(t, 205, 300, opts, 0)
	var states []*core.SessionState
	s.SetProgress(func(core.PhaseEvent) { states = append(states, s.ExportState()) })
	if _, err := s.Run(context.Background(), opts.Iterations); err != nil {
		t.Fatal(err)
	}
	return states
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenEngineAt is the offset of the options' engine slot in a golden
// state record: the 4-byte magic, the version, the kind, then threshold,
// iterations, min bucket exp and max degree, each one varint byte here.
const goldenEngineAt = 10

// TestGoldenRecords re-encodes the golden records from a fresh run byte for
// byte and decodes them to the states that run exports: the state after 21
// buckets (mid-sweep, past the regime handoff) and the delta from the
// export after 12 buckets to the one after 15 (before it).
func TestGoldenRecords(t *testing.T) {
	states := goldenRun(t)
	st := states[20]
	if !st.HybridFrontier || st.NextBucket == 0 {
		t.Fatalf("the state after 21 buckets is not mid-sweep in the frontier regime (regime %v, bucket %d)", st.HybridFrontier, st.NextBucket)
	}
	base, target := states[11], states[14]
	if base.HybridFrontier || len(target.Pairs) == len(base.Pairs) {
		t.Fatal("the golden delta no longer spans new links before the handoff")
	}
	d, err := core.DiffStates(base, target)
	if err != nil {
		t.Fatal(err)
	}

	var sb, db bytes.Buffer
	if err := WriteState(&sb, st); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelta(&db, d); err != nil {
		t.Fatal(err)
	}
	goldenState, goldenDelta := readGolden(t, "state-frontier.rsnp"), readGolden(t, "delta-full-scan.rsnp")
	if !bytes.Equal(sb.Bytes(), goldenState) {
		t.Fatalf("state record differs from the golden one (%d vs %d bytes)", sb.Len(), len(goldenState))
	}
	if !bytes.Equal(db.Bytes(), goldenDelta) {
		t.Fatalf("delta record differs from the golden one (%d vs %d bytes)", db.Len(), len(goldenDelta))
	}
	if goldenState[goldenEngineAt] != engineSlot {
		t.Fatalf("engine slot holds %d, want %d", goldenState[goldenEngineAt], engineSlot)
	}

	decoded, err := ReadState(bytes.NewReader(goldenState))
	if err != nil {
		t.Fatal(err)
	}
	if !stateEqual(st, decoded) {
		t.Fatal("golden state record decodes to another state")
	}
	rd, err := ReadDelta(bytes.NewReader(goldenDelta))
	if err != nil {
		t.Fatal(err)
	}
	if !deltaEqual(d, rd) {
		t.Fatal("golden delta record decodes to another delta")
	}
	replayed, err := core.ApplyDelta(states[11], rd)
	if err != nil {
		t.Fatal(err)
	}
	if !stateEqual(target, replayed) {
		t.Fatal("golden delta record replays to another state")
	}
}

// TestEngineSlotDecode pins the engine slot's decode rule: 0-2, written by
// engines the user pinned, decode in the full-scan regime to the same state
// (and re-encode as 3); a set regime bit under them, or a value above 3, is
// refused as corrupt.
func TestEngineSlotDecode(t *testing.T) {
	states := goldenRun(t)
	withSlot := func(st *core.SessionState, slot byte) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := WriteState(&b, st); err != nil {
			t.Fatal(err)
		}
		rec := b.Bytes()
		if rec[goldenEngineAt] != engineSlot {
			t.Fatalf("engine slot not at offset %d", goldenEngineAt)
		}
		rec[goldenEngineAt] = slot
		return reframe(rec)
	}
	fullScan, frontier := states[11], states[20]
	for slot := byte(0); slot < engineSlot; slot++ {
		got, err := ReadState(bytes.NewReader(withSlot(fullScan, slot)))
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if !stateEqual(fullScan, got) {
			t.Fatalf("slot %d: decoded to another state", slot)
		}
		if _, err := ReadState(bytes.NewReader(withSlot(frontier, slot))); err == nil {
			t.Fatalf("slot %d: regime bit set under a pinned engine accepted", slot)
		}
	}
	for _, st := range []*core.SessionState{fullScan, frontier} {
		if _, err := ReadState(bytes.NewReader(withSlot(st, engineSlot+1))); err == nil {
			t.Fatalf("engine slot %d accepted", engineSlot+1)
		}
	}
}
