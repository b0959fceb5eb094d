package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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

// reframe rewrites a stream's CRC trailer after its body was edited.
func reframe(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestEngineSlotDecode pins the engine slot's decode rule: every record
// holds 3, and any other value is refused as corrupt, in the full-scan
// regime and in the frontier regime alike.
func TestEngineSlotDecode(t *testing.T) {
	states := goldenRun(t)
	for _, st := range []*core.SessionState{states[11], states[20]} {
		var b bytes.Buffer
		if err := WriteState(&b, st); err != nil {
			t.Fatal(err)
		}
		rec := b.Bytes()
		if rec[goldenEngineAt] != engineSlot {
			t.Fatalf("engine slot not at offset %d", goldenEngineAt)
		}
		for _, slot := range []byte{0, 1, 2, engineSlot + 1} {
			edited := append([]byte(nil), rec...)
			edited[goldenEngineAt] = slot
			if _, err := ReadState(bytes.NewReader(reframe(edited))); err == nil || !strings.Contains(err.Error(), "engine") {
				t.Fatalf("engine slot %d (regime %v): err = %v, want an engine refusal", slot, st.HybridFrontier, err)
			}
		}
	}
}

// TestLegacyFrontierSectionErrors pins the frontier flag that ends a state
// and a delta payload: the golden records, which the writer reproduces,
// hold 0 there, and a record whose flag opens the frontier section earlier
// writers appended (1), or holds any other value, is refused.
func TestLegacyFrontierSectionErrors(t *testing.T) {
	for _, rec := range []struct {
		name string
		read func([]byte) error
	}{
		{"state-frontier.rsnp", func(b []byte) error { _, err := ReadState(bytes.NewReader(b)); return err }},
		{"delta-full-scan.rsnp", func(b []byte) error { _, err := ReadDelta(bytes.NewReader(b)); return err }},
	} {
		b := readGolden(t, rec.name)
		at := len(b) - 5 // the flag, then the 4-byte trailer
		if b[at] != 0 {
			t.Fatalf("%s: the frontier flag is set", rec.name)
		}
		for _, flag := range []byte{1, 2} {
			edited := append([]byte(nil), b...)
			edited[at] = flag
			if err := rec.read(reframe(edited)); err == nil || !strings.Contains(err.Error(), "frontier flag") {
				t.Fatalf("%s with frontier flag %d: err = %v, want a frontier flag refusal", rec.name, flag, err)
			}
		}
	}
}
