package snapshot

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
)

// deltaEqual compares delta records treating nil and empty slices as equal.
func deltaEqual(a, b *core.StateDelta) bool {
	norm := func(d core.StateDelta) core.StateDelta {
		if len(d.NewPairs) == 0 {
			d.NewPairs = nil
		}
		if len(d.NewPhases) == 0 {
			d.NewPhases = nil
		}
		return d
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// TestDeltaRoundTrip drives the delta codec over real per-sweep churn on
// every engine: decode(encode(d)) == d on values and bytes, and the decoded
// delta replays onto the base to the exact target state.
func TestDeltaRoundTrip(t *testing.T) {
	for _, engine := range []core.Engine{core.EngineSequential, core.EngineParallel, core.EngineFrontier} {
		t.Run(engine.String(), func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Engine = engine
			_, _, s := testSession(t, 42, 300, opts, 0)
			base := s.ExportState()
			for sweep := 0; sweep < 3; sweep++ {
				s.Run(context.Background(), 1)
				cur := s.ExportState()
				d, err := core.DiffStates(base, cur)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteDelta(&buf, d); err != nil {
					t.Fatalf("encode: %v", err)
				}
				data := buf.Bytes()
				rd, err := ReadDelta(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !deltaEqual(d, rd) {
					t.Fatal("decode(encode(delta)) != delta")
				}
				var again bytes.Buffer
				if err := WriteDelta(&again, rd); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, again.Bytes()) {
					t.Fatal("delta encoding is not canonical")
				}
				replayed, err := core.ApplyDelta(base, rd)
				if err != nil {
					t.Fatalf("apply decoded delta: %v", err)
				}
				if !stateEqual(cur, replayed) {
					t.Fatal("decoded delta replays to a different state")
				}
				base = cur
			}
		})
	}
}

// TestDeltaKindMismatch pins that delta records and state snapshots cannot
// be confused for one another: each reader refuses the other's stream.
func TestDeltaKindMismatch(t *testing.T) {
	opts := core.DefaultOptions()
	_, _, s := testSession(t, 7, 150, opts, 0)
	base := s.ExportState()
	s.Run(context.Background(), 1)
	d, err := core.DiffStates(base, s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var db, sb bytes.Buffer
	if err := WriteDelta(&db, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteState(&sb, base); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadState(bytes.NewReader(db.Bytes())); err == nil {
		t.Fatal("ReadState accepted a delta record")
	}
	if _, err := ReadDelta(bytes.NewReader(sb.Bytes())); err == nil {
		t.Fatal("ReadDelta accepted a state snapshot")
	}
}

// TestDeltaEncodeRejectsMalformed pins encoder-side validation: deltas that
// could not have come from DiffStates are refused before a byte is framed
// into a stream a decoder would then have to distrust.
func TestDeltaEncodeRejectsMalformed(t *testing.T) {
	d := &core.StateDelta{BasePairs: -1}
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("negative base position encoded")
	}

	d = &core.StateDelta{NewPhases: []core.PhaseStat{{Iteration: 1, Matched: -1}}}
	if err := WriteDelta(new(bytes.Buffer), d); err == nil {
		t.Fatal("negative phase count encoded")
	}
}
