package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// Records written while the frontier engine's proposal cache was part of
// the durable state must keep decoding. testdata/legacy holds such records,
// written by that encoder (see its README): version-1 and version-2 state
// and delta records whose payloads end in a frontier section. Each decodes,
// with the frontier section dropped, to exactly the state this code exports
// at the same schedule position of the same run, and restores to a run that
// finishes bit-identically to the uninterrupted one. The ranged-* records,
// node-range slices of one checkpoint, are kept as more legacy sections for
// the defensive-decode test.

// legacyRun regenerates the run a legacy record was exported from:
// testSession's instance for seed and n, run uninterrupted, with the state
// exported after every bucket.
type legacyRun struct {
	g1, g2 *graph.Graph
	opts   core.Options
	states []*core.SessionState // states[k-1] is the export after k buckets
	final  *core.Result
}

func newLegacyRun(t *testing.T, seed uint64, n int, engine core.Engine, iterations int) *legacyRun {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Engine = engine
	opts.Iterations = iterations
	g1, g2, s := testSession(t, seed, n, opts, 0)
	r := &legacyRun{g1: g1, g2: g2, opts: opts}
	s.SetProgress(func(core.PhaseEvent) { r.states = append(r.states, s.ExportState()) })
	s.Run(context.Background(), iterations)
	r.final = s.Result()
	return r
}

// check requires st to be the export after k buckets, then restores it and
// requires the finished run to be the uninterrupted one.
func (r *legacyRun) check(t *testing.T, what string, st *core.SessionState, k int) {
	t.Helper()
	if !stateEqual(r.states[k-1], st) {
		t.Fatalf("%s: decoded state differs from the export after %d buckets", what, k)
	}
	restored, err := core.RestoreSession(r.g1, r.g2, st)
	if err != nil {
		t.Fatalf("%s: restore: %v", what, err)
	}
	restored.Run(context.Background(), r.opts.Iterations-restored.Sweeps())
	if got := restored.Result(); !reflect.DeepEqual(r.final, got) {
		t.Fatalf("%s: restored run diverged: %d pairs, want %d", what, len(got.Pairs), len(r.final.Pairs))
	}
}

func readLegacy(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readLegacyState(t *testing.T, name string) *core.SessionState {
	t.Helper()
	st, err := ReadState(bytes.NewReader(readLegacy(t, name)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return st
}

func readLegacyDelta(t *testing.T, name string) *core.StateDelta {
	t.Helper()
	d, err := ReadDelta(bytes.NewReader(readLegacy(t, name)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return d
}

// TestReadStateV1 pins that version-1 state records, with a frontier
// section and without one, decode, restore and finish.
func TestReadStateV1(t *testing.T) {
	t.Run("frontier", func(t *testing.T) {
		r := newLegacyRun(t, 201, 200, core.EngineFrontier, 2)
		r.check(t, "v1 frontier state", readLegacyState(t, "state-v1-frontier.rsnp"), 2)
	})
	t.Run("parallel", func(t *testing.T) {
		r := newLegacyRun(t, 202, 200, core.EngineParallel, 2)
		r.check(t, "v1 parallel state", readLegacyState(t, "state-v1-parallel.rsnp"), 3)
	})
}

// TestReadDeltaV1 pins that a version-1 delta record with cache edits
// decodes and replays.
func TestReadDeltaV1(t *testing.T) {
	r := newLegacyRun(t, 201, 200, core.EngineFrontier, 2)
	base := readLegacyState(t, "state-v1-frontier.rsnp")
	st, err := core.ApplyDelta(base, readLegacyDelta(t, "delta-v1-frontier.rsnp"))
	if err != nil {
		t.Fatal(err)
	}
	r.check(t, "v1 frontier delta", st, 3)
}

// TestReadStateV2Frontier pins a version-2 hybrid state past its handoff,
// cache included, and a delta with cache edits on top of it.
func TestReadStateV2Frontier(t *testing.T) {
	r := newLegacyRun(t, 203, 300, core.EngineHybrid, 6)
	base := readLegacyState(t, "state-v2-hybrid.rsnp")
	if !base.HybridFrontier {
		t.Fatal("record is not in the frontier regime")
	}
	r.check(t, "v2 hybrid state", base, 25)
	st, err := core.ApplyDelta(base, readLegacyDelta(t, "delta-v2-hybrid.rsnp"))
	if err != nil {
		t.Fatal(err)
	}
	r.check(t, "v2 hybrid delta", st, 28)
}

// reframe rewrites a stream's CRC trailer after its body was edited.
func reframe(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// frontierFlagAt returns the offset of the frontier flag in a version-2
// legacy record: the record and its re-encoding share every byte before it,
// and the re-encoding ends with the flag and the trailer.
func frontierFlagAt(t *testing.T, legacy, reencoded []byte) int {
	t.Helper()
	at := len(reencoded) - 5
	if !bytes.Equal(legacy[:at], reencoded[:at]) || legacy[at] != 1 {
		t.Fatal("legacy record and its re-encoding do not share the prefix before the frontier flag")
	}
	return at
}

// TestLegacyFrontierSectionErrors pins that writers leave the frontier flag
// at 0 and the defensive decode of a legacy section: a flag other than 0 or
// 1, a truncation anywhere, and a forged length all return an error, and
// the forged length is never allocated.
func TestLegacyFrontierSectionErrors(t *testing.T) {
	_, _, s := testSession(t, 13, 120, core.DefaultOptions(), 2)
	base := s.ExportState()
	s.Run(context.Background(), 1)
	d, err := core.DiffStates(base, s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var sb, db bytes.Buffer
	if err := WriteState(&sb, base); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelta(&db, d); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{sb.Bytes(), db.Bytes()} {
		if b[len(b)-5] != 0 {
			t.Fatal("writer set the frontier flag")
		}
	}

	read := map[string]func([]byte) error{
		"state": func(b []byte) error { _, err := ReadState(bytes.NewReader(b)); return err },
		"delta": func(b []byte) error { _, err := ReadDelta(bytes.NewReader(b)); return err },
	}
	for _, rec := range []struct{ name, kind string }{
		{"state-v1-frontier.rsnp", "state"},
		{"state-v1-parallel.rsnp", "state"},
		{"state-v2-hybrid.rsnp", "state"},
		{"ranged-full.rsnp", "state"},
		{"ranged-full.r0001.rsnp", "state"},
		{"delta-v1-frontier.rsnp", "delta"},
		{"delta-v2-hybrid.rsnp", "delta"},
		{"ranged-delta.rsnp", "delta"},
		{"ranged-delta.r0001.rsnp", "delta"},
	} {
		// Every cut of the small records; the large ones are mostly cache
		// rows, where a stride still lands inside every field.
		b := readLegacy(t, rec.name)
		for cut := 0; cut < len(b); cut += 1 + len(b)/2048 {
			if read[rec.kind](b[:cut]) == nil {
				t.Fatalf("%s: truncation at %d of %d accepted", rec.name, cut, len(b))
			}
		}
	}

	// On each version-2 legacy record: a flag of 2 in front of a well-formed
	// section, and a forged left-side row count (a state's cache length, a
	// delta's edit count), which follows the flag and the work counter.
	bounded := func(name string, decode func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged length accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: decoding a forged length allocated %d bytes", name, grew)
		}
	}
	for _, rec := range []struct{ name, kind string }{
		{"state-v2-hybrid.rsnp", "state"},
		{"ranged-full.r0001.rsnp", "state"},
		{"delta-v2-hybrid.rsnp", "delta"},
		{"ranged-delta.rsnp", "delta"},
	} {
		legacy := readLegacy(t, rec.name)
		var re bytes.Buffer
		if rec.kind == "state" {
			err = WriteState(&re, readLegacyState(t, rec.name))
		} else {
			err = WriteDelta(&re, readLegacyDelta(t, rec.name))
		}
		if err != nil {
			t.Fatal(err)
		}
		at := frontierFlagAt(t, legacy, re.Bytes())

		flag2 := append([]byte(nil), legacy...)
		flag2[at] = 2
		if read[rec.kind](reframe(flag2)) == nil {
			t.Errorf("%s: frontier flag 2 accepted", rec.name)
		}

		count := at + 1
		_, n := binary.Uvarint(legacy[count:])
		count += n
		_, n = binary.Uvarint(legacy[count:])
		forged := binary.AppendUvarint(append([]byte(nil), legacy[:count]...), 1<<40)
		forged = reframe(append(forged, legacy[count+n:]...))
		bounded(rec.name, func() error { return read[rec.kind](forged) })
	}
}
