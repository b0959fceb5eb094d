package snapshot

import (
	"bytes"
	"context"
	"io"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// BenchmarkSnapshotEncode measures full-snapshot encoding throughput
// (bytes/op is the snapshot size; MB/s is the headline recorded in
// BENCH_snapshot.json).
func BenchmarkSnapshotEncode(b *testing.B) {
	opts := core.DefaultOptions()
	g1, g2, s := testSession(b, 99, 20000, opts, 0)
	s.RunUntilStable(context.Background(), 10)
	st := s.ExportState()
	var buf bytes.Buffer
	if err := Write(&buf, g1, g2, st); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, g1, g2, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode measures full-snapshot decoding (including all
// structural re-validation) throughput.
func BenchmarkSnapshotDecode(b *testing.B) {
	opts := core.DefaultOptions()
	g1, g2, s := testSession(b, 99, 20000, opts, 0)
	s.RunUntilStable(context.Background(), 10)
	var buf bytes.Buffer
	if err := Write(&buf, g1, g2, s.ExportState()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncodeState measures a state-only checkpoint — what
// cmd/serve writes at every sweep boundary once the graphs are on disk.
func BenchmarkSnapshotEncodeState(b *testing.B) {
	opts := core.DefaultOptions()
	_, _, s := testSession(b, 99, 20000, opts, 0)
	s.RunUntilStable(context.Background(), 10)
	st := s.ExportState()
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteState(io.Discard, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotExportState isolates the in-memory deep copy from the
// byte encoding.
func BenchmarkSnapshotExportState(b *testing.B) {
	opts := core.DefaultOptions()
	_, _, s := testSession(b, 99, 20000, opts, 0)
	s.RunUntilStable(context.Background(), 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.ExportState()
	}
}

// deltaWorkload reproduces the incremental benchmark workload at checkpoint
// granularity: a converged 20k-node session ingests a handful of fresh seeds
// and re-sweeps to stability; base is the state at the pre-ingest checkpoint
// and cur the one after. The delta between them is what a per-sweep
// checkpoint writes in steady state.
func deltaWorkload(b *testing.B) (base, cur *core.SessionState) {
	b.Helper()
	opts := core.DefaultOptions()
	g1, g2, s := testSession(b, 99, 20000, opts, 0)
	s.RunUntilStable(context.Background(), 10)
	base = s.ExportState()
	usedL := map[graph.NodeID]bool{}
	usedR := map[graph.NodeID]bool{}
	for _, p := range s.Result().Pairs {
		usedL[p.Left] = true
		usedR[p.Right] = true
	}
	injected := 0
	for v := 0; v < g1.NumNodes() && v < g2.NumNodes() && injected < 20; v++ {
		p := graph.Pair{Left: graph.NodeID(v), Right: graph.NodeID(v)}
		if usedL[p.Left] || usedR[p.Right] {
			continue
		}
		if err := s.AddSeeds([]graph.Pair{p}); err != nil {
			b.Fatal(err)
		}
		injected++
	}
	if injected == 0 {
		b.Fatal("no free identity pairs on the converged instance")
	}
	s.RunUntilStable(context.Background(), 10)
	return base, s.ExportState()
}

// BenchmarkDeltaDiff measures computing the churn record (core.DiffStates)
// on the incremental workload — the in-memory half of a delta checkpoint.
func BenchmarkDeltaDiff(b *testing.B) {
	base, cur := deltaWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DiffStates(base, cur); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaEncode measures encoding a delta checkpoint on the
// incremental workload. bytes/op is the delta record size — compare with
// BenchmarkSnapshotEncodeState's bytes/op (the full checkpoint this record
// replaces); BENCH_store.json records the ratio.
func BenchmarkDeltaEncode(b *testing.B) {
	base, cur := deltaWorkload(b)
	d, err := core.DiffStates(base, cur)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteDelta(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaDecodeApply measures the restore half: decoding a delta
// record and replaying it onto the base state.
func BenchmarkDeltaDecodeApply(b *testing.B) {
	base, cur := deltaWorkload(b)
	d, err := core.DiffStates(base, cur)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.ApplyDelta(base, rd); err != nil {
			b.Fatal(err)
		}
	}
}
