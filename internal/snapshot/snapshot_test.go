package snapshot

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// pathNames lists the four runs the suites compare, named after the
// execution paths internal/core's suites pin. Outside that package a run's
// path is set by its worker count and by the regime it starts in:
// sequential is one worker, parallel three, frontier the frontier regime
// from the first bucket, and hybrid the default. Every path produces the
// same links.
var pathNames = []string{"sequential", "parallel", "frontier", "hybrid"}

// newOnPath is core.NewSession on one of pathNames. The frontier path is a
// session restored, before its first bucket, from a state whose regime bit
// is set: every bucket it runs takes the frontier path.
func newOnPath(t testing.TB, path string, g1, g2 *graph.Graph, seeds []graph.Pair, opts core.Options) *core.Session {
	t.Helper()
	switch path {
	case "sequential":
		opts.Workers = 1
	case "parallel":
		opts.Workers = 3
	}
	s, err := core.NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if path == "frontier" {
		st := s.ExportState()
		st.HybridFrontier = true
		if s, err = core.RestoreSession(g1, g2, st); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// testSession builds a partially-run session over a small instance.
func testSession(t testing.TB, seed uint64, n int, opts core.Options, stopAfter int) (*graph.Graph, *graph.Graph, *core.Session) {
	t.Helper()
	return pathSession(t, "hybrid", seed, n, opts, stopAfter)
}

// pathSession is testSession on one of pathNames.
func pathSession(t testing.TB, path string, seed uint64, n int, opts core.Options, stopAfter int) (*graph.Graph, *graph.Graph, *core.Session) {
	t.Helper()
	r := xrand.New(seed)
	g := gen.PreferentialAttachment(r, n, 4)
	g1, g2 := sampling.IndependentCopies(r, g, 0.7, 0.8)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.2)
	s := newOnPath(t, path, g1, g2, seeds, opts)
	if stopAfter > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		buckets := 0
		s.SetProgress(func(core.PhaseEvent) {
			buckets++
			if buckets == stopAfter {
				cancel()
			}
		})
		s.Run(ctx, opts.Iterations)
		s.SetProgress(nil)
	}
	return g1, g2, s
}

// stateEqual compares states treating nil and empty slices as equal (the
// codec canonicalizes empties to nil).
func stateEqual(a, b *core.SessionState) bool {
	norm := func(st core.SessionState) core.SessionState {
		if len(st.Pairs) == 0 {
			st.Pairs = nil
		}
		if len(st.Phases) == 0 {
			st.Phases = nil
		}
		return st
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

func TestFullRoundTrip(t *testing.T) {
	for _, path := range pathNames {
		t.Run(path, func(t *testing.T) {
			opts := core.DefaultOptions()
			g1, g2, s := pathSession(t, path, 42, 300, opts, 3)
			st := s.ExportState()

			var buf bytes.Buffer
			if err := Write(&buf, g1, g2, st); err != nil {
				t.Fatal(err)
			}
			rg1, rg2, rst, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := rg1.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := rg2.Validate(); err != nil {
				t.Fatal(err)
			}
			if !stateEqual(st, rst) {
				t.Fatal("decoded state differs from exported state")
			}

			// Canonical: re-encoding is byte-identical.
			var again bytes.Buffer
			if err := Write(&again, rg1, rg2, rst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatal("re-encoding is not byte-identical")
			}

			// The restored session finishes identically to the original.
			restored, err := core.RestoreSession(rg1, rg2, rst)
			if err != nil {
				t.Fatal(err)
			}
			finish := func(s *core.Session) *core.Result {
				remaining := opts.Iterations - s.Sweeps()
				if _, err := s.Run(context.Background(), remaining); err != nil {
					t.Fatal(err)
				}
				return s.Result()
			}
			want, got := finish(s), finish(restored)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("restored run diverged: %d pairs, want %d", len(got.Pairs), len(want.Pairs))
			}
		})
	}
}

func TestStateOnlyRoundTrip(t *testing.T) {
	opts := core.DefaultOptions()
	g1, g2, s := testSession(t, 7, 250, opts, 2)
	st := s.ExportState()

	var gbuf1, gbuf2, sbuf bytes.Buffer
	if err := WriteGraph(&gbuf1, g1); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(&gbuf2, g2); err != nil {
		t.Fatal(err)
	}
	if err := WriteState(&sbuf, st); err != nil {
		t.Fatal(err)
	}

	rg1, err := ReadGraph(bytes.NewReader(gbuf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rg2, err := ReadGraph(bytes.NewReader(gbuf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rst, err := ReadState(bytes.NewReader(sbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !stateEqual(st, rst) {
		t.Fatal("decoded state differs")
	}
	if _, err := core.RestoreSession(rg1, rg2, rst); err != nil {
		t.Fatal(err)
	}

	// Kinds do not cross: a state stream is not a graph stream or a full
	// snapshot.
	if _, err := ReadGraph(bytes.NewReader(sbuf.Bytes())); err == nil {
		t.Error("state stream accepted as a graph")
	}
	if _, _, _, err := Read(bytes.NewReader(sbuf.Bytes())); err == nil {
		t.Error("state stream accepted as a full snapshot")
	}
	if _, err := ReadState(bytes.NewReader(gbuf1.Bytes())); err == nil {
		t.Error("graph stream accepted as a state")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	opts := core.DefaultOptions()
	g1, g2, s := testSession(t, 13, 200, opts, 2)
	var buf bytes.Buffer
	if err := Write(&buf, g1, g2, s.ExportState()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, _, _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, _, _, err := Read(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("garbage accepted")
	}

	// Version skew is refused explicitly.
	skew := append([]byte(nil), valid...)
	skew[4] = Version + 1
	if _, _, _, err := Read(bytes.NewReader(skew)); err == nil {
		t.Error("future version accepted")
	}

	// Every truncation is an error, never a panic.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, _, _, err := Read(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Any single-byte flip breaks the checksum (or an earlier structural
	// check); sample the whole stream.
	for pos := 0; pos < len(valid); pos += 11 {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x41
		if _, _, _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte flip at %d accepted", pos)
		}
	}
}
