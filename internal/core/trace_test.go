package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/sociograph/reconcile/internal/trace"
)

// traceClock is the injected deterministic clock for session trace tests.
type traceClock struct{ now int64 }

func (c *traceClock) read() int64 { c.now++; return c.now }

// TestTraceRetentionMatchesPhaseLog pins the promise made in internal/trace:
// its default span retention mirrors the session phase log's window, so a
// job's trace and its phase feed cover the same recent history. (The trace
// package cannot import core to share the constant — core imports trace.)
func TestTraceRetentionMatchesPhaseLog(t *testing.T) {
	if trace.DefaultRetainSweeps != PhaseRetainSweeps {
		t.Fatalf("trace.DefaultRetainSweeps = %d, core.PhaseRetainSweeps = %d — the windows must match",
			trace.DefaultRetainSweeps, PhaseRetainSweeps)
	}
}

// spansByKind buckets an exported trace for assertion convenience.
func spansByKind(p *trace.Persisted) map[trace.Kind][]trace.Span {
	out := map[trace.Kind][]trace.Span{}
	for _, s := range p.Spans {
		out[s.Kind] = append(out[s.Kind], s)
	}
	return out
}

func TestSessionEmitsSweepAndBucketSpans(t *testing.T) {
	g1, g2, seeds := testInstance(11, 150)
	opts := pathSequential.on(DefaultOptions())
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
	s.SetTracer(tr)

	const sweeps = 3
	if _, err := s.Run(context.Background(), sweeps); err != nil {
		t.Fatal(err)
	}
	by := spansByKind(tr.Export())
	if len(by[trace.KindSweep]) != sweeps {
		t.Fatalf("sweep spans = %d, want %d", len(by[trace.KindSweep]), sweeps)
	}
	buckets := opts.BucketSchedule(g1, g2)
	if want := sweeps * len(buckets); len(by[trace.KindBucket]) != want {
		t.Fatalf("bucket spans = %d, want %d", len(by[trace.KindBucket]), want)
	}
	for i, sp := range by[trace.KindSweep] {
		if sp.Sweep != i+1 {
			t.Fatalf("sweep span %d stamped sweep %d", i, sp.Sweep)
		}
		if sp.Detail != fmt.Sprintf("sweep %d", i+1) {
			t.Fatalf("sweep span detail = %q", sp.Detail)
		}
	}
	// Each sweep span must enclose its buckets on the timeline.
	for _, b := range by[trace.KindBucket] {
		sw := by[trace.KindSweep][b.Sweep-1]
		if b.Start < sw.Start || b.End > sw.End {
			t.Fatalf("bucket span %+v escapes sweep span %+v", b, sw)
		}
	}
}

func TestSessionSeedIngestSpan(t *testing.T) {
	g1, g2, seeds := testInstance(12, 100)
	s, err := NewSession(g1, g2, seeds[:len(seeds)/2], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
	s.SetTracer(tr)
	if err := s.AddSeeds(seeds[len(seeds)/2:]); err != nil {
		t.Fatal(err)
	}
	by := spansByKind(tr.Export())
	if len(by[trace.KindSeedIngest]) != 1 {
		t.Fatalf("seed-ingest spans = %d, want 1", len(by[trace.KindSeedIngest]))
	}
	want := fmt.Sprintf("%d seeds", len(seeds)-len(seeds)/2)
	if d := by[trace.KindSeedIngest][0].Detail; d != want {
		t.Fatalf("detail = %q, want %q", d, want)
	}
}

// TestHybridHandoffSpan drives a default session to convergence so the
// regime switches, and requires exactly one engine-handoff span (the switch is
// one-way and the state build happens once).
func TestHybridHandoffSpan(t *testing.T) {
	g1, g2, seeds := testInstance(13, 200)
	s, err := NewSession(g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
	s.SetTracer(tr)
	if _, err := s.RunUntilStable(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	if !s.FrontierActive() {
		t.Skip("instance never crossed the regime threshold")
	}
	by := spansByKind(tr.Export())
	if len(by[trace.KindHandoff]) != 1 {
		t.Fatalf("handoff spans = %d, want exactly 1", len(by[trace.KindHandoff]))
	}
}

// TestTraceContinuousAcrossRestore is the core half of the resume-continuity
// story: kill a traced run mid-sweep, restore the session and the trace, and
// require every sweep to appear exactly once — the interrupted sweep's span
// covers its post-restore portion, and none are duplicated or lost.
func TestTraceContinuousAcrossRestore(t *testing.T) {
	for i, path := range testPaths {
		t.Run(fmt.Sprintf("engine-%d", i), func(t *testing.T) {
			g1, g2, seeds := testInstance(14, 150)
			s, err := NewSession(g1, g2, seeds, path.on(DefaultOptions()))
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New(trace.Config{Clock: (&traceClock{}).read})
			s.SetTracer(tr)

			// Cancel from inside the progress hook partway through sweep 2.
			ctx, cancel := context.WithCancel(context.Background())
			s.SetProgress(func(e PhaseEvent) {
				if e.Iteration == 2 && e.Bucket == 1 {
					cancel()
				}
			})
			if _, err := s.Run(ctx, 4); err == nil {
				t.Fatal("expected cancellation")
			}
			st := s.ExportState()
			p := tr.Export()

			// A fresh process: restore state, re-seat the trace, mark the seam.
			s2, err := RestoreSession(g1, g2, st)
			if err != nil {
				t.Fatal(err)
			}
			tr2 := trace.Restore(trace.Config{Clock: (&traceClock{}).read}, p)
			tr2.Mark(trace.KindResume, "test restart")
			s2.SetTracer(tr2)
			if _, err := s2.Run(context.Background(), 2); err != nil {
				t.Fatal(err)
			}

			by := spansByKind(tr2.Export())
			if len(by[trace.KindResume]) != 1 {
				t.Fatalf("resume spans = %d, want 1", len(by[trace.KindResume]))
			}
			seen := map[int]int{}
			for _, sp := range by[trace.KindSweep] {
				seen[sp.Sweep]++
			}
			for want := 1; want <= s2.Sweeps(); want++ {
				if seen[want] != 1 {
					t.Fatalf("sweep %d has %d spans (trace %v), want exactly 1", want, seen[want], seen)
				}
			}
			// Timeline must not rewind across the seam.
			var last int64
			for _, sp := range tr2.Export().Spans {
				if sp.End < last {
					t.Fatalf("trace timeline rewound: span %+v ends before %d", sp, last)
				}
				last = sp.End
			}
		})
	}
}
