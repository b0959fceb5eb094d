package core

import (
	"context"
	"errors"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// deltaInstance builds a session over a small PA instance.
func deltaInstance(t testing.TB, seed uint64, n int, opts Options) (*graph.Graph, *graph.Graph, *Session) {
	t.Helper()
	r := xrand.New(seed)
	g := gen.PreferentialAttachment(r, n, 5)
	g1, g2 := sampling.IndependentCopies(r, g, 0.7, 0.8)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.12)
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g1, g2, s
}

// statesEquivalent compares two states field by field, treating nil and
// empty slices as equal (ApplyDelta normalizes empties to nil).
func statesEquivalent(a, b *SessionState) bool {
	if a.Opts != b.Opts || a.N1 != b.N1 || a.N2 != b.N2 ||
		a.Seeds != b.Seeds || a.Sweeps != b.Sweeps || a.NextBucket != b.NextBucket {
		return false
	}
	if a.PhasesDropped != b.PhasesDropped || a.DroppedMatched != b.DroppedMatched ||
		a.HybridFrontier != b.HybridFrontier {
		return false
	}
	if len(a.Pairs) != len(b.Pairs) || len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return false
		}
	}
	return true
}

// TestDiffApplyIdentity pins the delta contract on every engine: for states
// exported at consecutive sweep boundaries (with incremental seeds arriving
// in between), ApplyDelta(base, DiffStates(base, cur)) == cur, and a session
// restored from the replayed state finishes bit-identically to one restored
// from cur directly.
func TestDiffApplyIdentity(t *testing.T) {
	for _, engine := range []Engine{EngineFrontier, EngineParallel, EngineSequential, EngineHybrid} {
		t.Run(engine.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Engine = engine
			g1, g2, s := deltaInstance(t, 17, 400, opts)

			base := s.ExportState()
			injected := false
			notDiffable := 0
			for sweep := 0; sweep < 4; sweep++ {
				s.Run(context.Background(), 1)
				if sweep == 1 && !injected {
					// An incremental seed between checkpoints must flow
					// through the delta like any other append.
					for v := 0; v < s.g1.NumNodes() && v < s.g2.NumNodes(); v++ {
						p := graph.Pair{Left: graph.NodeID(v), Right: graph.NodeID(v)}
						if s.m.LeftMatch(p.Left) == NoMatch && s.m.RightMatch(p.Right) == NoMatch {
							if err := s.AddSeeds([]graph.Pair{p}); err != nil {
								t.Fatal(err)
							}
							injected = true
							break
						}
					}
				}
				cur := s.ExportState()
				d, err := DiffStates(base, cur)
				if errors.Is(err, ErrNotDiffable) && engine == EngineHybrid {
					// The hybrid regime handoff flips the regime bit between
					// checkpoints; a Checkpointer falls back to one full
					// snapshot there, so the chain just restarts.
					notDiffable++
					base = cur
					continue
				}
				if err != nil {
					t.Fatalf("sweep %d: diff: %v", sweep, err)
				}
				got, err := ApplyDelta(base, d)
				if err != nil {
					t.Fatalf("sweep %d: apply: %v", sweep, err)
				}
				if !statesEquivalent(cur, got) {
					t.Fatalf("sweep %d: apply(diff(base, cur)) != cur", sweep)
				}
				// The replayed state restores to a session whose future is
				// bit-identical to one restored from the direct export.
				a, err := RestoreSession(g1, g2, got)
				if err != nil {
					t.Fatalf("sweep %d: restore replayed: %v", sweep, err)
				}
				b, err := RestoreSession(g1, g2, cur)
				if err != nil {
					t.Fatalf("sweep %d: restore direct: %v", sweep, err)
				}
				a.Run(context.Background(), 2)
				b.Run(context.Background(), 2)
				ra, rb := a.Result(), b.Result()
				if len(ra.Pairs) != len(rb.Pairs) {
					t.Fatalf("sweep %d: replayed restore diverged (%d vs %d pairs)", sweep, len(ra.Pairs), len(rb.Pairs))
				}
				for i := range ra.Pairs {
					if ra.Pairs[i] != rb.Pairs[i] {
						t.Fatalf("sweep %d: replayed restore diverged at pair %d", sweep, i)
					}
				}
				base = cur
			}
			if !injected {
				t.Fatal("no free identity pair to inject; instance too saturated")
			}
			if notDiffable > 1 {
				t.Fatalf("hybrid forced %d full checkpoints, the one-way handoff allows at most 1", notDiffable)
			}
		})
	}
}

// TestDiffApplyMidSweep exports the base and target at bucket (not sweep)
// boundaries, the other positions serve checkpoints from.
func TestDiffApplyMidSweep(t *testing.T) {
	opts := DefaultOptions()
	g1, g2, s := deltaInstance(t, 23, 300, opts)
	stops := []int{1, 3, 5}
	var states []*SessionState
	buckets := 0
	ctx := context.Background()
	s.SetProgress(func(PhaseEvent) {
		buckets++
		for _, stop := range stops {
			if buckets == stop {
				states = append(states, s.ExportState())
			}
		}
	})
	s.Run(ctx, opts.Iterations)
	s.SetProgress(nil)
	if len(states) != len(stops) {
		t.Fatalf("captured %d states, want %d", len(states), len(stops))
	}
	for i := 1; i < len(states); i++ {
		d, err := DiffStates(states[i-1], states[i])
		if err != nil {
			t.Fatalf("diff %d: %v", i, err)
		}
		got, err := ApplyDelta(states[i-1], d)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if !statesEquivalent(states[i], got) {
			t.Fatalf("mid-sweep chain step %d: apply(diff) != target", i)
		}
		if _, err := RestoreSession(g1, g2, got); err != nil {
			t.Fatalf("restore of replayed mid-sweep state: %v", err)
		}
	}
}

// TestDiffNotDiffable pins the fallback contract: states that are not
// related by appends return ErrNotDiffable, never a delta that would replay
// wrongly.
func TestDiffNotDiffable(t *testing.T) {
	opts := DefaultOptions()
	_, _, s := deltaInstance(t, 31, 200, opts)
	s.Run(context.Background(), 1)
	base := s.ExportState()

	alt := s.ExportState()
	alt.Opts.Threshold++
	if _, err := DiffStates(base, alt); !errors.Is(err, ErrNotDiffable) {
		t.Fatalf("options change: err = %v, want ErrNotDiffable", err)
	}

	alt = s.ExportState()
	alt.N1++
	if _, err := DiffStates(base, alt); !errors.Is(err, ErrNotDiffable) {
		t.Fatalf("shape change: err = %v, want ErrNotDiffable", err)
	}

	alt = s.ExportState()
	if len(alt.Pairs) == 0 {
		t.Fatal("instance produced no pairs")
	}
	alt.Pairs[0].Left++
	if _, err := DiffStates(base, alt); !errors.Is(err, ErrNotDiffable) {
		t.Fatalf("mutated pair: err = %v, want ErrNotDiffable", err)
	}

	alt = s.ExportState()
	alt.HybridFrontier = !base.HybridFrontier
	if _, err := DiffStates(base, alt); !errors.Is(err, ErrNotDiffable) {
		t.Fatalf("regime flip: err = %v, want ErrNotDiffable", err)
	}

	// A target behind the base (replay order reversed) is refused.
	s.Run(context.Background(), 1)
	if _, err := DiffStates(s.ExportState(), base); !errors.Is(err, ErrNotDiffable) {
		t.Fatalf("reversed diff: err = %v, want ErrNotDiffable", err)
	}
}

// TestApplyDeltaValidation pins that a delta applied onto the wrong base, or
// with a malformed phase window, errors instead of producing a wrong state.
func TestApplyDeltaValidation(t *testing.T) {
	opts := DefaultOptions()
	_, _, s := deltaInstance(t, 37, 200, opts)
	base := s.ExportState()
	s.Run(context.Background(), 1)
	cur := s.ExportState()
	d, err := DiffStates(base, cur)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong base: applying the sweep-1 delta onto the sweep-1 state.
	if _, err := ApplyDelta(cur, d); err == nil {
		t.Fatal("delta applied onto the wrong base")
	}

	// A phase window that slides backwards.
	bad := *d
	bad.BasePhasesDropped, bad.PhasesDropped = 1, 0
	shifted := *base
	shifted.PhasesDropped = 1
	if _, err := ApplyDelta(&shifted, &bad); err == nil {
		t.Fatal("backwards phase window accepted")
	}
}
