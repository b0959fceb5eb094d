package core

import (
	"testing"

	"github.com/sociograph/reconcile/internal/graph"
)

// nodesEq compares NodeID slices treating nil and empty as equal.
func nodesEq(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// statesEqual is deep SessionState equality with nil and empty slices
// identified — the merge materializes fresh slices, so pointer-shape
// equality is not the contract; content equality is.
func statesEqual(a, b *SessionState) bool {
	if a.Opts != b.Opts || a.N1 != b.N1 || a.N2 != b.N2 ||
		a.Seeds != b.Seeds || a.Sweeps != b.Sweeps || a.NextBucket != b.NextBucket ||
		a.PhasesDropped != b.PhasesDropped || a.DroppedMatched != b.DroppedMatched ||
		a.HybridFrontier != b.HybridFrontier {
		return false
	}
	if len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	if len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return false
		}
	}
	if (a.Frontier == nil) != (b.Frontier == nil) {
		return false
	}
	if a.Frontier != nil {
		fa, fb := a.Frontier, b.Frontier
		if fa.Rescored != fb.Rescored {
			return false
		}
		for _, s := range []struct{ x, y *FrontierSideSnapshot }{{&fa.Left, &fb.Left}, {&fa.Right, &fb.Right}} {
			if !nodesEq(s.x.ProposalNode, s.y.ProposalNode) || !nodesEq(s.x.Dirty, s.y.Dirty) {
				return false
			}
			if len(s.x.ProposalScore) != len(s.y.ProposalScore) {
				return false
			}
			for i := range s.x.ProposalScore {
				if s.x.ProposalScore[i] != s.y.ProposalScore[i] {
					return false
				}
			}
		}
	}
	return true
}

func TestRangeCount(t *testing.T) {
	cases := []struct {
		n1, n2, target, want int
	}{
		{0, 0, 1 << 20, 1},
		{100, 100, 0, 1},
		{100, 100, -5, 1},
		{1 << 20, 0, 1 << 20, 1},
		{1 << 20, 1, 1 << 20, 2},
		{10 << 20, 10 << 20, 1 << 20, 20},
		{1 << 30, 1 << 30, 1 << 20, MaxStateRanges},
		{5000, 5000, 1000, 10},
	}
	for _, c := range cases {
		if got := RangeCount(c.n1, c.n2, c.target); got != c.want {
			t.Errorf("RangeCount(%d, %d, %d) = %d, want %d", c.n1, c.n2, c.target, got, c.want)
		}
	}
}

func TestRangeSpansPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 65, 1000} {
		for _, ranges := range []int{1, 2, 3, 7, 64} {
			spans := rangeSpans(n, ranges)
			if len(spans) != ranges {
				t.Fatalf("rangeSpans(%d, %d): %d spans", n, ranges, len(spans))
			}
			at := 0
			for r, s := range spans {
				if s.start != at || s.len() < 0 {
					t.Fatalf("rangeSpans(%d, %d): span %d = %+v, want start %d", n, ranges, r, s, at)
				}
				if d := spans[0].len() - s.len(); d < 0 || d > 1 {
					t.Fatalf("rangeSpans(%d, %d): unbalanced span %d", n, ranges, r)
				}
				at = s.end
			}
			if at != n {
				t.Fatalf("rangeSpans(%d, %d): spans end at %d", n, ranges, at)
			}
		}
	}
}

// syntheticState builds a structurally rich state by hand — frontier caches,
// dirty worklists, a phase log — without needing a session, so the
// round-trip test covers shapes (non-empty worklists) that depend on where
// a real run happens to stop.
func syntheticState(n1, n2, nLevels int) *SessionState {
	st := &SessionState{
		Opts:           DefaultOptions(),
		N1:             n1,
		N2:             n2,
		Seeds:          2,
		Sweeps:         3,
		NextBucket:     1,
		PhasesDropped:  8,
		DroppedMatched: 5,
		HybridFrontier: true,
		Phases: []PhaseStat{
			{Iteration: 3, MinDegree: 4, Matched: 2, TotalL: 7},
			{Iteration: 3, MinDegree: 2, Matched: 1, TotalL: 8},
		},
	}
	for i := 0; i < 9 && i < n1 && i < n2; i++ {
		st.Pairs = append(st.Pairs, graph.Pair{Left: graph.NodeID(i), Right: graph.NodeID((i + 1) % n2)})
	}
	fr := &FrontierSnapshot{Rescored: 1234}
	for v := 0; v < n1*nLevels; v++ {
		fr.Left.ProposalNode = append(fr.Left.ProposalNode, graph.NodeID(v%n2))
		fr.Left.ProposalScore = append(fr.Left.ProposalScore, int32(v%5))
	}
	for v := 0; v < n2*nLevels; v++ {
		fr.Right.ProposalNode = append(fr.Right.ProposalNode, graph.NodeID(v%n1))
		fr.Right.ProposalScore = append(fr.Right.ProposalScore, int32(v%3))
	}
	fr.Left.Dirty = []graph.NodeID{5, 1, 3}
	fr.Right.Dirty = []graph.NodeID{2, 7}
	st.Frontier = fr
	return st
}

// TestSplitMergeRoundTrip pins the structural contract for every legal
// range count: Merge(Split(st)) reproduces st, the head carries the phase
// log and worklists while the tails carry neither, and a one-range split is
// the state itself (which the one-range merge hands back uncopied) — what
// keeps a one-range chain byte-identical to a plain state record.
func TestSplitMergeRoundTrip(t *testing.T) {
	states := map[string]*SessionState{
		"frontier": syntheticState(50, 40, 3),
		"plain": {
			Opts: DefaultOptions(), N1: 30, N2: 30, Seeds: 1, Sweeps: 1,
			Pairs: []graph.Pair{{Left: 0, Right: 0}, {Left: 4, Right: 5}},
		},
		"empty": {Opts: DefaultOptions(), N1: 0, N2: 0},
	}
	for name, st := range states {
		for ranges := 1; ranges <= MaxStateRanges; ranges++ {
			parts, err := SplitStateRanges(st, ranges, nil)
			if err != nil {
				t.Fatalf("%s/R=%d: split: %v", name, ranges, err)
			}
			if len(parts) != ranges {
				t.Fatalf("%s/R=%d: got %d parts", name, ranges, len(parts))
			}
			if ranges == 1 && parts[0] != st {
				t.Fatalf("%s: the one-range split is not the state itself", name)
			}
			for r, p := range parts[1:] {
				if len(p.Phases) != 0 || (p.Frontier != nil && (len(p.Frontier.Left.Dirty) != 0 || len(p.Frontier.Right.Dirty) != 0)) {
					t.Fatalf("%s/R=%d: tail %d carries head-only state", name, ranges, r+1)
				}
			}
			got, err := MergeStateRanges(parts)
			if err != nil {
				t.Fatalf("%s/R=%d: merge: %v", name, ranges, err)
			}
			if ranges == 1 && got != st {
				t.Fatalf("%s: the one-range merge copied the head", name)
			}
			if !statesEqual(st, got) {
				t.Fatalf("%s/R=%d: merge(split(st)) != st", name, ranges)
			}
		}
	}
}

// TestSplitFrozenChunksDelta pins the delta-chain contract: splitting a
// later state with the base split's chunk cut makes every shard diff as a
// pure prefix (appended pairs land in the last chunk), the per-shard deltas
// apply cleanly, and the merged result is the later state.
func TestSplitFrozenChunksDelta(t *testing.T) {
	g1, g2, seeds := testInstance(42, 200)
	opts := DefaultOptions()
	opts.Engine = EngineFrontier
	opts.Threshold = 2
	opts.Iterations = 4
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	base := s.ExportState()
	s.Run(2)
	cur := s.ExportState()

	const ranges = 4
	baseParts, err := SplitStateRanges(base, ranges, nil)
	if err != nil {
		t.Fatal(err)
	}
	starts := PairChunkStarts(baseParts)
	curParts, err := SplitStateRanges(cur, ranges, starts)
	if err != nil {
		t.Fatal(err)
	}

	applied := make([]*SessionState, ranges)
	for r := 0; r < ranges; r++ {
		d, err := DiffStates(baseParts[r], curParts[r])
		if err != nil {
			t.Fatalf("shard %d: diff: %v", r, err)
		}
		if applied[r], err = ApplyDelta(baseParts[r], d); err != nil {
			t.Fatalf("shard %d: apply: %v", r, err)
		}
	}
	got, err := MergeStateRanges(applied)
	if err != nil {
		t.Fatalf("merge after apply: %v", err)
	}
	if !statesEqual(cur, got) {
		t.Fatal("delta-replayed ranged state differs from the directly exported state")
	}
}

// TestRangedResumeEquivalence is the core half of the matrix acceptance:
// restoring from a split+merged mid-run state and finishing must be
// bit-identical to the uninterrupted run, per engine.
func TestRangedResumeEquivalence(t *testing.T) {
	for _, engine := range []Engine{EngineFrontier, EngineHybrid, EngineParallel} {
		for _, ranges := range []int{2, 5} {
			g1, g2, seeds := testInstance(7, 250)
			opts := DefaultOptions()
			opts.Engine = engine
			opts.Threshold = 2
			opts.Iterations = 4

			full, err := NewSession(g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			full.Run(4)
			want := full.ExportState()

			s, err := NewSession(g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(2)
			parts, err := SplitStateRanges(s.ExportState(), ranges, nil)
			if err != nil {
				t.Fatalf("engine %d/R=%d: split: %v", engine, ranges, err)
			}
			merged, err := MergeStateRanges(parts)
			if err != nil {
				t.Fatalf("engine %d/R=%d: merge: %v", engine, ranges, err)
			}
			restored, err := RestoreSession(g1, g2, merged)
			if err != nil {
				t.Fatalf("engine %d/R=%d: restore: %v", engine, ranges, err)
			}
			restored.Run(2)
			got := restored.ExportState()
			if !statesEqual(want, got) {
				t.Fatalf("engine %d/R=%d: ranged resume diverged from uninterrupted run", engine, ranges)
			}
		}
	}
}

// TestMergeRejectsInconsistentShards pins the cross-checks of the tails
// against the head that stand between a torn checkpoint and a restored
// state.
func TestMergeRejectsInconsistentShards(t *testing.T) {
	split := func() []*SessionState {
		parts, err := SplitStateRanges(syntheticState(50, 40, 2), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Deep-copy the ranges so a mutation cannot leak between cases
		// through the aliased source state.
		cp := make([]*SessionState, len(parts))
		for i, p := range parts {
			c := *p
			if p.Frontier != nil {
				f := *p.Frontier
				f.Left.ProposalNode = append([]graph.NodeID(nil), p.Frontier.Left.ProposalNode...)
				f.Left.ProposalScore = append([]int32(nil), p.Frontier.Left.ProposalScore...)
				c.Frontier = &f
			}
			cp[i] = &c
		}
		return cp
	}

	cases := map[string]func(parts []*SessionState) []*SessionState{
		"no-ranges": func(parts []*SessionState) []*SessionState {
			return nil
		},
		"too-many-ranges": func(parts []*SessionState) []*SessionState {
			for len(parts) <= MaxStateRanges {
				parts = append(parts, parts[len(parts)-1])
			}
			return parts
		},
		"nil-range": func(parts []*SessionState) []*SessionState {
			parts[1] = nil
			return parts
		},
		"fingerprint": func(parts []*SessionState) []*SessionState {
			parts[2].Sweeps++
			return parts
		},
		"options": func(parts []*SessionState) []*SessionState {
			parts[1].Opts.Threshold++
			return parts
		},
		"span": func(parts []*SessionState) []*SessionState {
			parts[0].N1++
			return parts
		},
		"phases-in-tail": func(parts []*SessionState) []*SessionState {
			parts[1].Phases = []PhaseStat{{Iteration: 1}}
			return parts
		},
		"dirty-in-tail": func(parts []*SessionState) []*SessionState {
			parts[2].Frontier.Left.Dirty = []graph.NodeID{1}
			return parts
		},
		"cache-shape": func(parts []*SessionState) []*SessionState {
			parts[1].Frontier.Left.ProposalNode = parts[1].Frontier.Left.ProposalNode[:1]
			return parts
		},
		"head-cache-levels": func(parts []*SessionState) []*SessionState {
			parts[0].Frontier.Right.ProposalNode = parts[0].Frontier.Right.ProposalNode[:parts[0].N2]
			parts[0].Frontier.Right.ProposalScore = parts[0].Frontier.Right.ProposalScore[:parts[0].N2]
			return parts
		},
		"rescored": func(parts []*SessionState) []*SessionState {
			parts[1].Frontier.Rescored++
			return parts
		},
		"seed-prefix": func(parts []*SessionState) []*SessionState {
			parts[1].Seeds = 1 // the head's chunk is not all seeds
			return parts
		},
		"frontier-presence": func(parts []*SessionState) []*SessionState {
			parts[2].Frontier = nil
			return parts
		},
	}
	for name, mutate := range cases {
		if _, err := MergeStateRanges(mutate(split())); err == nil {
			t.Errorf("%s: merge accepted inconsistent range set", name)
		}
	}

	// Control: the unmutated set must merge.
	if _, err := MergeStateRanges(split()); err != nil {
		t.Fatalf("control merge failed: %v", err)
	}
}

func TestSplitRejectsBadChunkStarts(t *testing.T) {
	st := syntheticState(20, 20, 1)
	for name, starts := range map[string][]int{
		"wrong-len":  {0, 1},
		"nonzero":    {1, 2, 3},
		"descending": {0, 5, 3},
		"past-end":   {0, 2, len(st.Pairs) + 1},
	} {
		if _, err := SplitStateRanges(st, 3, starts); err == nil {
			t.Errorf("%s: split accepted bad chunk starts", name)
		}
	}
	if _, err := SplitStateRanges(st, 0, nil); err == nil {
		t.Error("split accepted zero ranges")
	}
	if _, err := SplitStateRanges(st, 1, []int{1}); err == nil {
		t.Error("one-range split accepted a bad chunk start")
	}
	if _, err := SplitStateRanges(nil, 2, nil); err == nil {
		t.Error("split accepted nil state")
	}
}

// TestSeedClampPartition: shard seed counts always sum to the global count,
// wherever the seed boundary falls relative to the chunk cut.
func TestSeedClampPartition(t *testing.T) {
	st := &SessionState{Opts: DefaultOptions(), N1: 40, N2: 40}
	for i := 0; i < 30; i++ {
		st.Pairs = append(st.Pairs, graph.Pair{Left: graph.NodeID(i), Right: graph.NodeID(i)})
	}
	for seedCount := 0; seedCount <= 30; seedCount += 3 {
		st.Seeds = seedCount
		for _, ranges := range []int{1, 4, 7} {
			parts, err := SplitStateRanges(st, ranges, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, p := range parts {
				sum += p.Seeds
			}
			if sum != seedCount {
				t.Fatalf("seeds %d, R=%d: shards sum to %d", seedCount, ranges, sum)
			}
		}
	}
}
