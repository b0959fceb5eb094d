package core

import (
	"context"
	"math/bits"
	"runtime"
	"sort"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// checkCandLists requires the session's candidate lists to be exactly what
// the pass that just ran read: synced up to the pass's first link, and
// every node's list equal to its neighbors unmatched at that point, ordered
// by descending degree class, ties by ascending ID.
func checkCandLists(t *testing.T, s *Session, ev PhaseEvent) {
	t.Helper()
	st := s.walk
	if st == nil {
		t.Fatalf("sweep %d bucket %d: no candidate lists after a pass", ev.Iteration, ev.Bucket)
	}
	if want := ev.TotalLinks - ev.Matched; st.synced != want {
		t.Fatalf("sweep %d bucket %d: lists synced to %d links, the pass started at %d", ev.Iteration, ev.Bucket, st.synced, want)
	}
	left := make([]bool, s.g1.NumNodes())
	right := make([]bool, s.g2.NumNodes())
	for _, p := range s.m.pairs[:st.synced] {
		left[p.Left], right[p.Right] = true, true
	}
	checkSide := func(side string, g *graph.Graph, c *candLists, matched []bool) {
		t.Helper()
		class := func(w graph.NodeID) int { return bits.Len(uint(g.Degree(w))) }
		for x := 0; x < g.NumNodes(); x++ {
			id := graph.NodeID(x)
			if int(c.class[x]) != class(id) {
				t.Fatalf("%s node %d: class %d, degree %d", side, x, c.class[x], g.Degree(id))
			}
			var want []graph.NodeID
			for _, w := range g.Neighbors(id) {
				if !matched[w] {
					want = append(want, w)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				ci, cj := class(want[i]), class(want[j])
				if ci != cj {
					return ci > cj
				}
				return want[i] < want[j]
			})
			if got := c.list(id); !nodesEq(got, want) {
				t.Fatalf("sweep %d bucket %d: %s list(%d) = %v, want %v", ev.Iteration, ev.Bucket, side, x, got, want)
			}
		}
	}
	checkSide("G1", s.g1, &st.left, left)
	checkSide("G2", s.g2, &st.right, right)
}

// unmatchedIdentity returns up to k identity pairs whose endpoints are both
// unmatched, spread over the node range: seeds AddSeeds accepts.
func unmatchedIdentity(s *Session, k int) []graph.Pair {
	var out []graph.Pair
	n := min(s.g1.NumNodes(), s.g2.NumNodes())
	for v := 0; v < n && len(out) < k; v += 3 {
		id := graph.NodeID(v)
		if s.m.left[id] == NoMatch && s.m.right[id] == NoMatch {
			out = append(out, graph.Pair{Left: id, Right: id})
		}
	}
	return out
}

// TestCandidateListInvariant checks the candidate lists after every pass
// of either regime: with seeds at New, with AddSeeds between runs, and after
// a mid-sweep restore. Full-scan passes run at one and four workers,
// unbucketed and under a MaxDegree override; frontier passes run on a fixed
// frontier session and on a hybrid session past its handoff. Four workers
// read the lists concurrently, so under -race this also checks that
// compaction stays between passes.
func TestCandidateListInvariant(t *testing.T) {
	g1, g2, seeds := testInstance(11, 500)
	configs := []struct {
		name string
		set  func(*Options)
	}{
		{"workers1", func(o *Options) { o.Workers = 1 }},
		{"workers4", func(o *Options) { o.Workers = 4 }},
		{"unbucketed", func(o *Options) { o.DisableBucketing = true }},
		{"maxdegree8", func(o *Options) { o.MaxDegree = 8; o.MinBucketExp = 0 }},
		{"frontier", func(o *Options) { o.Engine = EngineFrontier }},
		{"hybrid", func(o *Options) { o.Engine = EngineHybrid }},
	}
	ctx := context.Background()
	for _, cfg := range configs {
		opts := DefaultOptions()
		opts.Engine = EngineParallel
		cfg.set(&opts)
		t.Run(cfg.name, func(t *testing.T) {
			passes, frontierPasses := 0, 0
			hook := func(s *Session) func(PhaseEvent) {
				return func(ev PhaseEvent) {
					passes++
					if s.fr != nil {
						frontierPasses++
					}
					checkCandLists(t, s, ev)
				}
			}
			ingest := func(s *Session) {
				t.Helper()
				extra := unmatchedIdentity(s, 20)
				if len(extra) == 0 {
					t.Fatal("no unmatched identity pairs left to add")
				}
				if err := s.AddSeeds(extra); err != nil {
					t.Fatal(err)
				}
			}

			// Seeds at New, then AddSeeds between runs, before and after
			// convergence (where a hybrid session has handed off).
			s, err := NewSession(g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			s.SetProgress(hook(s))
			if _, err := s.RunContext(ctx, 1); err != nil {
				t.Fatal(err)
			}
			ingest(s)
			if _, err := s.RunContext(ctx, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunUntilStableContext(ctx, 10); err != nil {
				t.Fatal(err)
			}
			converged := s.Sweeps()
			ingest(s)
			if _, err := s.RunUntilStableContext(ctx, 10); err != nil {
				t.Fatal(err)
			}

			// A mid-sweep restore rebuilds the lists at its first pass (the
			// unbucketed schedule has no mid-sweep point; it restores at the
			// first sweep boundary). The second one lands after convergence,
			// in the hybrid's frontier regime.
			nb := len(opts.buckets(g1, g2))
			for _, at := range []struct{ sweeps, stop int }{
				{2, 1 + nb/2},
				{converged + 2, converged*nb + (nb+1)/2},
			} {
				mid := runToBoundary(t, g1, g2, seeds, opts, at.sweeps, at.stop)
				r, err := RestoreSession(g1, g2, mid.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				r.SetProgress(hook(r))
				finishSchedule(t, r, at.sweeps)
			}
			if passes == 0 {
				t.Fatal("no pass was checked")
			}
			if opts.Engine != EngineParallel && frontierPasses == 0 {
				t.Fatal("no frontier pass was checked")
			}
		})
	}
}

// TestScanStateLifetime pins when each piece of per-session scoring state
// exists. The candidate lists and scorers (walk) are never built by
// NewSession or RestoreSession, are built at the first bucket of either
// regime, and a hybrid session's frontier takes over the ones its full
// scans built. The full scan's proposal buffers (scan) are never built for a
// frontier pass and are dropped at a hybrid handoff.
func TestScanStateLifetime(t *testing.T) {
	g1, g2, seeds := testInstance(12, 400)
	ctx := context.Background()
	for _, engine := range []Engine{EngineSequential, EngineParallel, EngineFrontier, EngineHybrid} {
		opts := DefaultOptions()
		opts.Engine = engine
		s, err := NewSession(g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.walk != nil || s.scan != nil {
			t.Fatalf("%v: NewSession built scoring state", engine)
		}
		built, handedOff := false, false
		var lists *walkState
		s.SetProgress(func(PhaseEvent) {
			if s.walk == nil {
				t.Fatalf("%v: a pass ran without candidate lists", engine)
			}
			if lists != nil && s.walk != lists {
				t.Fatalf("%v: candidate lists rebuilt mid-session", engine)
			}
			lists = s.walk
			switch {
			case engine == EngineFrontier && s.scan != nil:
				t.Fatal("frontier session built full-scan buffers")
			case s.FrontierActive():
				handedOff = true
				if s.scan != nil {
					t.Fatal("hybrid session kept full-scan buffers after its handoff decision")
				}
			case s.scan != nil:
				built = true
			}
		})
		if _, err := s.RunUntilStableContext(ctx, 10); err != nil {
			t.Fatal(err)
		}
		if engine != EngineFrontier && !built {
			t.Fatalf("%v: no full-scan pass built its buffers", engine)
		}
		if engine == EngineHybrid && !handedOff {
			t.Fatal("hybrid session never handed off; the instance does not exercise the takeover")
		}
		r, err := RestoreSession(g1, g2, s.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if r.walk != nil || r.scan != nil {
			t.Fatalf("%v: RestoreSession built scoring state", engine)
		}
	}
}

// referenceSelect is the selection the one-pass loops replace: rank every
// touched candidate by count (or weight), keep the first strict maximum
// with lowest-ID replacement among ties, then take the maximum count among
// the others for the margin.
func referenceSelect(scores []int32, weights []float32, touched []graph.NodeID, p passParams) candidate {
	rank := func(w graph.NodeID) float64 {
		if weights != nil {
			return float64(weights[w])
		}
		return float64(scores[w])
	}
	best := touched[0]
	bestKey := rank(best)
	tie := false
	for _, w := range touched[1:] {
		k := rank(w)
		switch {
		case k > bestKey:
			best, bestKey = w, k
			tie = false
		case k == bestKey:
			if p.ties == TieLowestID && w < best {
				best = w
			}
			tie = true
		}
	}
	selCount := scores[best]
	var maxOther int32
	for _, w := range touched {
		if w != best && scores[w] > maxOther {
			maxOther = scores[w]
		}
	}
	switch {
	case selCount < p.threshold:
		return candidate{}
	case tie && p.ties == TieReject:
		return candidate{}
	case p.minMargin > 0 && selCount-maxOther < p.minMargin:
		return candidate{}
	}
	return candidate{node: best, score: selCount}
}

// TestOnePassSelection runs hand-built touched sets through the one-pass
// selection and checks each against the expected proposal and against the
// three-loop rule it replaces; the scratch must come back cleared. The
// all-levels selection must agree with the same rule at every level: with
// even IDs in the top level's degree class and odd IDs one class below,
// level 0 sees the even candidates only and level 1 sees all of them.
func TestOnePassSelection(t *testing.T) {
	type cand struct {
		node   graph.NodeID
		count  int32
		weight float32 // used when the case is weighted
	}
	cases := []struct {
		name      string
		weighted  bool
		ties      TieBreak
		threshold int32
		margin    int32
		touched   []cand // in touch order
		want      candidate
	}{
		{name: "unique top", threshold: 2,
			touched: []cand{{3, 2, 0}, {5, 4, 0}, {7, 1, 0}},
			want:    candidate{node: 5, score: 4}},
		{name: "tie rejects", threshold: 2, ties: TieReject,
			touched: []cand{{3, 3, 0}, {5, 3, 0}, {1, 1, 0}}},
		{name: "tie lowest id", threshold: 2, ties: TieLowestID,
			touched: []cand{{5, 3, 0}, {3, 3, 0}, {9, 1, 0}},
			want:    candidate{node: 3, score: 3}},
		{name: "tie lowest id touched last", threshold: 2, ties: TieLowestID,
			touched: []cand{{5, 3, 0}, {9, 1, 0}, {8, 3, 0}, {3, 3, 0}},
			want:    candidate{node: 3, score: 3}},
		{name: "margin with runner-up tied", threshold: 2, ties: TieLowestID, margin: 1,
			touched: []cand{{4, 5, 0}, {2, 5, 0}, {6, 1, 0}}},
		{name: "margin 1 with runner-up one below", threshold: 2, margin: 1,
			touched: []cand{{4, 4, 0}, {2, 5, 0}, {6, 1, 0}},
			want:    candidate{node: 2, score: 5}},
		{name: "margin 2 with runner-up one below", threshold: 2, margin: 2,
			touched: []cand{{4, 4, 0}, {2, 5, 0}, {6, 1, 0}}},
		{name: "count at threshold", threshold: 3,
			touched: []cand{{1, 1, 0}, {6, 3, 0}},
			want:    candidate{node: 6, score: 3}},
		{name: "count below threshold", threshold: 3,
			touched: []cand{{1, 1, 0}, {6, 2, 0}}},
		{name: "adamic-adar weight argmax is not count argmax", weighted: true, threshold: 2,
			touched: []cand{{4, 3, 1.0}, {2, 2, 1.5}, {7, 1, 0.2}},
			want:    candidate{node: 2, score: 2}},
		{name: "adamic-adar threshold on the selected count", weighted: true, threshold: 3,
			touched: []cand{{4, 3, 1.0}, {2, 2, 1.5}, {7, 1, 0.2}}},
		{name: "adamic-adar margin against a higher count", weighted: true, threshold: 2, margin: 1,
			touched: []cand{{4, 3, 1.0}, {2, 2, 1.5}, {7, 1, 0.2}}},
		{name: "adamic-adar margin against the runner-up count", weighted: true, threshold: 2, margin: 2,
			touched: []cand{{7, 2, 1.0}, {2, 4, 1.5}, {4, 2, 0.5}},
			want:    candidate{node: 2, score: 4}},
		{name: "adamic-adar weight tie rejects", weighted: true, threshold: 1, ties: TieReject,
			touched: []cand{{6, 2, 1.25}, {3, 1, 1.25}}},
		{name: "adamic-adar weight tie lowest id", weighted: true, threshold: 1, ties: TieLowestID,
			touched: []cand{{6, 2, 1.25}, {3, 1, 1.25}},
			want:    candidate{node: 3, score: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := passParams{threshold: tc.threshold, ties: tc.ties, weighted: tc.weighted, minMargin: tc.margin}
			sc := newScorer(16, tc.weighted)
			for _, c := range tc.touched {
				sc.touched = append(sc.touched, c.node)
				sc.scores[c.node] = c.count
				if tc.weighted {
					sc.weights[c.node] = c.weight
				}
			}
			ref := referenceSelect(sc.scores, sc.weights, sc.touched, p)
			var got candidate
			if tc.weighted {
				got = sc.selectWeighted(p)
			} else {
				got = sc.selectCount(p)
			}
			if got != tc.want {
				t.Errorf("selected %+v, want %+v", got, tc.want)
			}
			if got != ref {
				t.Errorf("selected %+v, the replaced rule selects %+v", got, ref)
			}
			if len(sc.touched) != 0 {
				t.Errorf("touched list not cleared: %v", sc.touched)
			}
			for w := range sc.scores {
				if sc.scores[w] != 0 || (tc.weighted && sc.weights[w] != 0) {
					t.Fatalf("scratch not cleared at %d", w)
				}
			}

			class := make([]uint8, len(sc.scores))
			var even []graph.NodeID
			for _, c := range tc.touched {
				class[c.node] = uint8(2 - c.node%2)
				sc.touched = append(sc.touched, c.node)
				sc.scores[c.node] = c.count
				if tc.weighted {
					sc.weights[c.node] = c.weight
				}
				if c.node%2 == 0 {
					even = append(even, c.node)
				}
			}
			want := []candidate{{}, ref}
			if len(even) > 0 {
				want[0] = referenceSelect(sc.scores, sc.weights, even, p)
			}
			out := make([]candidate, 2)
			sc.selectLevels(p, 1, class, out)
			for j := range out {
				if out[j] != want[j] {
					t.Errorf("level %d selected %+v, the rule selects %+v", j, out[j], want[j])
				}
			}
			if len(sc.touched) != 0 {
				t.Errorf("all-levels selection left the touched list: %v", sc.touched)
			}
			for w := range sc.scores {
				if sc.scores[w] != 0 || (tc.weighted && sc.weights[w] != 0) {
					t.Fatalf("all-levels selection left scratch at %d", w)
				}
			}
		})
	}
}

// TestScanPassAllocations pins the reuse of the pass buffers: once a
// parallel-regime session has run a sweep, a further sweep at one worker
// allocates almost nothing — no proposals, scorers or candidate lists.
func TestScanPassAllocations(t *testing.T) {
	const n = 15000
	r := xrand.New(1 << 8)
	g := gen.PreferentialAttachment(r, n, 10)
	g1, g2 := sampling.IndependentCopies(r, g, 0.5, 0.5)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.10)
	opts := DefaultOptions()
	opts.Engine = EngineParallel
	opts.Workers = 1
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.RunContext(ctx, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	found, err := s.RunContext(ctx, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 256 << 10
	got := after.TotalAlloc - before.TotalAlloc
	if got >= limit {
		t.Fatalf("second sweep (%d links) allocated %d bytes, want < %d", found, got, limit)
	}
	t.Logf("second sweep (%d links) allocated %d bytes", found, got)
}
