package core

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// checkCandLists requires each side's built candidate lists to be exactly
// what the pass that just ran read: synced up to the pass's first link, and
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
			if got := c.list(id); !slices.Equal(got, want) {
				t.Fatalf("sweep %d bucket %d: %s list(%d) = %v, want %v", ev.Iteration, ev.Bucket, side, x, got, want)
			}
		}
	}
	if st.left.built() {
		checkSide("G1", s.g1, &st.left, left)
	}
	if st.right.built() {
		checkSide("G2", s.g2, &st.right, right)
	}
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
// unbucketed, under a MaxDegree override, and under Adamic-Adar ranking and
// a margin, the two rules whose right pass walks G1's lists; frontier passes
// run on a fixed frontier session and on a hybrid session past its handoff.
// A count-scored session that has run only full scans derives the right
// side's proposals, so it must never build G1's lists or a right-side
// scorer; every other config must check G1's lists at some pass. Four
// workers read the lists concurrently, so under -race this also checks that
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
		{"adamic-adar", func(o *Options) { o.Scoring = ScoreAdamicAdar }},
		{"margin1", func(o *Options) { o.MinMargin = 1 }},
		{"frontier", func(o *Options) { o.pin = pinFrontier }},
		{"hybrid", func(o *Options) { o.pin = pinNone }},
	}
	ctx := context.Background()
	for _, cfg := range configs {
		opts := pathParallel.on(DefaultOptions())
		cfg.set(&opts)
		derived := opts.passParams(1).derive
		t.Run(cfg.name, func(t *testing.T) {
			passes, frontierPasses, g1Checked := 0, 0, 0
			hook := func(s *Session) func(PhaseEvent) {
				return func(ev PhaseEvent) {
					passes++
					if s.fr != nil {
						frontierPasses++
					}
					checkCandLists(t, s, ev)
					if s.walk.left.built() {
						g1Checked++
						if derived && s.fr == nil {
							t.Fatalf("sweep %d bucket %d: a count-scored full scan built G1's candidate lists", ev.Iteration, ev.Bucket)
						}
					}
					if derived && s.fr == nil && len(s.walk.rightScorers) > 0 {
						t.Fatalf("sweep %d bucket %d: a count-scored full scan built a right-side scorer", ev.Iteration, ev.Bucket)
					}
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
			if _, err := s.Run(ctx, 1); err != nil {
				t.Fatal(err)
			}
			ingest(s)
			if _, err := s.Run(ctx, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunUntilStable(ctx, 10); err != nil {
				t.Fatal(err)
			}
			converged := s.Sweeps()
			ingest(s)
			if _, err := s.RunUntilStable(ctx, 10); err != nil {
				t.Fatal(err)
			}

			// A mid-sweep restore rebuilds the lists at its first pass (the
			// unbucketed schedule has no mid-sweep point; it restores at the
			// first sweep boundary). The second one lands after convergence,
			// in the hybrid's frontier regime.
			nb := len(opts.BucketSchedule(g1, g2))
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
			if opts.pin != pinFullScan && frontierPasses == 0 {
				t.Fatal("no frontier pass was checked")
			}
			if (!derived || opts.pin != pinFullScan) && g1Checked == 0 {
				t.Fatal("G1's candidate lists were never built, so never checked")
			}
		})
	}
}

// TestScanStateLifetime pins when each piece of per-session scoring state
// exists. NewSession and RestoreSession build none of it. The walk state is
// created at the first bucket of either regime, and at the handoff the
// frontier takes over the one the full scans built. Inside it, each side's
// candidate lists and scorers are built at that side's first walk: a
// count-scored full scan walks only the left side, so it never builds G1's
// lists or a right-side scorer; an Adamic-Adar full scan builds both at its
// first pass; the frontier builds G1's at its first right refresh, which on
// the default path comes after the handoff. The full scan's proposal
// buffers (scan) are never built for a frontier pass and are dropped at the
// handoff.
func TestScanStateLifetime(t *testing.T) {
	g1, g2, seeds := testInstance(12, 400)
	ctx := context.Background()
	cases := []struct {
		name    string
		path    testPath
		scoring Scoring
	}{
		{"sequential", pathSequential, ScoreWitnessCount},
		{"parallel", pathParallel, ScoreWitnessCount},
		{"parallel/adamic-adar", pathParallel, ScoreAdamicAdar},
		{"frontier", pathFrontier, ScoreWitnessCount},
		{"hybrid", pathHybrid, ScoreWitnessCount},
	}
	for _, tc := range cases {
		opts := tc.path.on(DefaultOptions())
		opts.Scoring = tc.scoring
		s, err := NewSession(g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.walk != nil || s.scan != nil {
			t.Fatalf("%s: NewSession built scoring state", tc.name)
		}
		built, handedOff := false, false
		var lists *walkState
		s.SetProgress(func(PhaseEvent) {
			if s.walk == nil {
				t.Fatalf("%s: a pass ran without candidate lists", tc.name)
			}
			if lists != nil && s.walk != lists {
				t.Fatalf("%s: candidate lists rebuilt mid-session", tc.name)
			}
			lists = s.walk
			g1Lists := s.walk.left.built() || len(s.walk.rightScorers) > 0
			switch {
			case tc.path == pathFrontier && s.scan != nil:
				t.Fatal("frontier session built full-scan buffers")
			case s.FrontierActive():
				handedOff = true
				if s.scan != nil {
					t.Fatal("session kept full-scan buffers in the frontier regime")
				}
				for _, sc := range slices.Concat(s.walk.leftScorers, s.walk.rightScorers) {
					if sc.pairs != nil {
						t.Fatal("session kept a scorer's pair buffer in the frontier regime")
					}
				}
			case s.scan != nil:
				built = true
				if !s.walk.right.built() || len(s.walk.leftScorers) == 0 {
					t.Fatalf("%s: a full-scan pass ran without G2's lists or a left-side scorer", tc.name)
				}
				if weighted := tc.scoring == ScoreAdamicAdar; g1Lists != weighted {
					t.Fatalf("%s: after a full-scan pass, G1's lists or right-side scorers built = %v, want %v", tc.name, g1Lists, weighted)
				}
			}
		})
		if _, err := s.RunUntilStable(ctx, 10); err != nil {
			t.Fatal(err)
		}
		if tc.path != pathFrontier && !built {
			t.Fatalf("%s: no full-scan pass built its buffers", tc.name)
		}
		if tc.path == pathHybrid && !handedOff {
			t.Fatal("default session never handed off; the instance does not exercise the takeover")
		}
		if tc.path == pathFrontier || tc.path == pathHybrid {
			if !s.walk.left.built() || len(s.walk.rightScorers) == 0 {
				t.Fatalf("%s: the frontier's right refreshes never built G1's lists and a right-side scorer", tc.name)
			}
		}
		r, err := RestoreSession(g1, g2, s.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if r.walk != nil || r.scan != nil {
			t.Fatalf("%s: RestoreSession built scoring state", tc.name)
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

// TestOnePassSelection runs hand-built candidate sets through the one-pass
// selection and checks each against the expected proposal and against the
// three-loop rule it replaces, which reads every candidate. Each set is
// listed as a walk lists it: every candidate, or under derive only those at
// count >= T, so the derive cases check that leaving the others out changes
// nothing; every count-ranked case without a margin also runs under derive.
// The next walk must read every count as 0. The all-levels selection must
// agree with the same rule at every level: with even IDs in the top level's
// degree class and odd IDs one class below, level 0 sees the even
// candidates only and level 1 sees all of them.
func TestOnePassSelection(t *testing.T) {
	type cand struct {
		node   graph.NodeID
		count  int32
		weight float32 // used when the case is weighted
	}
	cases := []struct {
		name      string
		weighted  bool
		derive    bool
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
		{name: "derive lists only the one at T", threshold: 3, derive: true, ties: TieReject,
			touched: []cand{{1, 2, 0}, {2, 2, 0}, {6, 3, 0}, {4, 1, 0}},
			want:    candidate{node: 6, score: 3}},
		{name: "derive with a tie below T", threshold: 3, derive: true, ties: TieLowestID,
			touched: []cand{{8, 2, 0}, {2, 2, 0}, {9, 4, 0}, {6, 3, 0}},
			want:    candidate{node: 9, score: 4}},
		{name: "derive tie at the top rejects", threshold: 2, derive: true, ties: TieReject,
			touched: []cand{{7, 1, 0}, {5, 3, 0}, {8, 2, 0}, {3, 3, 0}}},
		{name: "derive lists nothing", threshold: 4, derive: true,
			touched: []cand{{1, 3, 0}, {6, 3, 0}, {2, 1, 0}}},
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
	const n = 16
	for _, tc := range cases {
		derives := []bool{tc.derive}
		if !tc.derive && !tc.weighted && tc.margin == 0 {
			derives = []bool{false, true}
		}
		for _, derive := range derives {
			name := tc.name
			if derive && !tc.derive {
				name += "/derive"
			}
			t.Run(name, func(t *testing.T) {
				p := passParams{threshold: tc.threshold, ties: tc.ties, weighted: tc.weighted, minMargin: tc.margin, derive: derive}
				counts := make([]int32, n)
				var weights []float32
				if tc.weighted {
					weights = make([]float32, n)
				}
				var all, even []graph.NodeID
				for _, c := range tc.touched {
					counts[c.node] = c.count
					if tc.weighted {
						weights[c.node] = c.weight
					}
					all = append(all, c.node)
					if c.node%2 == 0 {
						even = append(even, c.node)
					}
				}
				ref := referenceSelect(counts, weights, all, p)
				sc := newScorer(n, tc.weighted)
				// stage lists the case's candidates as a fresh walk would,
				// over whatever the previous walk left in the scratch.
				stage := func() (listed []scoredPair) {
					sc.stamp(n)
					for _, c := range tc.touched {
						sc.scores[c.node] = sc.base + uint32(c.count)
						if tc.weighted {
							sc.weights[c.node] = c.weight
						}
						if uint32(c.count) >= p.listAt() {
							sc.listed = append(sc.listed, c.node)
							listed = append(listed, scoredPair{left: 0, right: c.node, count: c.count})
						}
					}
					return listed
				}
				readsZero := func(what string) {
					t.Helper()
					sc.stamp(n)
					if len(sc.listed) != 0 {
						t.Errorf("%s left the list: %v", what, sc.listed)
					}
					for w, c := range sc.scores {
						if c > sc.base {
							t.Fatalf("%s: the next walk reads count %d at %d", what, c-sc.base, w)
						}
					}
				}

				listed := stage()
				var got candidate
				if tc.weighted {
					got = sc.selectWeighted(p)
				} else {
					got = sc.selectCount(p, 0)
				}
				if got != tc.want {
					t.Errorf("selected %+v, want %+v", got, tc.want)
				}
				if got != ref {
					t.Errorf("selected %+v, the replaced rule selects %+v", got, ref)
				}
				if derive && !slices.Equal(sc.pairs, listed) {
					t.Errorf("recorded pairs %v, want the ones at T %v", sc.pairs, listed)
				}
				readsZero("selection")

				class := make([]uint8, n)
				for _, c := range tc.touched {
					class[c.node] = uint8(2 - c.node%2)
				}
				stage()
				want := []candidate{{}, ref}
				if len(even) > 0 {
					want[0] = referenceSelect(counts, weights, even, p)
				}
				out := make([]candidate, 2)
				sc.selectLevels(p, 1, class, out)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("level %d selected %+v, the rule selects %+v", j, out[j], want[j])
					}
				}
				readsZero("all-levels selection")
			})
		}
	}
}

// TestWalkListsCandidatesAtT checks the walk's listing against brute force.
// On a fixed instance and a partial matching, for every eligible node of
// both directions at several floors, the walk must list exactly the
// unmatched partners at or above the floor whose SimilarityWitnesses count
// reaches the pass's listing count — T under the paper's rule, 1 under
// Adamic-Adar ranking or a margin — each once and with that count. One
// scorer walks every node in turn, so this also checks that no walk reads
// another's counts. It reports how many candidates were listed against how
// many a walk touches (count >= 1).
func TestWalkListsCandidatesAtT(t *testing.T) {
	g1, g2, seeds := testInstance(31, 300)
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	lc := newLinkedCounts(g1, g2, m)
	configs := []struct {
		name   string
		set    func(*Options)
		listAt int
	}{
		{"T1", func(o *Options) { o.Threshold = 1 }, 1},
		{"T2", func(o *Options) {}, 2},
		{"T3", func(o *Options) { o.Threshold = 3 }, 3},
		{"adamic-adar", func(o *Options) { o.Scoring = ScoreAdamicAdar }, 1},
		{"margin1", func(o *Options) { o.MinMargin = 1 }, 1},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := DefaultOptions()
			cfg.set(&opts)
			listed, touched := 0, 0
			for _, minDeg := range []int{1, 2, 8} {
				p := opts.passParams(minDeg)
				for _, dir := range []passDirection{fromLeft, fromRight} {
					ga, gb, link, selfMatched, partnerMatched := passViews(dir, g1, g2, m)
					linked := lc.left
					if dir == fromRight {
						linked = lc.right
					}
					partners := newCandLists(gb, partnerMatched)
					sc := newScorer(gb.NumNodes(), p.weighted)
					for v := 0; v < ga.NumNodes(); v++ {
						id := graph.NodeID(v)
						if selfMatched[id] != NoMatch || ga.Degree(id) < minDeg || int(linked[id]) < opts.Threshold {
							continue
						}
						var want []graph.NodeID
						for w := 0; w < gb.NumNodes(); w++ {
							wid := graph.NodeID(w)
							if partnerMatched[wid] != NoMatch || gb.Degree(wid) < minDeg {
								continue
							}
							c := SimilarityWitnesses(g1, g2, m, id, wid)
							if dir == fromRight {
								c = SimilarityWitnesses(g1, g2, m, wid, id)
							}
							if c >= 1 {
								touched++
							}
							if c >= cfg.listAt {
								want = append(want, wid)
							}
						}
						sc.walk(id, ga, gb, link, &partners, p)
						got := slices.Clone(sc.listed)
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("floor %d dir %d node %d: listed %v, want %v", minDeg, dir, v, got, want)
						}
						for _, w := range got {
							c := SimilarityWitnesses(g1, g2, m, id, w)
							if dir == fromRight {
								c = SimilarityWitnesses(g1, g2, m, w, id)
							}
							if int(sc.count(w)) != c {
								t.Fatalf("floor %d dir %d node %d: candidate %d reads count %d, want %d", minDeg, dir, v, w, sc.count(w), c)
							}
						}
						listed += len(got)
						sc.listed = sc.listed[:0]
					}
				}
			}
			if listed == 0 {
				t.Fatal("no candidate was listed")
			}
			t.Logf("listed %d of %d touched candidates", listed, touched)
		})
	}
}

// TestScorerStampWrap runs whole passes, in both directions and under each
// selection, on a scorer whose stamp starts within a few degrees of
// MaxUint32 over scratch that earlier walks filled up to it, and requires
// the proposals of a fresh scorer. The stamp must wrap during the pass.
func TestScorerStampWrap(t *testing.T) {
	g1, g2, seeds := testInstance(32, 400)
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	lc := newLinkedCounts(g1, g2, m)
	configs := []struct {
		name string
		set  func(*Options)
	}{
		{"count", func(o *Options) {}},
		{"T1", func(o *Options) { o.Threshold = 1 }},
		{"adamic-adar", func(o *Options) { o.Scoring = ScoreAdamicAdar }},
		{"margin1", func(o *Options) { o.MinMargin = 1 }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := DefaultOptions()
			cfg.set(&opts)
			p := opts.passParams(1)
			for _, dir := range []passDirection{fromLeft, fromRight} {
				ga, gb, _, _, partnerMatched := passViews(dir, g1, g2, m)
				partners := newCandLists(gb, partnerMatched)
				n := ga.NumNodes()
				want := make([]candidate, n)
				scoreRange(dir, g1, g2, m, lc, &partners, p, 0, n, newScorer(gb.NumNodes(), p.weighted), want)
				maxDeg := 0
				for v := 0; v < n; v++ {
					maxDeg = max(maxDeg, ga.Degree(graph.NodeID(v)))
				}
				for _, left := range []uint32{0, 1, uint32(maxDeg), uint32(3 * maxDeg)} {
					sc := newScorer(gb.NumNodes(), p.weighted)
					sc.end = math.MaxUint32 - left
					for w := range sc.scores {
						sc.scores[w] = sc.end - uint32(w%3)
					}
					got := make([]candidate, n)
					scoreRange(dir, g1, g2, m, lc, &partners, p, 0, n, sc, got)
					if sc.end >= math.MaxUint32-left {
						t.Fatalf("dir %d, %d below MaxUint32: the stamp never wrapped", dir, left)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("dir %d, %d below MaxUint32: node %d proposes %+v, a fresh scorer %+v", dir, left, v, got[v], want[v])
						}
					}
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
	opts := pathParallel.on(DefaultOptions())
	opts.Workers = 1
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Run(ctx, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	found, err := s.Run(ctx, 1)
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

// TestDeriveRightColumnRule feeds hand-built per-worker pair buffers to the
// column rule and checks every right node's derived proposal against the
// rule the right pass applies (referenceSelect) to the same candidates. The
// buffers hold only the candidates at count >= T, as the left pass records
// them; the reference sees all of them. Each case splits its pairs over two
// workers and merges the buffers in both orders; the buffers must come back
// drained and a stale proposal from an earlier pass must not survive.
func TestDeriveRightColumnRule(t *testing.T) {
	type cand struct {
		left  graph.NodeID
		count int32
	}
	cases := []struct {
		name      string
		ties      TieBreak
		threshold int32
		columns   map[graph.NodeID][]cand // right node -> its candidates, all counts
		want      map[graph.NodeID]candidate
	}{
		{name: "unique top", threshold: 2,
			columns: map[graph.NodeID][]cand{3: {{1, 2}, {4, 5}, {6, 3}}},
			want:    map[graph.NodeID]candidate{3: {node: 4, score: 5}}},
		{name: "tie under TieReject", threshold: 2, ties: TieReject,
			columns: map[graph.NodeID][]cand{2: {{5, 3}, {1, 3}, {7, 2}}}},
		{name: "tie under TieLowestID", threshold: 2, ties: TieLowestID,
			columns: map[graph.NodeID][]cand{2: {{5, 3}, {7, 2}, {1, 3}}},
			want:    map[graph.NodeID]candidate{2: {node: 1, score: 3}}},
		{name: "counts below T", threshold: 3,
			columns: map[graph.NodeID][]cand{
				1: {{2, 2}, {3, 1}},         // top below T: abstains
				5: {{2, 2}, {6, 3}, {0, 2}}, // only the top reaches T
				8: {{4, 2}, {9, 2}},         // tied below T: abstains under either policy
			},
			want: map[graph.NodeID]candidate{5: {node: 6, score: 3}}},
		{name: "columns across both workers", threshold: 2, ties: TieLowestID,
			columns: map[graph.NodeID][]cand{
				0: {{9, 4}, {2, 4}, {5, 1}, {11, 4}},
				7: {{3, 3}, {8, 4}, {10, 4}, {1, 3}},
				9: {{12, 2}, {13, 5}},
			},
			want: map[graph.NodeID]candidate{0: {node: 2, score: 4}, 7: {node: 8, score: 4}, 9: {node: 13, score: 5}}},
		{name: "columns across both workers, TieReject", threshold: 2, ties: TieReject,
			columns: map[graph.NodeID][]cand{
				0: {{9, 4}, {2, 4}, {5, 1}, {11, 4}},
				7: {{3, 3}, {8, 4}, {10, 3}, {1, 3}},
			},
			want: map[graph.NodeID]candidate{7: {node: 8, score: 4}}},
	}
	const n = 16
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := passParams{threshold: tc.threshold, ties: tc.ties, derive: true}
			// Split the recorded pairs over two workers, alternating, so a
			// column's pairs land in both buffers.
			var bufs [2][]scoredPair
			k := 0
			for w := graph.NodeID(0); w < n; w++ {
				for _, c := range tc.columns[w] {
					if c.count >= tc.threshold {
						bufs[k%2] = append(bufs[k%2], scoredPair{left: c.left, right: w, count: c.count})
						k++
					}
				}
			}
			for _, order := range [][2]int{{0, 1}, {1, 0}} {
				scorers := []*scorer{{pairs: append([]scoredPair(nil), bufs[order[0]]...)}, {pairs: append([]scoredPair(nil), bufs[order[1]]...)}}
				st := &scanState{rightBest: make([]candidate, n)}
				for w := range st.rightBest {
					st.rightBest[w] = candidate{node: 15, score: 9} // a stale proposal
				}
				st.deriveRight(scorers, p)
				for w := graph.NodeID(0); w < n; w++ {
					var want candidate
					if cs := tc.columns[w]; len(cs) > 0 {
						scores := make([]int32, n)
						var touched []graph.NodeID
						for _, c := range cs {
							scores[c.left] = c.count
							touched = append(touched, c.left)
						}
						want = referenceSelect(scores, nil, touched, p)
					}
					if got := st.rightBest[w]; got != want {
						t.Errorf("order %v: right node %d derived %+v, the right pass selects %+v", order, w, got, want)
					}
					if got := st.rightBest[w]; got != tc.want[w] {
						t.Errorf("order %v: right node %d derived %+v, want %+v", order, w, got, tc.want[w])
					}
				}
				for i, sc := range scorers {
					if len(sc.pairs) != 0 {
						t.Errorf("order %v: worker %d's buffer not drained: %v", order, i, sc.pairs)
					}
				}
			}
		})
	}
}

// TestDerivedRightProposals checks the derivation on whole sessions. At
// every full-scan pass of random instances, the back-proposal the scan
// derived at each left proposal's target must equal what the right pass it
// replaces selects there: scoreRange from the right, walking G1's candidate
// lists, on the matching the pass started from. It runs at one and four
// workers, unbucketed, under a MaxDegree override and under TieLowestID.
// Four workers record pairs concurrently, so under -race this also checks
// that the buffers stay per worker.
func TestDerivedRightProposals(t *testing.T) {
	configs := []struct {
		name string
		set  func(*Options)
	}{
		{"workers1", func(o *Options) { o.Workers = 1 }},
		{"workers4", func(o *Options) { o.Workers = 4 }},
		{"unbucketed", func(o *Options) { o.DisableBucketing = true }},
		{"maxdegree8", func(o *Options) { o.MaxDegree = 8; o.MinBucketExp = 0 }},
		{"lowestid", func(o *Options) { o.Ties = TieLowestID; o.Workers = 4 }},
	}
	ctx := context.Background()
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			targets := 0
			for _, seed := range []uint64{21, 22, 23} {
				g1, g2, seeds := testInstance(seed, 600)
				n1, n2 := g1.NumNodes(), g2.NumNodes()
				opts := pathParallel.on(DefaultOptions())
				cfg.set(&opts)
				s, err := NewSession(g1, g2, seeds, opts)
				if err != nil {
					t.Fatal(err)
				}
				s.SetProgress(func(ev PhaseEvent) {
					start, err := NewMatching(n1, n2, s.m.pairs[:ev.TotalLinks-ev.Matched])
					if err != nil {
						t.Fatal(err)
					}
					lists := newCandLists(g1, start.left)
					p := opts.passParams(ev.MinDegree)
					p.derive = false
					ref := make([]candidate, n2)
					scoreRange(fromRight, g1, g2, start, newLinkedCounts(g1, g2, start), &lists, p, 0, n2, newScorer(n1, false), ref)
					for v1, c := range s.scan.leftBest {
						if c.score == 0 {
							continue
						}
						targets++
						if got := s.scan.rightBest[c.node]; got != ref[c.node] {
							t.Fatalf("seed %d sweep %d bucket %d: left %d proposes %d, which derived %+v; the right pass selects %+v",
								seed, ev.Iteration, ev.Bucket, v1, c.node, got, ref[c.node])
						}
					}
				})
				if _, err := s.RunUntilStable(ctx, 10); err != nil {
					t.Fatal(err)
				}
			}
			if targets == 0 {
				t.Fatal("no left proposal was checked")
			}
		})
	}
}
