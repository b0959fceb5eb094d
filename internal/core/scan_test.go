package core

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// the default path comes after the handoff. The full scan's buffers (scan)
// are never built for a frontier pass and are dropped at the handoff: the
// right side's column words under the paper's rule, its proposals under
// Adamic-Adar, never both. Between passes no scorer references the words,
// so dropping the scan state frees them.
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
			// A pass lends the scan's column words to its scorers and takes
			// them back, so after the handoff drops the scan state no
			// scorer keeps the words alive.
			for _, sc := range slices.Concat(s.walk.leftScorers, s.walk.rightScorers) {
				if sc.cols != nil {
					t.Fatalf("%s: a scorer still references the column words after its pass (frontier regime %v)", tc.name, s.FrontierActive())
				}
			}
			g1Lists := s.walk.left.built() || len(s.walk.rightScorers) > 0
			weighted := tc.scoring == ScoreAdamicAdar
			switch {
			case tc.path == pathFrontier && s.scan != nil:
				t.Fatal("frontier session built full-scan buffers")
			case s.FrontierActive():
				handedOff = true
				if s.scan != nil {
					t.Fatal("session kept full-scan buffers in the frontier regime")
				}
			case s.scan != nil:
				built = true
				if !s.walk.right.built() || len(s.walk.leftScorers) == 0 {
					t.Fatalf("%s: a full-scan pass ran without G2's lists or a left-side scorer", tc.name)
				}
				if g1Lists != weighted {
					t.Fatalf("%s: after a full-scan pass, G1's lists or right-side scorers built = %v, want %v", tc.name, g1Lists, weighted)
				}
				if (s.scan.rightBest != nil) != weighted || (s.scan.cols != nil) == weighted {
					t.Fatalf("%s: the scan built right proposals %v and column words %v; a rule that walks the right side needs only the proposals, the paper's rule only the words",
						tc.name, s.scan.rightBest != nil, s.scan.cols != nil)
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
// nothing; every count-ranked case without a margin also runs under derive,
// where the selection must fold each listed candidate's count and the
// walking node's ID into the candidate's column word and touch no other.
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
				// stage lists the case's candidates as a fresh walk from
				// node v would, over whatever the previous walk left in the
				// scratch, and returns the column words a derive fold of
				// them leaves: count in bits 33-63 and v in bits 0-31 at
				// each listed candidate, no tie, and 0 elsewhere.
				const v = 13
				stage := func() (words []uint64) {
					sc.stamp(n)
					words = make([]uint64, n)
					for _, c := range tc.touched {
						sc.scores[c.node] = sc.base + uint32(c.count)
						if tc.weighted {
							sc.weights[c.node] = c.weight
						}
						if uint32(c.count) >= p.listAt() {
							sc.listed = append(sc.listed, c.node)
							words[c.node] = uint64(c.count)<<33 | v
						}
					}
					return words
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

				words := stage()
				if derive {
					sc.cols = make([]atomic.Uint64, n)
				}
				var got candidate
				if tc.weighted {
					got = sc.selectWeighted(p)
				} else {
					got = sc.selectCount(p, v)
				}
				if got != tc.want {
					t.Errorf("selected %+v, want %+v", got, tc.want)
				}
				if got != ref {
					t.Errorf("selected %+v, the replaced rule selects %+v", got, ref)
				}
				for w := range sc.cols {
					if got := sc.cols[w].Load(); got != words[w] {
						t.Errorf("column %d folded word %#x, want %#x", w, got, words[w])
					}
				}
				sc.cols = nil
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

// TestReconcileAllocationBound bounds what a whole run allocates by the
// size of its input, on the skewed graph of the experiments' Table 2 row
// RMAT15 (seed 1). Memory that grows with the pairs scored rather than with
// the graph fails it: these graphs score far more pairs than they have
// edges (60.7M at count >= 2 in one pass at RMAT19, which has 7.7M edges).
// At one worker the least of three TotalAlloc readings around Reconcile
// must be at most 16 bytes per node and edge of the two copies. The bound
// counts allocated bytes, not time, so it holds on any hardware.
func TestReconcileAllocationBound(t *testing.T) {
	r := xrand.New(1*0x9e3779b97f4a7c15 + 0x7B2) // the experiments' rng(salt 0x7B2) at seed 1
	g := gen.RMAT(r, gen.DefaultRMAT(15))
	g1, g2 := sampling.IndependentCopies(r, g, 0.5, 0.5)
	seeds := sampling.Seeds(r, graph.IdentityPairs(g.NumNodes()), 0.10)
	opts := DefaultOptions()
	opts.Threshold = 2
	opts.Workers = 1
	size := uint64(g1.NumNodes()+g2.NumNodes()) + uint64(g1.NumEdges()+g2.NumEdges())
	limit := 16 * size
	least := uint64(math.MaxUint64)
	links := 0
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		links = len(res.NewPairs)
	}
	t.Logf("%d nodes and %d edges over both copies; %d links found; least of three runs allocated %d bytes, limit %d",
		g1.NumNodes()+g2.NumNodes(), g1.NumEdges()+g2.NumEdges(), links, least, limit)
	if least > limit {
		t.Fatalf("Reconcile allocated %d bytes, over the %d-byte bound (16 B per node and edge)", least, limit)
	}
}

// TestDeriveRightColumnRule folds hand-built columns into the scan's column
// words and checks every right node's decoded proposal (scanState.back)
// against the rule the right pass applies (referenceSelect) to the same
// candidates. Only the candidates at count >= T are folded, as the left
// pass lists them; the reference sees all of them. Each case's pairs are
// split into two halves, as two workers would fold them, and folded in both
// orders. Before each order a previous pass's fold leaves a word at count 9
// in every column, and then a left pass over an instance with nothing to
// score runs: a stale word that survives the pass's clear fails the test.
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
	g := graph.FromEdges(n, nil)
	m, err := NewMatching(n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	lc := newLinkedCounts(g, g, m)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := passParams{threshold: tc.threshold, ties: tc.ties, derive: true}
			type pair struct {
				left, right graph.NodeID
				count       int32
			}
			// Split the pairs at count >= T into two halves, alternating, so
			// a column's pairs land in both.
			var halves [2][]pair
			k := 0
			for w := graph.NodeID(0); w < n; w++ {
				for _, c := range tc.columns[w] {
					if c.count >= tc.threshold {
						halves[k%2] = append(halves[k%2], pair{left: c.left, right: w, count: c.count})
						k++
					}
				}
			}
			st := newScanState(g, g, true)
			for _, order := range [][2]int{{0, 1}, {1, 0}} {
				for w := range st.cols {
					foldColumn(&st.cols[w], 15, 9) // the previous pass's word
				}
				st.pass(fromLeft, g, g, m, lc, &walkState{}, p, 2)
				for _, h := range order {
					for _, e := range halves[h] {
						foldColumn(&st.cols[e.right], e.left, e.count)
					}
				}
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
					if got := st.back(w, p); got != want {
						t.Errorf("order %v: right node %d derived %+v, the right pass selects %+v", order, w, got, want)
					}
					if got := st.back(w, p); got != tc.want[w] {
						t.Errorf("order %v: right node %d derived %+v, want %+v", order, w, got, tc.want[w])
					}
				}
			}
		})
	}
}

// TestColumnFoldOrderIndependent folds random sets of pairs, distinct left
// IDs with random counts, into one column word, sequentially in shuffled
// orders and from 8 goroutines at once, and requires the word the reference
// computes from the set alone: the top count in bits 33-63, the lowest left
// ID at it in bits 0-31, and bit 32 set exactly when two or more left IDs
// reach the top count. Counts come from a narrow range, so ties are common,
// half the sets at the top of the count field, and IDs span the whole ID
// range, so a count or an ID that spills into a neighbouring field fails.
func TestColumnFoldOrderIndependent(t *testing.T) {
	type pair struct {
		left  graph.NodeID
		count int32
	}
	r := xrand.New(26)
	for trial := 0; trial < 400; trial++ {
		k := 1 + r.IntN(256)
		span := 1 + r.IntN(4)
		base := int32(1)
		if trial%4 >= 2 {
			base = math.MaxInt32 - int32(span)
		}
		seen := map[graph.NodeID]bool{}
		var pairs []pair
		for len(pairs) < k {
			left := graph.NodeID(r.Uint32N(uint32(NoMatch)))
			if trial%2 == 0 {
				left = graph.NodeID(r.IntN(2 * k))
			}
			if !seen[left] {
				seen[left] = true
				pairs = append(pairs, pair{left: left, count: base + int32(r.IntN(span+1))})
			}
		}
		var (
			top    int32
			lowest graph.NodeID
			atTop  int
		)
		for _, e := range pairs {
			switch {
			case e.count > top:
				top, lowest, atTop = e.count, e.left, 1
			case e.count == top:
				lowest, atTop = min(lowest, e.left), atTop+1
			}
		}
		check := func(how string, order int, word uint64) {
			t.Helper()
			gotTop, gotLowest, gotTie := int32(word>>33), graph.NodeID(word&(1<<32-1)), word&(1<<32) != 0
			if gotTop != top || gotLowest != lowest || gotTie != (atTop > 1) {
				t.Fatalf("trial %d, %s %d: %d pairs folded to count %d, lowest ID %d, tie %v; want %d, %d, %v",
					trial, how, order, len(pairs), gotTop, gotLowest, gotTie, top, lowest, atTop > 1)
			}
		}
		for order := range 4 {
			r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			var col atomic.Uint64
			for _, e := range pairs {
				foldColumn(&col, e.left, e.count)
			}
			check("shuffled order", order, col.Load())
		}
		var (
			col   atomic.Uint64
			wg    sync.WaitGroup
			start = make(chan struct{})
		)
		const goroutines = 8
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := g; i < len(pairs); i += goroutines {
					foldColumn(&col, pairs[i].left, pairs[i].count)
				}
			}()
		}
		close(start)
		wg.Wait()
		check("goroutines", goroutines, col.Load())
	}
}

// TestDerivedRightProposals checks the derivation on whole sessions. At
// every full-scan pass of random instances, the back-proposal the scan
// derived at each left proposal's target must equal what the right pass it
// replaces selects there: scoreRange from the right, walking G1's candidate
// lists, on the matching the pass started from. It runs at one and four
// workers, unbucketed, under a MaxDegree override and under TieLowestID.
// Four workers fold pairs into the shared column words concurrently, so
// under -race this also checks that every fold is atomic.
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
					right := p
					right.derive = false
					ref := make([]candidate, n2)
					scoreRange(fromRight, g1, g2, start, newLinkedCounts(g1, g2, start), &lists, right, 0, n2, newScorer(n1, false), ref)
					for v1, c := range s.scan.leftBest {
						if c.score == 0 {
							continue
						}
						targets++
						if got := s.scan.back(c.node, p); got != ref[c.node] {
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
