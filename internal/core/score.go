package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/sociograph/reconcile/internal/graph"
)

// candidate is one side's best partner proposal: the top-ranked partner for
// a node, or none (score 0) when the node had no eligible partner, no
// witness count >= T, a disqualifying tie, or an insufficient margin.
type candidate struct {
	node  graph.NodeID
	score int32 // witness count of the selected partner
}

// passParams bundles the per-bucket scoring configuration.
type passParams struct {
	minDeg int
	// minClass is minDeg's degree class: bucket floors are powers of two,
	// so deg >= minDeg exactly when bits.Len(deg) >= minClass.
	minClass  uint8
	threshold int32
	ties      TieBreak
	weighted  bool // rank by Adamic-Adar weights instead of raw counts
	minMargin int32
	// derive is the paper's rule, count ranking with no margin, under which
	// the full scan derives the right side's proposals from the pairs the
	// left pass folds into column words instead of walking the right side.
	derive bool
}

// listAt is the witness count at which a walk lists a candidate for the
// selection. Under derive it is T: accept refuses a selected count below T,
// such a candidate can neither beat nor tie one at T, and only the margin
// rule reads the runner-up, so leaving it out changes no proposal. Weight
// ranking and the margin read every candidate, so there it is 1.
func (p passParams) listAt() uint32 {
	if p.derive {
		return uint32(p.threshold)
	}
	return 1
}

func (o Options) passParams(minDeg int) passParams {
	return passParams{
		minDeg:    minDeg,
		minClass:  uint8(bits.Len(uint(minDeg))),
		threshold: int32(o.Threshold),
		ties:      o.Ties,
		weighted:  o.Scoring == ScoreAdamicAdar,
		minMargin: int32(o.MinMargin),
		derive:    o.derives(),
	}
}

// derives reports whether the options are the paper's rule, under which
// the full scan derives the right side's proposals (passParams.derive).
func (o Options) derives() bool { return o.Scoring == ScoreWitnessCount && o.MinMargin == 0 }

// witnessWeight is the Adamic-Adar style contribution of a witness pair
// whose endpoints have the given degrees: rarely-linked witnesses count for
// more than celebrities.
func witnessWeight(d1, d2 int) float32 {
	d := d1
	if d2 > d {
		d = d2
	}
	return float32(1 / math.Log2(float64(2+d)))
}

// scorer is the per-worker scratch for one directional scoring pass. Witness
// counts are stamped into a dense array indexed by partner node: during a
// walk, w's count is scores[w]-base when scores[w] > base and 0 otherwise.
// Each walk moves base to the previous walk's end and the end on by deg(v),
// which bounds every count in a simple graph, so no walk reads another's
// counts and nothing is cleared between walks; the array is zeroed only
// when the end would pass MaxUint32. The listed candidates are those whose
// count reached the pass's listAt, in the order they reached it — the
// matcher's hot path allocates nothing per node. A session's walk state
// keeps its scorers across passes and regimes.
type scorer struct {
	scores    []uint32
	base, end uint32    // the current walk's stamp range
	weights   []float32 // nil unless weighted scoring is on; valid where the count is > 0
	listed    []graph.NodeID
	// levels groups the listed candidates by the first schedule level at
	// which they are eligible; only the frontier's all-levels selection
	// uses it.
	levels [][]graph.NodeID
	// cols is, during a full-scan left pass under derive, the scan's column
	// words, which selectCount folds every listed pair into; nil otherwise.
	// The pass lends them for its duration only, so dropping the scan state
	// frees them.
	cols []atomic.Uint64
}

func newScorer(nPartners int, weighted bool) *scorer {
	s := &scorer{scores: make([]uint32, nPartners)}
	if weighted {
		s.weights = make([]float32, nPartners)
	}
	return s
}

// bestFor is v's proposal at the pass's degree floor: one walk, then the
// single-level selection. Candidates are ranked by witness count (or by
// Adamic-Adar weight under weighted scoring); the winner must have count >=
// threshold, survive the tie policy, and beat every other candidate's count
// by minMargin.
func (s *scorer) bestFor(
	v graph.NodeID,
	ga, gb *graph.Graph,
	link []graph.NodeID,
	partners *candLists,
	p passParams,
) candidate {
	s.walk(v, ga, gb, link, partners, p)
	if s.weights != nil {
		return s.selectWeighted(p)
	}
	return s.selectCount(p, v)
}

// walk accumulates the similarity-witness counts of every candidate partner
// for node v in graph ga, where partners live in graph gb:
//
//	for each neighbor u of v in ga that is linked to u' = link[u],
//	    every unmatched w ∈ N_gb(u') of degree class >= p.minClass
//	    gains one witness (u, u').
//
// The unmatched, floor-eligible neighbors of u' are a prefix of partners'
// candidate list for u' (unmatched neighbors only, by descending degree
// class), so the walk stops at the first partner below the floor and never
// looks at a matched one. A candidate is listed when its count reaches
// p.listAt(). Each candidate's witnesses are added in N(v) order, so its
// Adamic-Adar weight is the same float sum whichever selection reads it. It
// is the one scoring kernel: the full scan walks down to the pass's floor,
// the frontier down to the schedule's lowest.
func (s *scorer) walk(
	v graph.NodeID,
	ga, gb *graph.Graph,
	link []graph.NodeID,
	partners *candLists,
	p passParams,
) {
	s.stamp(ga.Degree(v))
	base, atList := s.base, s.base+p.listAt()
	for _, u := range ga.Neighbors(v) {
		u2 := link[u]
		if u2 == NoMatch {
			continue
		}
		var wt float32
		if s.weights != nil {
			wt = witnessWeight(ga.Degree(u), gb.Degree(u2))
		}
		for _, w := range partners.list(u2) {
			if partners.class[w] < p.minClass {
				break
			}
			c := s.scores[w]
			if s.weights != nil {
				if c <= base {
					s.weights[w] = wt
				} else {
					s.weights[w] += wt
				}
			}
			c = max(c, base) + 1
			s.scores[w] = c
			if c == atList {
				s.listed = append(s.listed, w)
			}
		}
	}
}

// stamp starts the stamp range of a walk from a node of degree d.
func (s *scorer) stamp(d int) {
	if uint64(s.end)+uint64(d) > math.MaxUint32 {
		clear(s.scores)
		s.end = 0
	}
	s.base = s.end
	s.end += uint32(d)
}

// count is the witness count of w, a candidate the current walk listed.
func (s *scorer) count(w graph.NodeID) int32 { return int32(s.scores[w] - s.base) }

// selectCount is v's selection under witness-count ranking, in one loop
// over the listed candidates: the proposal is the lowest-ID candidate with
// the top count; a tie is more than one candidate at the top count, and the
// margin is measured against the runner-up count (the top count itself when
// tied). The result depends on the candidates' counts only, not on the
// order they were listed in. With column words lent, the listed candidates
// are exactly those at count >= T (derive), and the loop folds every pair
// (v, w) of them into w's word.
func (s *scorer) selectCount(p passParams, v graph.NodeID) candidate {
	var (
		best      graph.NodeID
		top, next int32 // the top count and the highest count below it
		atTop     int32 // candidates scoring top
	)
	for _, w := range s.listed {
		c := s.count(w)
		if s.cols != nil {
			foldColumn(&s.cols[w], v, c)
		}
		switch {
		case c > top:
			best, top, next, atTop = w, c, top, 1
		case c == top:
			atTop++
			if w < best {
				best = w
			}
		case c > next:
			next = c
		}
	}
	s.listed = s.listed[:0]
	if atTop > 1 {
		next = top
	}
	return p.accept(best, top, next, atTop > 1)
}

// A column word is one right node's column maximum over the pairs a derive
// left pass folds into it: the top count in bits 33-63 (a count is at most
// deg(v), below 2^31), a tie flag in bit 32, and the lowest left ID at the
// top count in bits 0-31. The zero word is a column nothing reached.
const (
	colCountShift        = 33
	colTie        uint64 = 1 << 32
)

// foldColumn folds the pair (left, ·) at witness count count into col: a
// higher count replaces the word and clears the flag, an equal count sets
// the flag and keeps the lower ID, and a lower count is dropped after one
// load. The fold is commutative and associative, so the word does not
// depend on the order of the folds or on which workers made them, and each
// left node folds at most once per column in a pass, so the flag is set
// exactly when two or more left nodes reach the top count.
func foldColumn(col *atomic.Uint64, left graph.NodeID, count int32) {
	c := uint64(count) << colCountShift
	for {
		old := col.Load()
		var word uint64
		switch top := int32(old >> colCountShift); {
		case count > top:
			word = c | uint64(left)
		case count == top:
			word = c | colTie | uint64(min(left, graph.NodeID(old)))
		default:
			return
		}
		if col.CompareAndSwap(old, word) {
			return
		}
	}
}

// decodeColumn is the proposal of a right node whose column word is word:
// the lowest left ID at the top count, through the accept rule with the
// tie the word records. Under derive this is exactly the proposal the
// right pass would select. Every pair at count >= T was folded with the
// count the right pass gives it, because its left endpoint has at least T
// linked neighbors too, so the left pass scored it; a count below T can
// neither beat nor tie one at T; and with no margin the runner-up is never
// read. A zero word's count is below T.
func (p passParams) decodeColumn(word uint64) candidate {
	top := int32(word >> colCountShift)
	return p.accept(graph.NodeID(word), top, top, word&colTie != 0)
}

// selectWeighted is the selection under Adamic-Adar ranking: the proposal is
// the lowest-ID candidate with the top weight, a tie is more than one
// candidate at that weight, and the threshold and margin still apply to
// witness counts — the margin against the highest count among the other
// candidates. Each weight is a sum accumulated in N(v) order, so it too is
// independent of the order candidates were listed in.
func (s *scorer) selectWeighted(p passParams) candidate {
	var (
		best      graph.NodeID
		bestW     float32
		bestCount int32
		tie       bool
		top, next int32 // the top count and the highest count below it
		atTop     int32 // candidates scoring top
	)
	for _, w := range s.listed {
		c, wt := s.count(w), s.weights[w]
		switch {
		case wt > bestW:
			best, bestW, bestCount, tie = w, wt, c, false
		case wt == bestW:
			tie = true
			if w < best {
				best, bestCount = w, c
			}
		}
		switch {
		case c > top:
			top, next, atTop = c, top, 1
		case c == top:
			atTop++
		case c > next:
			next = c
		}
	}
	s.listed = s.listed[:0]
	maxOther := top
	if bestCount == top && atTop == 1 {
		maxOther = next
	}
	return p.accept(best, bestCount, maxOther, tie)
}

// accept applies the threshold, tie and margin rules to the selected
// candidate best with witness count selCount, where maxOther is the highest
// count among the other candidates.
func (p passParams) accept(best graph.NodeID, selCount, maxOther int32, tie bool) candidate {
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

// selectLevels is the selection at every schedule level at once, after a
// walk down to the schedule's lowest floor: out[j] is the proposal bestFor
// would return at level j's floor. A candidate of degree class c is first
// eligible at level topExp+1-c (level 0 for every class above the top
// floor's), so the listed candidates are grouped by that level and the
// levels are added one by one as the floor descends, keeping the running
// best and tie and the top two witness counts for the margin rule. Like the
// single-level selections it reads only counts, weights and IDs.
func (s *scorer) selectLevels(p passParams, topExp int, class []uint8, out []candidate) {
	if len(s.levels) < len(out) {
		s.levels = make([][]graph.NodeID, len(out))
	}
	for _, w := range s.listed {
		j := max(0, topExp+1-int(class[w]))
		s.levels[j] = append(s.levels[j], w)
	}
	var (
		best    graph.NodeID
		bestKey float64
		tie     bool
		have    bool
		cnt1    int32 // top witness count among candidates so far
		mult1   int32 // how many candidates attain cnt1
		cnt2    int32 // runner-up witness count
	)
	for j := range out {
		for _, w := range s.levels[j] {
			c := s.count(w)
			k := float64(c)
			if s.weights != nil {
				k = float64(s.weights[w])
			}
			switch {
			case !have || k > bestKey:
				best, bestKey, tie, have = w, k, false, true
			case k == bestKey:
				if p.ties == TieLowestID && w < best {
					best = w
				}
				tie = true
			}
			switch {
			case c > cnt1:
				cnt1, cnt2, mult1 = c, cnt1, 1
			case c == cnt1:
				mult1++
			case c > cnt2:
				cnt2 = c
			}
		}
		s.levels[j] = s.levels[j][:0]
		if !have {
			out[j] = candidate{}
			continue
		}
		selCount := s.count(best)
		// Max witness count among candidates other than the selected one.
		maxOther := cnt1
		if selCount == cnt1 && mult1 == 1 {
			maxOther = cnt2
		}
		out[j] = p.accept(best, selCount, maxOther, tie)
	}
	s.listed = s.listed[:0]
}

// passDirection identifies which side of the bipartite candidate space a
// scoring pass iterates.
type passDirection int

const (
	fromLeft  passDirection = iota // iterate v1 ∈ G1, partners in G2
	fromRight                      // iterate v2 ∈ G2, partners in G1
)

// passViews bundles the graph/matching views for one direction.
func passViews(dir passDirection, g1, g2 *graph.Graph, m *Matching) (ga, gb *graph.Graph, link, selfMatched, partnerMatched []graph.NodeID) {
	if dir == fromLeft {
		return g1, g2, m.left, m.left, m.right
	}
	return g2, g1, m.right, m.right, m.left
}

// scoreRange computes candidates for nodes [lo, hi) of the iterating side.
// out[v] receives the proposal for node v (zero candidate when none).
// Eligibility: the node itself is unmatched, has degree >= minDeg, and has
// at least threshold linked neighbors (its score with any partner is
// bounded by that count, so fewer linked neighbors cannot clear T).
// partners holds the candidate lists of the other side's graph.
func scoreRange(
	dir passDirection,
	g1, g2 *graph.Graph,
	m *Matching,
	lc *linkedCounts,
	partners *candLists,
	p passParams,
	lo, hi int,
	sc *scorer,
	out []candidate,
) {
	ga, gb, link, selfMatched, _ := passViews(dir, g1, g2, m)
	linked := lc.left
	if dir == fromRight {
		linked = lc.right
	}
	for v := lo; v < hi; v++ {
		out[v] = candidate{}
		id := graph.NodeID(v)
		if selfMatched[id] != NoMatch || ga.Degree(id) < p.minDeg || linked[id] < p.threshold {
			continue
		}
		out[v] = sc.bestFor(id, ga, gb, link, partners, p)
	}
}

// candLists holds one graph's candidate lists: for every node x, the
// neighbors of x that are still unmatched, ordered by descending degree
// class bits.Len(deg), ties by ascending ID. A scoring walk over list(x)
// therefore sees exactly the partners the pass may score, with the ones
// below the bucket floor forming a suffix it never reaches. Lists only
// shrink: when a node is matched, the lists of its neighbors are compacted
// by a stable filter, so the order needs no maintenance.
type candLists struct {
	off   []int64  // list(x) starts at adj[off[x]]; len n+1, as wide as the graph's offsets
	live  []uint32 // live[x] is list(x)'s current length
	adj   []graph.NodeID
	class []uint8 // class[w] = bits.Len(deg(w))
	// stale marks the lists queued on dirty for compaction.
	stale []bool
	dirty []graph.NodeID
}

// numClasses bounds the degree classes: degrees are below 2^32.
const numClasses = 33

// newCandLists builds g's candidate lists against the matched array of g's
// side, in O(n + E): a counting sort orders the nodes by (class descending,
// ID ascending), and appending each unmatched node to its neighbors' lists
// in that order leaves every list sorted.
func newCandLists(g *graph.Graph, matched []graph.NodeID) candLists {
	n := g.NumNodes()
	c := candLists{
		off:   make([]int64, n+1),
		live:  make([]uint32, n),
		class: make([]uint8, n),
		stale: make([]bool, n),
	}
	var start [numClasses]int
	for x := 0; x < n; x++ {
		d := g.Degree(graph.NodeID(x))
		c.class[x] = uint8(bits.Len(uint(d)))
		c.off[x+1] = c.off[x] + int64(d)
		start[c.class[x]]++
	}
	pos := 0
	for k := numClasses - 1; k >= 0; k-- {
		pos, start[k] = pos+start[k], pos
	}
	order := make([]graph.NodeID, n)
	for x := 0; x < n; x++ {
		k := c.class[x]
		order[start[k]] = graph.NodeID(x)
		start[k]++
	}
	c.adj = make([]graph.NodeID, c.off[n])
	for _, w := range order {
		if matched[w] != NoMatch {
			continue
		}
		for _, x := range g.Neighbors(w) {
			c.adj[c.off[x]+int64(c.live[x])] = w
			c.live[x]++
		}
	}
	return c
}

// built reports whether the lists exist; they are built at their first walk.
func (c *candLists) built() bool { return c.off != nil }

// list returns x's current candidate list. It aliases the lists' storage.
func (c *candLists) list(x graph.NodeID) []graph.NodeID {
	o := c.off[x]
	return c.adj[o : o+int64(c.live[x])]
}

// markNeighbors queues the lists that contain the newly matched node v —
// those of v's neighbors — for compaction.
func (c *candLists) markNeighbors(g *graph.Graph, v graph.NodeID) {
	for _, x := range g.Neighbors(v) {
		if !c.stale[x] {
			c.stale[x] = true
			c.dirty = append(c.dirty, x)
		}
	}
}

// compact drops the matched nodes from every queued list, keeping the order
// of the rest.
func (c *candLists) compact(matched []graph.NodeID) {
	for _, x := range c.dirty {
		c.stale[x] = false
		l := c.list(x)
		k := 0
		for _, w := range l {
			if matched[w] == NoMatch {
				l[k] = w
				k++
			}
		}
		c.live[x] = uint32(k)
	}
	c.dirty = c.dirty[:0]
}
