package core

import (
	"math/bits"

	"github.com/sociograph/reconcile/internal/graph"
)

// The frontier regime is a scheduling optimization, never a semantic change:
// its output is bit-identical to the full scan's for every option
// combination (the equivalence, fuzz and equivariance suites pin this). The
// full scan re-scores every eligible left node in each of the
// k·log D bucket passes (and every eligible right node too under Adamic-Adar
// ranking or a margin; otherwise the right side's proposals are derived from
// the left pass's scored pairs) even though a node's proposal can only change
// when a link is committed near it. The frontier instead keeps, per
// side,
//
//   - a persistent proposal cache: for every node, its best-candidate
//     proposal at every bucket level of the schedule, computed in one walk
//     of the session's candidate lists down to the schedule's lowest floor
//     (the witness accumulation does not depend on the degree floor — the
//     floor only gates which accumulated candidates are eligible — so all
//     levels can be derived from one accumulation; see
//     scorer.selectLevels);
//   - a dirty worklist of nodes whose cached proposals may be stale, seeded
//     from the initial links with every unmatched node whose linked-neighbor
//     count reaches the threshold (nodes below it provably abstain — the
//     zero-initialized row — until a new link queues them);
//
// and, for the left side, one live-row bitset per schedule level: for every
// unmatched v, bit v of level j is set exactly when v's cached row at level
// j proposes someone. Rows change only when a node is re-scored, which
// updates its bits, and a node's bits are cleared for good once it is
// matched — at its commit, or when the scan meets a node AddSeeds matched.
//
// A bucket pass refreshes the dirty nodes, runs the same ascending
// mutual-best commit scan as the full scan over the live rows of its
// level — the bitset walked word by word, so the scan costs O(n1/64 + live
// rows), not O(n1), and commits in the same ascending order — and then
// invalidates exactly the nodes whose scoring inputs a committed link (a, b)
// touched:
//
//   - N1(a) / N2(b): they gained a witness source (and their linked-neighbor
//     count changed);
//   - every node that could reach the newly matched partner as a candidate —
//     for the left side, N1(partner(u2)) for each already-matched u2 ∈ N2(b)
//     — because the partner's exclusion can change best, ties and margins.
//
// Matchings only grow and a node's proposal depends on nothing else, so a
// clean cache entry equals what a fresh scoring would produce. Steady-state
// sweeps (and incremental AddSeeds runs) touch only the neighborhoods of new
// links instead of both full node sets; the frontier degenerates to full
// rescans only while most of the graph is within two hops of a fresh link —
// i.e. when almost every pass commits links everywhere, in which case it does
// the same work as the full scan.
type frontierState struct {
	levels    []int // descending 2^j degree floors, one per bucket pass of a sweep
	topExp    int   // log2(levels[0])
	threshold int32 // Options.Threshold, fixed for the session

	left  frontierSide
	right frontierSide

	// live holds the left side's live-row bitsets, level-major: bit v of
	// level j is word live[j*words+v/64]. A matched node's bits may lag
	// until the commit scan meets them.
	live  []uint64
	words int

	// rescored counts nodes drained from the worklists since the state was
	// built — at session start, at the handoff, or at restore, which starts
	// it over — the frontier's scoring work. The full scan's
	// equivalent is (n1+n2) × passes; tests assert the frontier stays far
	// below that and goes fully idle once a sweep commits nothing.
	rescored int64
	// scanned counts the cache rows the commit scans read over the same
	// span: one per live bit visited, where a full scan would read n1 per
	// bucket.
	scanned int64
}

// frontierSide is the per-side persistent state: the proposal cache and the
// dirty worklist.
type frontierSide struct {
	// cache holds each node's proposal at every bucket level, row-major:
	// cache[v*len(levels)+j] is node v's proposal at schedule level j. Rows of
	// matched nodes are stale and gated out by the commit scan's Matching
	// check.
	cache   []candidate
	nLevels int
	// queued[v] reports whether v is on dirty; it dedups invalidations
	// between refreshes.
	queued []bool
	// dirty lists the nodes to re-score before the next commit scan.
	dirty []graph.NodeID

	run []graph.NodeID // scratch: the eligible slice of a drain
}

// topExpOf returns log2 of the schedule's highest degree floor.
func topExpOf(levels []int) int { return bits.Len(uint(levels[0])) - 1 }

func newFrontierState(g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, opts Options) *frontierState {
	levels := opts.BucketSchedule(g1, g2)
	f := &frontierState{
		levels:    levels,
		topExp:    topExpOf(levels),
		threshold: int32(opts.Threshold),
	}
	f.left.init(g1.NumNodes(), len(levels), m.left, lc.left, f.threshold)
	f.right.init(g2.NumNodes(), len(levels), m.right, lc.right, f.threshold)
	f.words = (g1.NumNodes() + 63) / 64
	f.live = make([]uint64, len(levels)*f.words)
	return f
}

// init sizes the side and seeds the worklist from the initial links. Only
// nodes that could propose at all are queued: an unmatched node with at
// least threshold linked neighbors. Everything else already has its correct
// row — the zero row is exactly the abstention a scoring would cache — and
// is queued by invalidatePair the moment a new link changes that.
func (s *frontierSide) init(n, nLevels int, selfMatched []graph.NodeID, linked []int32, threshold int32) {
	s.cache = make([]candidate, n*nLevels)
	s.nLevels = nLevels
	s.queued = make([]bool, n)
	s.dirty = make([]graph.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if selfMatched[v] == NoMatch && linked[v] >= threshold {
			s.queued[v] = true
			s.dirty = append(s.dirty, graph.NodeID(v))
		}
	}
}

// mark queues v for re-scoring unless already queued.
func (s *frontierSide) mark(v graph.NodeID) {
	if !s.queued[v] {
		s.queued[v] = true
		s.dirty = append(s.dirty, v)
	}
}

// runBucket performs one frontier bucket pass at schedule level `level`
// (floor minDeg == levels[level]): refresh stale proposals, commit mutual
// bests in the same ascending order as the full scan, then invalidate
// around the new links. Returns the number of links committed.
func (f *frontierState) runBucket(g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, ws *walkState, level, minDeg int, opts Options) int {
	ws.sync(g1, g2, m)
	f.refreshSide(fromLeft, g1, g2, m, lc, ws, minDeg, opts)
	f.refreshSide(fromRight, g1, g2, m, lc, ws, minDeg, opts)

	nLevels := len(f.levels)
	start := m.Len()
	// Only live rows can commit. Commits clear bits of the node being
	// visited only, and the word being walked is a copy, so the walk visits
	// exactly the rows that were live when the scan began.
	for i, word := range f.live[level*f.words : (level+1)*f.words] {
		for ; word != 0; word &= word - 1 {
			id := graph.NodeID(i<<6 | bits.TrailingZeros64(word))
			f.scanned++
			// A node matched in an earlier pass (or by AddSeeds) has a stale
			// row; gating on the Matching here is equivalent to the full
			// scan's empty proposal (left nodes only become matched at
			// their own scan index, so the check also matches the pass-start
			// state during the scan). It never proposes again.
			if m.left[id] != NoMatch {
				f.setLive(id, true)
				continue
			}
			if g1.Degree(id) < minDeg {
				continue
			}
			// The partner's own floor and threshold eligibility are already
			// baked into the cached back-proposal: level-j candidates have
			// degree >= levels[j], and a node below the linked-count
			// threshold caches empty proposals.
			c := f.left.cache[int(id)*nLevels+level]
			back := f.right.cache[int(c.node)*nLevels+level]
			if back.score == 0 || back.node != id {
				continue
			}
			pr := graph.Pair{Left: id, Right: c.node}
			m.add(pr)
			lc.addPair(g1, g2, pr)
			f.setLive(id, true)
		}
	}
	committed := m.pairs[start:]
	for _, pr := range committed {
		f.invalidatePair(g1, g2, m, lc, pr)
	}
	return len(committed)
}

// setLive makes left node v's live bits match its cache row: set at every
// level the row proposes someone, unless v is matched, which clears them
// all for good.
func (f *frontierState) setLive(v graph.NodeID, matched bool) {
	row := f.left.cache[int(v)*len(f.levels) : (int(v)+1)*len(f.levels)]
	bit := uint64(1) << (v & 63)
	for j, c := range row {
		w := &f.live[j*f.words+int(v>>6)]
		if c.score != 0 && !matched {
			*w |= bit
		} else {
			*w &^= bit
		}
	}
}

// invalidatePair marks every node whose cached proposals the new link (a, b)
// could have changed. Enumerating candidate-reachability with the current
// (grown) matching visits a superset of the links present at any earlier
// scoring, so no stale cache entry survives. Two classes of nodes are
// invalidated, per side:
//
//   - witness gain: neighbors of a (resp. b) now have a matched neighbor and
//     a changed linked-count — their scores against everything can rise;
//   - candidate loss: nodes that could score the newly matched b (resp. a)
//     as a candidate — via some matched u2 ∈ N2(b) — no longer may. Here the
//     cached rows prove most nodes unaffected (see markIfAffected), so only
//     rows that name the lost candidate or abstained are re-opened.
//
// Already-matched nodes are skipped throughout: they never propose again and
// their stale rows are gated out of the commit scan by the Matching.
func (f *frontierState) invalidatePair(g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, pr graph.Pair) {
	for _, u := range g1.Neighbors(pr.Left) {
		if m.left[u] == NoMatch && lc.left[u] >= f.threshold {
			f.left.mark(u)
		}
	}
	for _, u2 := range g2.Neighbors(pr.Right) {
		if u1 := m.right[u2]; u1 != NoMatch {
			for _, w := range g1.Neighbors(u1) {
				f.left.markIfAffected(w, pr.Right, m.left, lc.left, f.threshold)
			}
		}
	}
	// Right side, symmetric.
	for _, u2 := range g2.Neighbors(pr.Right) {
		if m.right[u2] == NoMatch && lc.right[u2] >= f.threshold {
			f.right.mark(u2)
		}
	}
	for _, u1 := range g1.Neighbors(pr.Left) {
		if u2 := m.left[u1]; u2 != NoMatch {
			for _, w := range g2.Neighbors(u2) {
				f.right.markIfAffected(w, pr.Left, m.right, lc.right, f.threshold)
			}
		}
	}
}

// markIfAffected queues v after the candidate `lost` became ineligible, but
// only when v's cached row could actually change:
//
//   - v matched: never proposes again — skip;
//   - v's linked-count below the threshold (and unqueued, so unchanged since
//     its scoring): the row is a cached abstention that removing a candidate
//     cannot flip — skip;
//   - a level proposes `lost`: stale — queue;
//   - a level abstained (score 0): `lost` may have been the blocking tie or
//     margin runner-up — queue;
//   - a level proposes someone else: removing a non-selected candidate
//     cannot change the selection — the argmax stays the argmax (under
//     TieReject a surviving proposal means `lost` scored strictly below it;
//     under TieLowestID the selected node is the lowest-ID argmax, which
//     `lost` ≠ best tied with it cannot displace), the witness count is
//     untouched, and the margin gate only loosens as competitors leave —
//     skip.
func (s *frontierSide) markIfAffected(v, lost graph.NodeID, selfMatched []graph.NodeID, linked []int32, threshold int32) {
	if s.queued[v] || selfMatched[v] != NoMatch || linked[v] < threshold {
		return
	}
	row := s.cache[int(v)*s.nLevels : (int(v)+1)*s.nLevels]
	for _, c := range row {
		if c.score == 0 || c.node == lost {
			s.queued[v] = true
			s.dirty = append(s.dirty, v)
			return
		}
	}
}

// frontierGrain is the minimum dirty-worklist share per goroutine before the
// refresh fans out; below it the spawn overhead dominates.
const frontierGrain = 256

// refreshSide re-scores the queued nodes on one side that this pass can
// actually read — those with degree >= minDeg; the rest cannot propose or be
// proposed at this floor, so they stay queued and are scored at their first
// eligible (lower-floor) pass, collapsing any dirtying in between. Workers
// (if any) write disjoint cache rows from read-only shared state, so the
// result is independent of scheduling; the left side's live bits are
// updated afterwards, serially, so no bitset word is shared between workers.
func (f *frontierState) refreshSide(dir passDirection, g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, ws *walkState, minDeg int, opts Options) {
	side := &f.left
	ga := g1
	if dir == fromRight {
		side = &f.right
		ga = g2
	}
	if len(side.dirty) == 0 {
		return
	}
	floor := f.levels[len(f.levels)-1]
	deferred := side.dirty[:0]
	work := side.run[:0]
	for _, v := range side.dirty {
		if d := ga.Degree(v); d < minDeg {
			if d < floor {
				// Below the schedule's lowest floor: never proposes, never a
				// candidate — its row is never read, so drop it for good.
				side.queued[v] = false
				continue
			}
			deferred = append(deferred, v)
			continue
		}
		side.queued[v] = false
		work = append(work, v)
	}
	side.dirty = deferred
	side.run = work
	if len(work) == 0 {
		return
	}
	f.rescored += int64(len(work))
	// Accumulate candidates down to the schedule's lowest floor; per-level
	// eligibility is applied by the selection.
	p := opts.passParams(floor)
	workers := max(1, min(opts.workers(), len(work)/frontierGrain))
	scorers, partners := ws.scorers(dir, g1, g2, m, p.weighted, workers)
	parallelChunks(len(work), workers, func(w, lo, hi int) {
		for _, v := range work[lo:hi] {
			f.rescoreNode(dir, scorers[w], v, g1, g2, m, lc, partners, p)
		}
	})
	if dir == fromLeft {
		for _, v := range work {
			f.setLive(v, m.left[v] != NoMatch)
		}
	}
}

// rescoreNode recomputes v's cache row — its proposal at every bucket level —
// from the current matching state, walking partners' candidate lists.
func (f *frontierState) rescoreNode(dir passDirection, sc *scorer, v graph.NodeID, g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, partners *candLists, p passParams) {
	ga, gb, link, selfMatched, _ := passViews(dir, g1, g2, m)
	linked := lc.left
	cache := f.left.cache
	if dir == fromRight {
		linked = lc.right
		cache = f.right.cache
	}
	nLevels := len(f.levels)
	row := cache[int(v)*nLevels : (int(v)+1)*nLevels]
	if selfMatched[v] != NoMatch {
		// Matched nodes never propose again; the commit scan gates their
		// stale rows on the Matching.
		return
	}
	if linked[v] < p.threshold {
		// The node's score with any partner is bounded by its linked-neighbor
		// count; cache the abstention (valid until the count changes, which
		// re-queues the node).
		for j := range row {
			row[j] = candidate{}
		}
		return
	}
	sc.walk(v, ga, gb, link, partners, p.minClass)
	sc.selectLevels(p, f.topExp, partners.class, row)
}
