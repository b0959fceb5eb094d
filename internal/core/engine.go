package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/sociograph/reconcile/internal/graph"
)

// PhaseStat records one bucket pass of one iteration for observability.
type PhaseStat struct {
	Iteration int // 1-based sweep number
	MinDegree int // the 2^j floor of this bucket
	Matched   int // pairs accepted in this pass
	TotalL    int // |L| after the pass
}

// PhaseTotals aggregates a run's complete phase history, including entries
// evicted from the bounded Phases window of a long-lived session.
type PhaseTotals struct {
	Buckets int // bucket passes ever run
	Matched int // pairs accepted across all passes (seeds excluded)
}

// Result is the output of Reconcile.
//
// Pairs, NewPairs and Phases are read-only views of the session's
// append-only link log and phase window, shared with the session rather than
// copied: they never change after the Result is returned, however the
// session grows or its phase window slides, and their capacity equals their
// length, so an append reallocates. They must not be written; slices.Clone
// gives a copy to own.
type Result struct {
	// Pairs holds every link in L: the seeds first, then discoveries in the
	// order they were made.
	Pairs []graph.Pair
	// NewPairs holds only the discovered links: Pairs[Seeds:].
	NewPairs []graph.Pair
	// Seeds is the number of seed links the run started from.
	Seeds int
	// Phases records per-bucket progress. Sessions retain a bounded window
	// (the most recent PhaseRetainSweeps sweeps); Totals carries what the
	// window no longer shows.
	Phases []PhaseStat
	// Totals aggregates every bucket pass ever run, evicted ones included.
	Totals PhaseTotals
}

// Reconcile runs User-Matching over the two observed networks and the seed
// links, returning the expanded set of identification links. It never
// modifies its inputs. The matching is injective: no node appears in two
// output pairs. The engine is deterministic; for fixed inputs and options
// the result is identical regardless of Workers. The context is checked at
// every bucket-phase boundary; when it ends mid-run the partial Result
// accumulated so far is returned together with ctx.Err(). The result is
// valid (the algorithm is monotone, links are never retracted), just
// incomplete. Progress hooks are a Session's: see SetProgress.
func Reconcile(ctx context.Context, g1, g2 *graph.Graph, seeds []graph.Pair, opts Options) (*Result, error) {
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		return nil, err
	}
	_, err = s.Run(ctx, opts.Iterations)
	return s.Result(), err
}

// linkedCounts tracks, per node, how many of its neighbors are currently
// linked. A node's similarity score with any partner is bounded by its
// linked-neighbor count, so nodes below the threshold can be skipped without
// scoring — a pure optimization with identical output (the engine
// equivalence and naive-reference tests pin this). It is the difference
// between rescanning every low-degree node in all k·log D bucket passes and
// touching only nodes that could possibly match.
type linkedCounts struct {
	left  []int32
	right []int32
}

func newLinkedCounts(g1, g2 *graph.Graph, m *Matching) *linkedCounts {
	lc := &linkedCounts{
		left:  make([]int32, g1.NumNodes()),
		right: make([]int32, g2.NumNodes()),
	}
	for _, p := range m.pairs {
		lc.addPair(g1, g2, p)
	}
	return lc
}

func (lc *linkedCounts) addPair(g1, g2 *graph.Graph, p graph.Pair) {
	for _, u := range g1.Neighbors(p.Left) {
		lc.left[u]++
	}
	for _, u := range g2.Neighbors(p.Right) {
		lc.right[u]++
	}
}

// walkState is the scoring state both regimes share for the life of a
// session: both graphs' candidate lists, synced to the matching's pair log,
// and the per-worker scorers of both directions. The full scan and the
// frontier's re-scoring walk the same lists with the same kernel
// (scorer.walk). Each side's lists are built at the first walk that reads
// them, so NewSession and RestoreSession never pay for them, and a
// count-scored full scan, which derives the right side's proposals instead
// of walking G1's lists, never builds G1's at all. The state is carried
// across a hybrid handoff and never serialized: a restored session rebuilds
// it from the matching.
type walkState struct {
	left, right candLists // G1's and G2's candidate lists, each built at its first walk
	// synced is the length of the pair-log prefix the built lists reflect.
	// A side built later reflects the same prefix: lists are built from the
	// matching right after a sync, before the bucket commits anything.
	synced int
	// leftScorers score G1 nodes against G2 partners, rightScorers the
	// reverse; the pools grow to the largest worker count a pass asked for.
	leftScorers, rightScorers []*scorer
}

// sync removes the nodes matched since the last sync from the built
// candidate lists. Seeds, AddSeeds and commits all append to the pair log,
// so reading the log's new suffix sees every one of them; only the lists of
// a newly matched node's neighbors change. A side whose lists are not built
// yet has nothing to remove: they will be built from the matching itself.
func (ws *walkState) sync(g1, g2 *graph.Graph, m *Matching) {
	for _, p := range m.pairs[ws.synced:] {
		if ws.left.built() {
			ws.left.markNeighbors(g1, p.Left)
		}
		if ws.right.built() {
			ws.right.markNeighbors(g2, p.Right)
		}
	}
	ws.synced = len(m.pairs)
	ws.left.compact(m.left)
	ws.right.compact(m.right)
}

// scorers returns the first `workers` scorers of dir's pool, growing it as
// needed, and the candidate lists of dir's partner side, building them at
// that side's first walk.
func (ws *walkState) scorers(dir passDirection, g1, g2 *graph.Graph, m *Matching, weighted bool, workers int) ([]*scorer, *candLists) {
	pool, partners, gb, matched := &ws.leftScorers, &ws.right, g2, m.right
	if dir == fromRight {
		pool, partners, gb, matched = &ws.rightScorers, &ws.left, g1, m.left
	}
	if !partners.built() {
		*partners = newCandLists(gb, matched)
	}
	for len(*pool) < workers {
		*pool = append(*pool, newScorer(gb.NumNodes(), weighted))
	}
	return (*pool)[:workers], partners
}

// scanState is the full scan's own pass buffers, reused by every pass: the
// left side's proposals, and for the right side either its column words
// (under derive) or its walked proposals (under any other rule). It is
// built at the session's first full-scan bucket and dropped when a hybrid
// session hands off to the frontier.
type scanState struct {
	leftBest, rightBest []candidate
	// cols holds, under derive, one column word per right node (see
	// foldColumn), shared by all of a pass's workers: 8 bytes per node
	// whatever the number of pairs or workers.
	cols []atomic.Uint64
}

func newScanState(g1, g2 *graph.Graph, derive bool) *scanState {
	st := &scanState{leftBest: make([]candidate, g1.NumNodes())}
	if derive {
		st.cols = make([]atomic.Uint64, g2.NumNodes())
	} else {
		st.rightBest = make([]candidate, g2.NumNodes())
	}
	return st
}

// runBucket performs one scoring pass at the given degree floor and commits
// every mutual-best pair with score >= T. Returns the number of new links.
// Under the paper's rule (count ranking, no margin) only the left side is
// walked: its selections fold every pair at count >= T into the right
// side's column words, which the commit decodes (back); any other rule
// walks both sides.
func (st *scanState) runBucket(g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, ws *walkState, minDeg int, opts Options) int {
	ws.sync(g1, g2, m)
	p := opts.passParams(minDeg)
	workers := opts.workers()
	st.pass(fromLeft, g1, g2, m, lc, ws, p, workers)
	if !p.derive {
		st.pass(fromRight, g1, g2, m, lc, ws, p, workers)
	}

	// Commit mutual bests. leftBest[v1] proposes v2; accept iff v2 proposes
	// v1 back. Scores agree automatically (witness counts are symmetric),
	// and each node occurs in at most one accepted pair, so the commits
	// cannot conflict.
	matched := 0
	for v1, c := range st.leftBest {
		if c.score == 0 {
			continue
		}
		back := st.back(c.node, p)
		if back.score == 0 || back.node != graph.NodeID(v1) {
			continue
		}
		pr := graph.Pair{Left: graph.NodeID(v1), Right: c.node}
		m.add(pr)
		lc.addPair(g1, g2, pr)
		matched++
	}
	return matched
}

// back is right node w's proposal in the pass just run: under derive, w's
// column word decoded (decodeColumn); otherwise what the right pass
// selected. The commit reads it only at the targets of left proposals.
func (st *scanState) back(w graph.NodeID, p passParams) candidate {
	if p.derive {
		return p.decodeColumn(st.cols[w].Load())
	}
	return st.rightBest[w]
}

// pass is scoreRange sharded over a worker pool. Each worker owns a scorer
// from the direction's pool; outputs land in disjoint slices of the
// direction's proposals and the candidate lists are only read. A left pass
// under derive first clears the column words and lends them to its
// scorers for the pass, and every worker folds into them by CAS, whose
// result does not depend on the order. So no synchronization beyond
// waiting for the chunks is needed and the result is independent of
// scheduling.
func (st *scanState) pass(dir passDirection, g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, ws *walkState, p passParams, workers int) {
	best, cols := st.leftBest, st.cols
	if dir == fromRight {
		best, cols = st.rightBest, nil
	}
	clear(cols)
	n := len(best)
	if n == 0 {
		return
	}
	scorers, partners := ws.scorers(dir, g1, g2, m, p.weighted, max(1, min(workers, n)))
	parallelChunks(n, len(scorers), func(w, lo, hi int) {
		sc := scorers[w]
		sc.cols = cols
		scoreRange(dir, g1, g2, m, lc, partners, p, lo, hi, sc, best)
		sc.cols = nil
	})
}

// parallelChunks cuts [0, n) into at most workers contiguous chunks and
// runs fn(w, lo, hi) for chunk w, each on its own goroutine, returning when
// all have. A single chunk runs on the caller's goroutine.
func parallelChunks(n, workers int, fn func(w, lo, hi int)) {
	workers = max(1, min(workers, n))
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
}

// SimilarityWitnesses counts the similarity witnesses between v1 ∈ G1 and
// v2 ∈ G2 under matching m — Definition 1 of the paper. Exposed for tests,
// diagnostics, and the theory-validation experiments.
func SimilarityWitnesses(g1, g2 *graph.Graph, m *Matching, v1, v2 graph.NodeID) int {
	count := 0
	for _, u1 := range g1.Neighbors(v1) {
		u2 := m.LeftMatch(u1)
		if u2 == NoMatch {
			continue
		}
		if g2.HasEdge(u2, v2) {
			count++
		}
	}
	return count
}
