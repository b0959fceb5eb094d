package core

import (
	"context"
	"sync"

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
type Result struct {
	// Pairs holds every link in L: the seeds first, then discoveries in the
	// order they were made.
	Pairs []graph.Pair
	// NewPairs holds only the discovered links.
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
// output pairs. Both engines are deterministic; for fixed inputs and options
// the result is identical regardless of Workers.
func Reconcile(g1, g2 *graph.Graph, seeds []graph.Pair, opts Options) (*Result, error) {
	//lint:allow ctx-propagation pre-context entry point kept for API compatibility and pinned by equivalence tests; cancellable callers use ReconcileContext
	return ReconcileContext(context.Background(), g1, g2, seeds, opts, nil)
}

// ReconcileContext is Reconcile with cancellation and observability: the
// context is checked at every bucket-phase boundary, and the optional
// progress hook receives a PhaseEvent after each pass. When the context ends
// mid-run the partial Result accumulated so far is returned together with
// ctx.Err(); the result is valid (the algorithm is monotone, links are never
// retracted), just incomplete.
func ReconcileContext(ctx context.Context, g1, g2 *graph.Graph, seeds []graph.Pair, opts Options, progress func(PhaseEvent)) (*Result, error) {
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		return nil, err
	}
	s.progress = progress
	if _, err := s.RunContext(ctx, opts.Iterations); err != nil {
		return s.Result(), err
	}
	return s.Result(), nil
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

// runBucket performs one scoring pass at the given degree floor and commits
// every mutual-best pair with score >= T. Returns the number of new links.
func runBucket(g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, minDeg int, opts Options) int {
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	p := opts.passParams(minDeg)
	leftBest := make([]candidate, n1)
	rightBest := make([]candidate, n2)

	parallelPass(fromLeft, g1, g2, m, lc, p, leftBest, opts.workers())
	parallelPass(fromRight, g1, g2, m, lc, p, rightBest, opts.workers())

	// Commit mutual bests. leftBest[v1] proposes v2; accept iff v2 proposes
	// v1 back. Scores agree automatically (witness counts are symmetric),
	// and each node occurs in at most one accepted pair, so the commits
	// cannot conflict.
	matched := 0
	for v1 := 0; v1 < n1; v1++ {
		c := leftBest[v1]
		if c.score == 0 {
			continue
		}
		back := rightBest[c.node]
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

// parallelPass is scoreRange sharded over a worker pool. Each worker owns a
// scratch scorer; outputs land in disjoint slices of best, so no
// synchronization beyond the WaitGroup is needed and the result is
// independent of scheduling.
func parallelPass(dir passDirection, g1, g2 *graph.Graph, m *Matching, lc *linkedCounts, p passParams, best []candidate, workers int) {
	n := len(best)
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	nPartners := g1.NumNodes()
	if dir == fromLeft {
		nPartners = g2.NumNodes()
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := newScorer(nPartners, p.weighted)
			scoreRange(dir, g1, g2, m, lc, p, lo, hi, sc, best)
		}(lo, hi)
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
