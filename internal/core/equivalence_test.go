package core

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// naiveReconcile is an O(n1·n2) reference implementation of User-Matching
// semantics, computing the full score matrix per bucket via the
// SimilarityWitnesses definition and committing mutual unique bests. The
// optimized engines must agree with it exactly.
func naiveReconcile(t *testing.T, g1, g2 *graph.Graph, seeds []graph.Pair, opts Options) []graph.Pair {
	t.Helper()
	m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < opts.Iterations; iter++ {
		for _, minDeg := range opts.BucketSchedule(g1, g2) {
			type prop struct {
				node  graph.NodeID
				score int
				tie   bool
			}
			bestL := make([]prop, g1.NumNodes())
			bestR := make([]prop, g2.NumNodes())
			for v1 := 0; v1 < g1.NumNodes(); v1++ {
				if m.LeftMatch(graph.NodeID(v1)) != NoMatch || g1.Degree(graph.NodeID(v1)) < minDeg {
					continue
				}
				for v2 := 0; v2 < g2.NumNodes(); v2++ {
					if m.RightMatch(graph.NodeID(v2)) != NoMatch || g2.Degree(graph.NodeID(v2)) < minDeg {
						continue
					}
					s := SimilarityWitnesses(g1, g2, m, graph.NodeID(v1), graph.NodeID(v2))
					if s == 0 {
						continue
					}
					if s > bestL[v1].score {
						bestL[v1] = prop{graph.NodeID(v2), s, false}
					} else if s == bestL[v1].score {
						bestL[v1].tie = true
					}
					if s > bestR[v2].score {
						bestR[v2] = prop{graph.NodeID(v1), s, false}
					} else if s == bestR[v2].score {
						bestR[v2].tie = true
					}
				}
			}
			for v1 := range bestL {
				p := bestL[v1]
				if p.score < opts.Threshold || p.tie {
					continue
				}
				q := bestR[p.node]
				if q.score < opts.Threshold || q.tie || q.node != graph.NodeID(v1) {
					continue
				}
				m.add(graph.Pair{Left: graph.NodeID(v1), Right: p.node})
			}
		}
	}
	return m.Pairs()
}

func pairsEqual(a, b []graph.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[graph.Pair]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	for _, p := range b {
		if !set[p] {
			return false
		}
	}
	return true
}

// testPath is one of the engine's execution paths, reached through the
// Options.pin seam. Every path produces the same matching; the suites
// compare them:
//
//   - sequential: the full scan throughout, at one worker;
//   - parallel: the full scan throughout, on the options' worker pool;
//   - frontier: the frontier from the first bucket;
//   - hybrid: the default, the full scan handing off to the frontier.
type testPath struct {
	name    string
	pin     regimePin
	workers int // 0 keeps the options' Workers
}

var (
	pathSequential = testPath{"sequential", pinFullScan, 1}
	pathParallel   = testPath{"parallel", pinFullScan, 0}
	pathFrontier   = testPath{"frontier", pinFrontier, 0}
	pathHybrid     = testPath{"hybrid", pinNone, 0}

	testPaths = []testPath{pathSequential, pathParallel, pathFrontier, pathHybrid}
)

// on returns o running on path p.
func (p testPath) on(o Options) Options {
	o.pin = p.pin
	if p.workers > 0 {
		o.Workers = p.workers
	}
	return o
}

// resumeOn re-targets an exported state at path p before a restore. A
// pinned path takes its regime from its pin; the hybrid path keeps a hybrid
// state's regime bit and resumes a pinned path's state in the full-scan
// regime, the rule the snapshot codec applies to records a pinned engine
// wrote.
func resumeOn(st *SessionState, p testPath) {
	from := st.Opts.pin
	st.Opts = p.on(st.Opts)
	switch {
	case p.pin != pinNone:
		st.HybridFrontier = p.pin == pinFrontier
	case from != pinNone:
		st.HybridFrontier = false
	}
}

// testInstance builds a random reconciliation instance.
func testInstance(seed uint64, n int) (*graph.Graph, *graph.Graph, []graph.Pair) {
	r := xrand.New(seed)
	g := gen.PreferentialAttachment(r, n, 4)
	g1, g2 := sampling.IndependentCopies(r, g, 0.7, 0.7)
	seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)
	return g1, g2, seeds
}

func TestSequentialMatchesNaive(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g1, g2, seeds := testInstance(seed, 120)
		opts := pathSequential.on(DefaultOptions())
		opts.Threshold = 2
		res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveReconcile(t, g1, g2, seeds, opts)
		if !pairsEqual(res.Pairs, want) {
			t.Fatalf("seed %d: engine %d pairs, naive %d pairs", seed, len(res.Pairs), len(want))
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g1, g2, seeds := testInstance(seed, 300)
		seqOpts := pathSequential.on(DefaultOptions())
		seq, err := Reconcile(context.Background(), g1, g2, seeds, seqOpts)
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 2, 3, 7} {
			parOpts := pathParallel.on(DefaultOptions())
			parOpts.Workers = workers
			par, err := Reconcile(context.Background(), g1, g2, seeds, parOpts)
			if err != nil {
				return false
			}
			if !pairsEqual(seq.Pairs, par.Pairs) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 8})
	if err != nil {
		t.Error(err)
	}
}

func TestReconcileDeterministic(t *testing.T) {
	g1, g2, seeds := testInstance(42, 500)
	opts := DefaultOptions()
	a, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("runs differ: %d vs %d pairs", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

func TestReconcileInjective(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g1, g2, seeds := testInstance(seed, 250)
		res, err := Reconcile(context.Background(), g1, g2, seeds, DefaultOptions())
		if err != nil {
			return false
		}
		seenL := map[graph.NodeID]bool{}
		seenR := map[graph.NodeID]bool{}
		for _, p := range res.Pairs {
			if seenL[p.Left] || seenR[p.Right] {
				return false
			}
			seenL[p.Left] = true
			seenR[p.Right] = true
		}
		return true
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Error(err)
	}
}

func TestSeedsPreserved(t *testing.T) {
	g1, g2, seeds := testInstance(7, 200)
	res, err := Reconcile(context.Background(), g1, g2, seeds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != len(seeds) {
		t.Fatalf("Seeds = %d, want %d", res.Seeds, len(seeds))
	}
	for i, s := range seeds {
		if res.Pairs[i] != s {
			t.Fatalf("seed %d not preserved at position %d", i, i)
		}
	}
}

func TestMoreIterationsNeverShrink(t *testing.T) {
	g1, g2, seeds := testInstance(11, 400)
	opts := DefaultOptions()
	opts.Iterations = 1
	one, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Iterations = 3
	three, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(three.Pairs) < len(one.Pairs) {
		t.Fatalf("3 iterations found %d pairs, 1 iteration %d", len(three.Pairs), len(one.Pairs))
	}
}
