package mapreduce

import (
	"fmt"
	"math"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// User-Matching as MapReduce rounds (Section 3.2: "the internal for loop can
// be implemented efficiently with 4 consecutive rounds of MapReduce, so the
// total running time would consist of O(k·logD) MapReductions").
//
// One degree bucket runs as:
//
//	round 1 — witness emission: map over the current link set L; the pair
//	    (u1, u2) emits a witness for every eligible candidate pair
//	    (v1, v2) ∈ N1(u1) × N2(u2);
//	round 2 — score aggregation: reduce witnesses by candidate pair to the
//	    similarity score (fused with round 1's shuffle here, exactly the
//	    sum-reduce a MapReduce system would run);
//	round 3 — per-node maxima: each scored pair is re-keyed under both of
//	    its endpoints; the reduce keeps a node's best proposal subject to
//	    the threshold, tie policy, and margin;
//	round 4 — mutual join: proposals are keyed by candidate pair; a pair
//	    survives iff both endpoints proposed it, and is added to L.

// pairKey identifies a candidate pair across rounds.
type pairKey struct {
	v1, v2 graph.NodeID
}

// nodeKey identifies one endpoint of the bipartite candidate space:
// side 0 = left (G1), side 1 = right (G2).
type nodeKey struct {
	side int
	node graph.NodeID
}

// witness is one round-1 emission: a single vote with its Adamic-Adar
// weight (the weight is ignored under count scoring).
type witness struct {
	votes  int32
	weight float32
}

// scored is a candidate pair with its aggregated score.
type scored struct {
	pair   pairKey
	votes  int32
	weight float32
}

// Reconcile runs User-Matching with every bucket pass executed as the four
// MapReduce rounds above. Results are identical to core.Reconcile under the
// same options (tested for equivalence); the Engine field of opts is
// ignored.
func Reconcile(g1, g2 *graph.Graph, seeds []graph.Pair, opts core.Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if g1 == nil || g2 == nil {
		return nil, fmt.Errorf("mapreduce: nil graph")
	}
	m, err := core.NewMatching(g1.NumNodes(), g2.NumNodes(), seeds)
	if err != nil {
		return nil, err
	}
	cfg := Config{Workers: opts.Workers}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	res := &core.Result{Seeds: m.SeedCount()}
	buckets := opts.BucketSchedule(g1, g2)
	for iter := 1; iter <= opts.Iterations; iter++ {
		for _, minDeg := range buckets {
			matches := bucketRounds(cfg, g1, g2, m, minDeg, opts)
			for _, p := range matches {
				if err := m.Add(p); err != nil {
					// Cannot happen: round 4 guarantees unique endpoints.
					return nil, fmt.Errorf("mapreduce: internal: %w", err)
				}
			}
			res.Phases = append(res.Phases, core.PhaseStat{
				Iteration: iter,
				MinDegree: minDeg,
				Matched:   len(matches),
				TotalL:    m.Len(),
			})
			res.Totals.Buckets++
			res.Totals.Matched += len(matches)
		}
	}
	res.Pairs = m.Pairs()
	res.NewPairs = m.NewPairs()
	return res, nil
}

// bucketRounds executes the four rounds for one degree bucket and returns
// the accepted pairs.
func bucketRounds(cfg Config, g1, g2 *graph.Graph, m *core.Matching, minDeg int, opts core.Options) []graph.Pair {
	threshold := int32(opts.Threshold)
	minMargin := int32(opts.MinMargin)
	weighted := opts.Scoring == core.ScoreAdamicAdar
	ties := opts.Ties
	eligible1 := func(v graph.NodeID) bool {
		return m.LeftMatch(v) == core.NoMatch && g1.Degree(v) >= minDeg
	}
	eligible2 := func(v graph.NodeID) bool {
		return m.RightMatch(v) == core.NoMatch && g2.Degree(v) >= minDeg
	}

	// Rounds 1+2: witness emission and score aggregation. The mapper runs
	// over the link set; the shuffle+reduce sums witnesses per candidate
	// pair.
	links := m.Pairs()
	scoredPairs := Run(cfg, links,
		func(link graph.Pair, emit func(pairKey, witness)) {
			wt := float32(1 / math.Log2(float64(2+maxInt(g1.Degree(link.Left), g2.Degree(link.Right)))))
			for _, v1 := range g1.Neighbors(link.Left) {
				if !eligible1(v1) {
					continue
				}
				for _, v2 := range g2.Neighbors(link.Right) {
					if !eligible2(v2) {
						continue
					}
					emit(pairKey{v1, v2}, witness{votes: 1, weight: wt})
				}
			}
		},
		func(key pairKey, ws []witness, emit func(scored)) {
			out := scored{pair: key}
			for _, w := range ws {
				out.votes += w.votes
				out.weight += w.weight
			}
			emit(out)
		})

	// Round 3: per-node maxima under the configured ranking, tie policy,
	// threshold and margin — the same selection core's scorer makes
	// (selectCount, or selectWeighted under Adamic-Adar ranking).
	proposals := Run(cfg, scoredPairs,
		func(s scored, emit func(nodeKey, scored)) {
			emit(nodeKey{0, s.pair.v1}, s)
			emit(nodeKey{1, s.pair.v2}, s)
		},
		func(key nodeKey, cands []scored, emit func(scored)) {
			rank := func(c scored) float64 {
				if weighted {
					return float64(c.weight)
				}
				return float64(c.votes)
			}
			partner := func(c scored) graph.NodeID {
				if key.side == 0 {
					return c.pair.v2
				}
				return c.pair.v1
			}
			best := cands[0]
			bestKey := rank(best)
			tie := false
			for _, c := range cands[1:] {
				k := rank(c)
				switch {
				case k > bestKey:
					best, bestKey = c, k
					tie = false
				case k == bestKey:
					if ties == core.TieLowestID && partner(c) < partner(best) {
						best = c
					}
					tie = true
				}
			}
			var maxOther int32
			for _, c := range cands {
				if c.pair != best.pair && c.votes > maxOther {
					maxOther = c.votes
				}
			}
			switch {
			case best.votes < threshold:
				return
			case tie && ties == core.TieReject:
				return
			case minMargin > 0 && best.votes-maxOther < minMargin:
				return
			}
			emit(best)
		})

	// Round 4: mutual join. A pair proposed by both endpoints is a match.
	return Run(cfg, proposals,
		func(s scored, emit func(pairKey, struct{})) {
			emit(s.pair, struct{}{})
		},
		func(key pairKey, votes []struct{}, emit func(graph.Pair)) {
			if len(votes) == 2 {
				emit(graph.Pair{Left: key.v1, Right: key.v2})
			}
		})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
