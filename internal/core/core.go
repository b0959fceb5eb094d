// Package core implements User-Matching, the social-network reconciliation
// algorithm of Korula & Lattanzi (PVLDB 2014) — the paper's primary
// contribution.
//
// Given two partial realizations G1, G2 of an unknown social network and a
// seed set L of trusted cross-network links, the algorithm repeatedly scores
// candidate pairs (v1, v2) by their number of similarity witnesses — pairs
// (u1, u2) already in L with u1 ∈ N1(v1) and u2 ∈ N2(v2) — and links v1 to v2
// when (v1, v2) is the unique highest-scoring pair containing either node and
// the score clears a threshold T. A degree-bucketing schedule (phase j only
// matches nodes of degree ≥ 2^j, j descending from log D) makes the early,
// sparsest-evidence decisions on high-degree nodes, where witness counts
// concentrate; the paper measures that this step alone removes over a third
// of the errors.
//
// The package provides a parallel engine that partitions the candidate scan
// across goroutines (EngineSequential is the same pass with one worker), a
// frontier engine that re-scores only nodes whose scoring inputs changed
// since their last scoring, and a hybrid engine (the default) that starts
// parallel and hands off to the frontier engine once the per-sweep commit
// rate falls below a measured crossover; all are deterministic and produce
// identical matchings. A further formulation as explicit MapReduce rounds
// lives in internal/mapreduce and is tested for equivalence against these
// engines.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"

	"github.com/sociograph/reconcile/internal/graph"
)

// Engine selects the execution strategy.
type Engine int

const (
	// EngineParallel scans all candidates every pass with a goroutine pool.
	EngineParallel Engine = iota
	// EngineSequential is EngineParallel with a single worker, whatever
	// Workers says: the single-threaded reference run.
	EngineSequential
	// EngineFrontier re-scores only nodes whose scoring inputs changed since
	// their last scoring (the dirty frontier around freshly committed links),
	// caching every node's per-bucket-level proposal across passes, and its
	// commit scan reads only the cached rows that propose at the bucket's
	// level. Output is bit-identical to the other engines at a fraction of
	// the work on incremental workloads (7.2x the parallel engine on
	// BenchmarkReconcileFrontierIncremental), and Workers parallelizes its
	// re-scoring batches. On commit-dense cold batches its invalidation churn
	// approaches a full rescan of both sides, where the parallel engine
	// scores only the left, and it runs 0.16x the parallel engine
	// (BenchmarkReconcileFrontier). See frontierState for the scheduling
	// invariants.
	EngineFrontier
	// EngineHybrid is the default: it starts on the parallel engine and, at
	// the first sweep boundary whose observed commit rate falls below the
	// measured crossover (hybridCrossoverRate), hands the live matching to a
	// freshly built frontier state and continues on the frontier engine —
	// parallel's throughput where commits are dense, frontier's incremental
	// scheduling once they are sparse. The handoff is the same state transfer
	// a cross-engine restore performs, so output stays bit-identical to every
	// fixed engine; the regime choice affects performance only.
	EngineHybrid
)

func (e Engine) String() string {
	switch e {
	case EngineParallel:
		return "parallel"
	case EngineSequential:
		return "sequential"
	case EngineFrontier:
		return "frontier"
	case EngineHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// TieBreak selects how a node with several equally-scored best candidates
// behaves.
type TieBreak int

const (
	// TieReject refuses to propose when the maximum score is not unique —
	// the conservative reading of the paper's rule, maximizing precision.
	// This is the default.
	TieReject TieBreak = iota
	// TieLowestID proposes the tied candidate with the smallest node ID — a
	// deterministic stand-in for the arbitrary tie-breaking a greedy "take
	// the highest-scoring pair" implementation performs. The paper's
	// degree-bucketing ablation (errors +50% without bucketing at T=1) is
	// only reproducible under this policy: at threshold 1 almost every
	// low-degree candidate is tied, so TieReject simply abstains.
	TieLowestID
)

func (t TieBreak) String() string {
	switch t {
	case TieReject:
		return "reject"
	case TieLowestID:
		return "lowest-id"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(t))
	}
}

// Scoring selects the candidate ranking function.
type Scoring int

const (
	// ScoreWitnessCount ranks candidates by the raw number of similarity
	// witnesses — the paper's algorithm. Default.
	ScoreWitnessCount Scoring = iota
	// ScoreAdamicAdar keeps the paper's threshold on the witness count but
	// ranks candidates by an Adamic–Adar style weighted sum: a witness pair
	// (u1, u2) contributes 1/log2(2 + max(deg(u1), deg(u2))). Low-degree
	// witnesses are far more discriminative than celebrity accounts, whose
	// links witness half the network; this is the kind of domain-free
	// refinement the paper's discussion invites ("it may be possible to
	// improve on the performance of our algorithm by adding heuristics").
	ScoreAdamicAdar
)

func (s Scoring) String() string {
	switch s {
	case ScoreWitnessCount:
		return "witness-count"
	case ScoreAdamicAdar:
		return "adamic-adar"
	default:
		return fmt.Sprintf("Scoring(%d)", int(s))
	}
}

// Options configures User-Matching. The zero value is not valid; start from
// DefaultOptions.
type Options struct {
	// Threshold is the minimum matching score T. The paper notes T = 2 or 3
	// already gives very high precision on real networks; its G(n,p) theory
	// uses 3 and the PA theory 9.
	Threshold int

	// Iterations is k, the number of full bucket sweeps. Small constants
	// (1 or 2) suffice in the paper's experiments.
	Iterations int

	// MinBucketExp is the lowest degree exponent j in the sweep; the sweep
	// runs j = ⌊log2 D⌋ … MinBucketExp. The paper's pseudocode stops at
	// j = 1 (degree ≥ 2); set 0 to let degree-1 nodes match in the last
	// bucket.
	MinBucketExp int

	// DisableBucketing collapses the degree schedule into a single
	// unrestricted pass per iteration. Used by the ablation experiment
	// (Section 5, last question): the paper reports ~50% more bad matches
	// without bucketing.
	DisableBucketing bool

	// MaxDegree overrides D, the degree that seeds the bucket schedule.
	// 0 means max(Δ(G1), Δ(G2)).
	MaxDegree int

	// Engine selects the execution strategy: hybrid (default), frontier,
	// parallel, or sequential. All engines produce bit-identical output.
	Engine Engine

	// Workers bounds the goroutines of the parallel engine's candidate scan
	// and of the frontier engine's re-scoring batches; 0 means GOMAXPROCS.
	Workers int

	// Ties selects the tie-breaking policy (default TieReject).
	Ties TieBreak

	// Scoring selects the candidate ranking function (default
	// ScoreWitnessCount). The Threshold always applies to the witness
	// count, whatever the ranking.
	Scoring Scoring

	// MinMargin requires the best candidate's witness count to exceed the
	// second best's by at least this much (0 — the paper's rule — only
	// applies the tie policy). Raising it trades recall for precision,
	// hardening the matcher against near-ambiguous pairs.
	MinMargin int
}

// DefaultOptions returns the configuration used throughout the paper's
// experiments: T = 2, k = 2 sweeps, bucketing down to degree 2, on the
// hybrid engine (identical output to the fixed engines, least work on both
// commit-dense and incremental workloads).
func DefaultOptions() Options {
	return Options{
		Threshold:    2,
		Iterations:   2,
		MinBucketExp: 1,
		Engine:       EngineHybrid,
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Threshold < 1 {
		return errors.New("core: Threshold must be >= 1")
	}
	if o.Iterations < 1 {
		return errors.New("core: Iterations must be >= 1")
	}
	if o.MinBucketExp < 0 {
		return errors.New("core: MinBucketExp must be >= 0")
	}
	if o.MaxDegree < 0 {
		return errors.New("core: MaxDegree must be >= 0")
	}
	if o.Workers < 0 {
		return errors.New("core: Workers must be >= 0")
	}
	switch o.Engine {
	case EngineParallel, EngineSequential, EngineFrontier, EngineHybrid:
	default:
		return fmt.Errorf("core: unknown engine %d", int(o.Engine))
	}
	if o.Ties != TieReject && o.Ties != TieLowestID {
		return fmt.Errorf("core: unknown tie-break policy %d", int(o.Ties))
	}
	if o.Scoring != ScoreWitnessCount && o.Scoring != ScoreAdamicAdar {
		return fmt.Errorf("core: unknown scoring %d", int(o.Scoring))
	}
	if o.MinMargin < 0 {
		return fmt.Errorf("core: MinMargin must be >= 0")
	}
	return nil
}

// workers is the scoring pool size. EngineSequential is the parallel
// engine with a single worker.
func (o Options) workers() int {
	if o.Engine == EngineSequential {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BucketSchedule returns the descending list of minimum degrees (2^j) for
// one sweep of the algorithm. Exported for alternative engines (the
// MapReduce formulation) that must follow the same schedule.
func (o Options) BucketSchedule(g1, g2 *graph.Graph) []int {
	if o.DisableBucketing {
		return []int{1}
	}
	d := o.MaxDegree
	if d == 0 {
		d = g1.MaxDegree()
		if g2.MaxDegree() > d {
			d = g2.MaxDegree()
		}
	}
	if d < 1 {
		d = 1
	}
	top := bits.Len(uint(d)) - 1 // ⌊log2 d⌋
	if top < o.MinBucketExp {
		top = o.MinBucketExp
	}
	out := make([]int, 0, top-o.MinBucketExp+1)
	for j := top; j >= o.MinBucketExp; j-- {
		out = append(out, 1<<uint(j))
	}
	return out
}
