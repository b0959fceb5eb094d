// Package reconcile implements the social-network reconciliation algorithm
// of Korula & Lattanzi, "An efficient reconciliation algorithm for social
// networks" (PVLDB 7(5), 2014), together with the network models, copy
// models and evaluation tooling of the paper.
//
// Given two partial views G1, G2 of an unknown social network and a small
// set of trusted cross-network identity links, the matcher expands the links
// into an identification of a large fraction of the users, by iteratively
// linking mutual-best pairs under the similarity-witness score with a
// degree-bucketing schedule (the paper's User-Matching algorithm).
//
// The primary entry point is the Reconciler, built with New and functional
// options:
//
//	rec, err := reconcile.New(g1, g2,
//	    reconcile.WithSeeds(seeds),
//	    reconcile.WithThreshold(2),
//	    reconcile.WithProgress(func(e reconcile.PhaseEvent) { ... }))
//	res, err := rec.Run(ctx)
//
// It supports context cancellation (checked at bucket-phase boundaries),
// incremental seed ingestion (AddSeeds between runs) and live progress
// events, and it is the only way to run the matcher from Go.
// ReconcileMapReduce runs the same algorithm in its MapReduce formulation.
//
// The package is a facade over the implementation in internal/...; it is the
// entire supported API surface:
//
//   - graphs: Graph, Builder, NewBuilder, FromEdges, ReadEdgeList,
//     WriteEdgeList, WriteGraphBinary, ReadGraphBinary, Relabel,
//     Intersection, ComputeStats;
//   - randomness: Rand, NewRand (all generators are deterministic in the
//     seed);
//   - network models: GenerateER, GeneratePA, GenerateRMAT,
//     GenerateWattsStrogatz, GenerateAffiliation;
//   - copy models: IndependentCopies, CascadeCopies, CommunityCopies,
//     TimeSplit, SybilAttack, Seeds;
//   - matching: New, Reconciler, Option (WithThreshold, WithIterations,
//     WithEngine, WithScoring, WithTieBreak, WithWorkers, WithMargin,
//     WithBucketing, WithSeeds, WithProgress, ...), Result, PhaseEvent;
//   - durability: Reconciler.Snapshot/SnapshotState, Restore, RestoreState,
//     Reconciler.Resume — serialize a session mid-run and finish it later,
//     bit-identically to an uninterrupted run (see DESIGN.md "Durability");
//   - evaluation: Truth, IdentityTruth, Evaluate, Counts, LinkedRecall,
//     DegreeCurve.
//
// See examples/ for runnable end-to-end programs, cmd/serve for the HTTP
// service, and DESIGN.md for the mapping from the paper's sections to the
// implementation.
package reconcile

import (
	"io"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/eval"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/mapreduce"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// Graph is an immutable undirected graph in compressed sparse row form.
type Graph = graph.Graph

// NodeID identifies a node; IDs are dense (0..n-1).
type NodeID = graph.NodeID

// Edge is an undirected edge.
type Edge = graph.Edge

// Pair links a node of G1 (Left) to a node of G2 (Right): a trusted seed
// link on input, an identification on output.
type Pair = graph.Pair

// Builder accumulates edges and produces an immutable Graph.
type Builder = graph.Builder

// Stats summarizes a graph.
type Stats = graph.Stats

// Rand is the deterministic random stream all generators draw from.
type Rand = xrand.Rand

// TemporalEdge is an undirected edge observed at an integer time.
type TemporalEdge = sampling.TemporalEdge

// AffiliationNetwork is a bipartite user/interest structure whose folded
// projection is a social graph of overlapping communities.
type AffiliationNetwork = gen.AffiliationNetwork

// Options configures the matching algorithm; see DefaultOptions.
//
// Deprecated: new code should configure a Reconciler with functional options
// (New, WithThreshold, ...). Options remains the bridge type: WithOptions
// converts an existing struct, and Reconciler.Options reports the validated
// configuration.
type Options = core.Options

// Result is the matcher's output: all links (seeds first), the discovered
// links, and per-phase statistics. A Reconciler's Results share their link
// slices with it: they never change after return and must not be written
// (slices.Clone them to own a copy).
type Result = core.Result

// PhaseRetainSweeps is how many of the most recent sweeps keep per-bucket
// entries in Result.Phases; older sweeps are folded into Result.Totals so a
// long-lived incremental session's phase log stays bounded.
const PhaseRetainSweeps = core.PhaseRetainSweeps

// Engine selects the matcher's execution strategy.
type Engine = core.Engine

// TieBreak selects how equally-scored best candidates are handled.
type TieBreak = core.TieBreak

// Truth is a ground-truth correspondence used for evaluation.
type Truth = eval.Truth

// Counts aggregates an evaluation in the paper's Good/Bad vocabulary.
type Counts = eval.Counts

// DegreeBucket is one row of a precision/recall-versus-degree curve.
type DegreeBucket = eval.DegreeBucket

// RMATParams configures the RMAT generator.
type RMATParams = gen.RMATParams

// AffiliationParams configures the Affiliation Networks generator.
type AffiliationParams = gen.AffiliationParams

// Scoring selects the candidate ranking function.
type Scoring = core.Scoring

// NoisyCopyParams configures the generalized copy model (noise edges,
// vertex deletion) of Section 3.1.
type NoisyCopyParams = sampling.NoisyCopyParams

// Execution, tie-break and scoring policies (see core.Options).
//
// EngineHybrid — the default — starts on the parallel engine, where the
// commit-dense early sweeps are cheapest, and hands off to the frontier
// engine once the observed per-sweep commit rate drops below the measured
// crossover, so converged and incremental phases stop rescanning the whole
// node set. EngineFrontier re-scores only nodes whose scoring inputs changed
// since their last scoring (the dirty frontier around freshly committed
// links), caching per-bucket proposals across passes. EngineParallel
// re-scans all candidates every pass with a goroutine pool; EngineSequential
// is that pass with one worker, the single-threaded reference. All four
// produce bit-identical matchings for every option combination — the
// engine is purely a scheduling choice.
const (
	EngineParallel    = core.EngineParallel
	EngineSequential  = core.EngineSequential
	EngineFrontier    = core.EngineFrontier
	EngineHybrid      = core.EngineHybrid
	TieReject         = core.TieReject
	TieLowestID       = core.TieLowestID
	ScoreWitnessCount = core.ScoreWitnessCount
	ScoreAdamicAdar   = core.ScoreAdamicAdar
)

// NewRand returns a deterministic random stream for the given seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewBuilder returns a graph builder for n nodes; expectedEdges sizes
// buffers and may be 0.
func NewBuilder(n int, expectedEdges int64) *Builder { return graph.NewBuilder(n, expectedEdges) }

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a SNAP-style edge list ("u v" lines, '#' comments),
// densifying arbitrary IDs; ids maps dense ID back to the original.
func ReadEdgeList(r io.Reader) (g *Graph, ids []int64, err error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as an edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Relabel renames node v to perm[v]; perm must be a permutation. Relabeling
// models anonymization (the de-anonymization example recovers the
// permutation).
func Relabel(g *Graph, perm []NodeID) *Graph { return graph.Relabel(g, perm) }

// Intersection returns the graph of edges present in both copies; a node
// isolated there can never be identified from structure alone.
func Intersection(g, h *Graph) *Graph { return graph.Intersection(g, h) }

// ComputeStats summarizes g.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// IdentityPairs returns the pairs (i, i) for i < n — the ground truth when
// both copies share the parent graph's numbering.
func IdentityPairs(n int) []Pair { return graph.IdentityPairs(n) }

// GenerateER samples an Erdős–Rényi G(n, p) graph.
func GenerateER(r *Rand, n int, p float64) *Graph { return gen.ErdosRenyi(r, n, p) }

// GeneratePA samples a preferential attachment graph G^m_n (Definition 2 of
// the paper).
func GeneratePA(r *Rand, n, m int) *Graph { return gen.PreferentialAttachment(r, n, m) }

// GenerateRMAT samples a recursive-matrix graph; see DefaultRMAT.
func GenerateRMAT(r *Rand, p RMATParams) *Graph { return gen.RMAT(r, p) }

// DefaultRMAT returns the Graph500-style RMAT parameterization at the given
// scale (2^scale nodes).
func DefaultRMAT(scale int) RMATParams { return gen.DefaultRMAT(scale) }

// GenerateWattsStrogatz samples a small-world graph.
func GenerateWattsStrogatz(r *Rand, n, k int, beta float64) *Graph {
	return gen.WattsStrogatz(r, n, k, beta)
}

// GenerateAffiliation samples an Affiliation Networks structure; Fold and
// CommunityCopies turn it into social graphs.
func GenerateAffiliation(r *Rand, p AffiliationParams) *AffiliationNetwork {
	return gen.Affiliation(r, p)
}

// DefaultAffiliation returns Affiliation parameters shaped like the paper's
// AN dataset at the given user count.
func DefaultAffiliation(users int) AffiliationParams { return gen.DefaultAffiliation(users) }

// IndependentCopies derives the two observed networks of the paper's basic
// model: each edge of g survives in copy i independently with probability si.
func IndependentCopies(r *Rand, g *Graph, s1, s2 float64) (*Graph, *Graph) {
	return sampling.IndependentCopies(r, g, s1, s2)
}

// CascadeCopies derives two copies by the Independent Cascade growth model
// (Section 5, Figure 3), both seeded at the highest-degree node.
func CascadeCopies(r *Rand, g *Graph, p float64) (*Graph, *Graph) {
	return sampling.CascadeCopies(r, g, p)
}

// CommunityCopies derives two copies of an affiliation network by dropping
// whole interests with the given probability in each copy (Table 4's
// correlated deletion).
func CommunityCopies(r *Rand, an *AffiliationNetwork, dropProb float64, maxCommunity int) (*Graph, *Graph) {
	return sampling.CommunityCopies(r, an, dropProb, maxCommunity)
}

// TimeSplit partitions timestamped edges into two graphs over n nodes by a
// predicate on the timestamp (Table 5's even/odd-year DBLP construction).
func TimeSplit(n int, edges []TemporalEdge, inFirst func(t int) bool) (*Graph, *Graph) {
	return sampling.TimeSplit(n, edges, inFirst)
}

// SybilAttack injects a malicious clone of every node, each accepted by real
// neighbors with probability acceptProb (the paper's attack model). Clone of
// node v gets ID n+v.
func SybilAttack(r *Rand, g *Graph, acceptProb float64) *Graph {
	return sampling.SybilAttack(r, g, acceptProb)
}

// Seeds reveals each ground-truth pair independently with probability l —
// the model's initial trusted links.
func Seeds(r *Rand, truth []Pair, l float64) []Pair { return sampling.Seeds(r, truth, l) }

// NoisyCopies derives two copies under the generalized model of Section 3.1:
// edge deletion plus spurious noise edges and vertex deletion.
func NoisyCopies(r *Rand, g *Graph, p NoisyCopyParams) (*Graph, *Graph) {
	return sampling.NoisyCopies(r, g, p)
}

// CorruptSeeds flips a fraction of seed links to wrong targets — the human
// errors the paper observes in Wikipedia's curated inter-language links.
func CorruptSeeds(r *Rand, seeds []Pair, n2 int, flip float64) []Pair {
	return sampling.CorruptSeeds(r, seeds, n2, flip)
}

// DefaultOptions returns the configuration used throughout the paper's
// experiments (T=2, two sweeps, bucketing to degree 2) on the hybrid
// engine.
func DefaultOptions() Options { return core.DefaultOptions() }

// ReconcileMapReduce runs the identical algorithm formulated as the paper's
// 4-rounds-per-bucket MapReduce job (O(k·log D) rounds total). Results match
// New + Run exactly; use it to inspect or port the distributed formulation.
//
// Deprecated: prefer New and Run for production use; this entry point
// remains for studying the distributed formulation.
func ReconcileMapReduce(g1, g2 *Graph, seeds []Pair, opts Options) (*Result, error) {
	return mapreduce.Reconcile(g1, g2, seeds, opts)
}

// IdentityTruth returns the identity correspondence over n nodes.
func IdentityTruth(n int) Truth { return eval.IdentityTruth(n) }

// TruthFromPairs builds a ground-truth correspondence from a pair list.
func TruthFromPairs(ps []Pair) Truth { return eval.FromPairs(ps) }

// Evaluate scores a matching against ground truth: pairs holds all links
// with the first nSeeds being seeds (Result.Pairs layout).
func Evaluate(pairs []Pair, nSeeds int, truth Truth) Counts {
	return eval.Evaluate(pairs, nSeeds, truth)
}

// LinkedRecall returns the fraction of identifiable nodes (degree >= 1 in
// both copies) whose true pair appears in pairs.
func LinkedRecall(pairs []Pair, truth Truth, g1, g2 *Graph) float64 {
	return eval.LinkedRecall(pairs, truth, g1, g2)
}

// DegreeCurve computes precision/recall per power-of-two degree bucket (the
// paper's Figure 4 analysis).
func DegreeCurve(g1, g2 *Graph, pairs []Pair, nSeeds int, truth Truth) []DegreeBucket {
	return eval.DegreeCurve(g1, g2, pairs, nSeeds, truth)
}
