package reconcile

import (
	"context"

	"github.com/sociograph/reconcile/internal/core"
)

// PhaseEvent describes one completed bucket pass of a running reconciliation.
// Progress hooks (WithProgress) receive events synchronously as the run
// advances, so callers can observe phase, bucket and match counts live.
type PhaseEvent = core.PhaseEvent

// PhaseStat records one bucket pass in a Result's Phases slice.
type PhaseStat = core.PhaseStat

// Reconciler is the long-lived form of the matcher: construct it once over
// the two observed networks with New, then drive it — run full sweeps under
// a context, feed newly learned trusted links as they arrive (users keep
// connecting their accounts), observe progress, and snapshot results at any
// point. It is the only way to run the matcher from Go.
//
// A Reconciler is not safe for concurrent use; serialize access externally
// (cmd/serve shows the pattern).
type Reconciler struct {
	sess *core.Session
	opts Options
}

// settings accumulates the functional options before validation.
type settings struct {
	opts     Options
	seeds    []Pair
	progress func(PhaseEvent)
	tracer   *TraceRecorder
}

// Option configures a Reconciler at construction; see the With functions.
type Option func(*settings)

// WithThreshold sets the minimum matching score T (default 2). The paper
// notes T = 2 or 3 already gives very high precision on real networks.
func WithThreshold(t int) Option { return func(s *settings) { s.opts.Threshold = t } }

// WithIterations sets k, the number of full bucket sweeps a Run performs
// (default 2).
func WithIterations(k int) Option { return func(s *settings) { s.opts.Iterations = k } }

// WithEngine selects the execution strategy (default EngineHybrid, which
// runs parallel scans while commits are dense and switches to the frontier
// scheduler once the per-sweep commit rate drops below the measured
// crossover; EngineFrontier is the pure incremental scheduler,
// EngineParallel and EngineSequential re-scan all candidates every pass).
// All engines produce bit-identical matchings.
func WithEngine(e Engine) Option { return func(s *settings) { s.opts.Engine = e } }

// WithScoring selects the candidate ranking function (default
// ScoreWitnessCount, the paper's rule).
func WithScoring(sc Scoring) Option { return func(s *settings) { s.opts.Scoring = sc } }

// WithTieBreak selects how equally-scored best candidates are handled
// (default TieReject).
func WithTieBreak(t TieBreak) Option { return func(s *settings) { s.opts.Ties = t } }

// WithWorkers bounds the engine's goroutines — the parallel engine's
// candidate scan and the frontier engine's re-scoring batches; 0 (the
// default) means GOMAXPROCS.
func WithWorkers(n int) Option { return func(s *settings) { s.opts.Workers = n } }

// WithMargin requires the best candidate's witness count to exceed the
// runner-up's by at least m (default 0 — the paper's rule).
func WithMargin(m int) Option { return func(s *settings) { s.opts.MinMargin = m } }

// WithBucketing enables or disables the degree-bucketing schedule (default
// enabled; the paper measures ~50% more bad matches without it).
func WithBucketing(enabled bool) Option {
	return func(s *settings) { s.opts.DisableBucketing = !enabled }
}

// WithMinBucketExp sets the lowest degree exponent j of the bucket sweep
// (default 1, the paper's "degree >= 2" stop; 0 lets degree-1 nodes match).
func WithMinBucketExp(j int) Option { return func(s *settings) { s.opts.MinBucketExp = j } }

// WithMaxDegree overrides D, the degree seeding the bucket schedule; 0 (the
// default) means max(Δ(G1), Δ(G2)).
func WithMaxDegree(d int) Option { return func(s *settings) { s.opts.MaxDegree = d } }

// WithSeeds supplies initial trusted links. Repeated uses accumulate. More
// seeds can be ingested after construction with Reconciler.AddSeeds.
func WithSeeds(seeds []Pair) Option {
	return func(s *settings) { s.seeds = append(s.seeds, seeds...) }
}

// WithProgress installs a hook called synchronously after every bucket pass.
// The hook may cancel the run's context to stop at the next boundary, and it
// may read or snapshot the Reconciler (Snapshot, SnapshotState, Result, Len
// — it runs at a bucket boundary on the run's own goroutine, which is how
// cmd/serve checkpoints); it must not drive the run itself (Run, AddSeeds)
// or mutate state from inside the hook.
func WithProgress(fn func(PhaseEvent)) Option { return func(s *settings) { s.progress = fn } }

// WithOptions replaces the whole configuration with a legacy Options struct
// — the bridge for code that holds its configuration as one value.
// Options given before it are overwritten; options after it refine it.
func WithOptions(o Options) Option { return func(s *settings) { s.opts = o } }

// New constructs a Reconciler over the two observed networks. Without
// options the configuration is DefaultOptions and the seed set is empty
// (supply links via WithSeeds or AddSeeds). The option values are validated
// as a whole; an invalid combination or seed set returns an error.
func New(g1, g2 *Graph, opts ...Option) (*Reconciler, error) {
	s := settings{opts: DefaultOptions()}
	for _, opt := range opts {
		opt(&s)
	}
	sess, err := core.NewSession(g1, g2, s.seeds, s.opts)
	if err != nil {
		return nil, err
	}
	sess.SetProgress(s.progress)
	sess.SetTracer(s.tracer)
	return &Reconciler{sess: sess, opts: s.opts}, nil
}

// Run performs the configured number of full bucket sweeps (WithIterations),
// honoring ctx: cancellation and deadlines are checked at every bucket-phase
// boundary. On expiry it returns the partial Result accumulated so far
// together with ctx.Err(); the partial result is valid (links are never
// retracted), and the Reconciler remains usable — a later Run resumes from
// the current state. The Result's Pairs and NewPairs are shared with the
// Reconciler, not copied: they never change after Run returns, and they
// must not be written (slices.Clone them to own a copy).
func (r *Reconciler) Run(ctx context.Context) (*Result, error) {
	_, err := r.sess.Run(ctx, r.opts.Iterations)
	return r.sess.Result(), err
}

// RunUntilStable sweeps until a full sweep discovers nothing new, maxSweeps
// is reached, or ctx ends (checked at bucket boundaries, like Run). Its
// Result shares the link slices with the Reconciler, as Run's does.
func (r *Reconciler) RunUntilStable(ctx context.Context, maxSweeps int) (*Result, error) {
	_, err := r.sess.RunUntilStable(ctx, maxSweeps)
	return r.sess.Result(), err
}

// AddSeeds ingests newly learned trusted links between runs, in order. A
// seed whose endpoints are already linked to each other is ignored. A seed
// conflicting with an existing link (either endpoint linked elsewhere)
// stops the ingestion with an error: the seeds before it stay ingested, and
// it and every seed after it are dropped. Call Run afterwards to expand the
// new links.
func (r *Reconciler) AddSeeds(seeds []Pair) error { return r.sess.AddSeeds(seeds) }

// Result snapshots the current state in Run's output layout: all
// links (seeds first), discoveries, and per-bucket phase statistics. It
// copies only the phase statistics: the link slices are shared with the
// Reconciler, never change after return and must not be written, as with
// Run, so a call costs nothing per link.
func (r *Reconciler) Result() *Result { return r.sess.Result() }

// Phases returns a copy of the per-bucket phase statistics Result reports.
func (r *Reconciler) Phases() []PhaseStat { return r.sess.Phases() }

// Len returns the current number of links, seeds included.
func (r *Reconciler) Len() int { return r.sess.Len() }

// FrontierActive reports whether an EngineHybrid reconciler has handed off
// to its frontier regime; always false for fixed engines. Readable
// wherever the session is — between buckets on the run goroutine, or any
// time no run is in flight.
func (r *Reconciler) FrontierActive() bool { return r.sess.FrontierActive() }

// Options returns the validated configuration the Reconciler runs with.
func (r *Reconciler) Options() Options { return r.opts }
