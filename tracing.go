package reconcile

import "github.com/sociograph/reconcile/internal/trace"

// Execution tracing. A TraceRecorder collects typed spans — sweeps, bucket
// phases, the engine's regime handoff, seed ingests, and whatever the caller
// observes onto it (cmd/serve adds checkpoint writes, replays, slot waits
// and graph opens) — on a per-job monotonic timeline. See internal/trace
// for the model: bounded ring, phase-log-window retention with cumulative
// totals, persistable form, Chrome trace_event export.
//
// Tracing is observability only: timestamps never feed matching state, and
// a Reconciler without a tracer pays a nil check per bucket. Like progress
// hooks, tracers do not serialize — Restore paths re-install them.
type (
	// TraceRecorder records spans for one Reconciler or job.
	TraceRecorder = trace.Recorder
	// TraceConfig parameterizes a recorder (clock, retention, span hook).
	TraceConfig = trace.Config
	// TraceSpan is one completed interval on a recorder's timeline.
	TraceSpan = trace.Span
	// TraceKind tags a span's type.
	TraceKind = trace.Kind
	// TracePersisted is a recorder's serializable snapshot.
	TracePersisted = trace.Persisted
)

// NewTraceRecorder builds a recorder whose timeline starts at zero. The
// zero TraceConfig selects the process clock and the default retention
// (the session phase-log window).
func NewTraceRecorder(cfg TraceConfig) *TraceRecorder { return trace.New(cfg) }

// RestoreTraceRecorder continues a persisted trace: the restored timeline
// picks up after the snapshot's clock position instead of restarting, which
// is what keeps a killed-then-resumed job's trace continuous. The caller
// marks the seam with a resume span (trace.KindResume).
func RestoreTraceRecorder(cfg TraceConfig, p *TracePersisted) *TraceRecorder {
	return trace.Restore(cfg, p)
}

// WithTracer installs a span recorder on the Reconciler under construction
// or restore. A nil recorder disables tracing (the default).
func WithTracer(tr *TraceRecorder) Option { return func(s *settings) { s.tracer = tr } }

// SetTracer installs (or, with nil, removes) a span recorder on a live
// Reconciler. Call it between runs, not concurrently with one.
func (r *Reconciler) SetTracer(tr *TraceRecorder) { r.sess.SetTracer(tr) }
