// Package trace is a dependency-free per-job span recorder in the style of
// internal/metrics: a bounded ring of typed spans (sweeps, bucket phases,
// engine handoffs, checkpoint writes and replays, slot waits, seed ingests,
// graph opens) on a monotonic per-recorder timeline.
//
// Timestamps come from an injectable clock so that the packages that emit
// spans — internal/core above all — never read the wall clock themselves;
// the determinism analyzer's time.Now ban stays intact everywhere except the
// single sanctioned read in this file. A recorder created with a nil clock
// uses that default; tests inject a counter and get byte-stable traces.
//
// Retention mirrors the session phase log (core.PhaseRetainSweeps): spans
// are stamped with the sweep they belong to, and when the sweep counter
// advances past the window the evicted spans fold into cumulative per-kind
// totals, exactly like dropped phases fold into PhaseTotals. A hard ring
// cap bounds the sweep-0 boot spans and any pathological emitter. The
// Persisted form round-trips through the serve job store's checkpoint
// metadata, so a killed-then-resumed job's trace is continuous: Restore
// re-seats the timeline offset so new spans continue after the persisted
// ones, and the server marks the seam with a resume span.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Kind is the type tag of a span. The set is closed and small on purpose:
// every kind maps to one lane in the Chrome export and one label value in
// the /metrics span-duration histogram, so label cardinality stays bounded.
type Kind string

const (
	KindSweep            Kind = "sweep"             // one full sweep of the bucket schedule
	KindBucket           Kind = "bucket"            // one bucket phase within a sweep
	KindHandoff          Kind = "engine-handoff"    // full-scan→frontier state build
	KindCheckpointWrite  Kind = "checkpoint-write"  // one checkpoint record written+fsynced
	KindCheckpointReplay Kind = "checkpoint-replay" // one checkpoint record replayed at boot
	KindSlotWait         Kind = "slot-wait"         // scheduler Acquire: queued for a run slot
	KindSeedIngest       Kind = "seed-ingest"       // AddSeeds batch applied to the session
	KindGraphOpen        Kind = "graph-open"        // graph container opened (mapped or heap)
	KindResume           Kind = "resume"            // marker: job restored after a restart
)

// Kinds lists every span kind in a fixed order — the Chrome export and the
// metrics wiring iterate it instead of a map so output stays deterministic.
func Kinds() []Kind {
	return []Kind{
		KindSweep, KindBucket, KindHandoff, KindCheckpointWrite,
		KindCheckpointReplay, KindSlotWait, KindSeedIngest,
		KindGraphOpen, KindResume,
	}
}

// Span is one completed interval on the recorder's timeline. Start and End
// are nanoseconds since the recorder's creation (or, after a restore, since
// the original recorder's creation — the timeline survives restarts).
type Span struct {
	Kind   Kind   `json:"kind"`
	Sweep  int    `json:"sweep,omitempty"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// Totals accumulates spans evicted from the ring, per kind — the trace
// analogue of the phase log's dropped PhaseTotals.
type Totals struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
}

// Config parameterizes a Recorder. Zero values select the defaults noted on
// each field.
type Config struct {
	// Clock returns nanoseconds on a monotonic timeline. nil selects the
	// process clock (the one wall-clock read in this package).
	Clock func() int64
	// RetainSweeps is the sweep window to keep full spans for; evicted
	// spans fold into Totals. 0 selects DefaultRetainSweeps, which matches
	// the session phase log's window.
	RetainSweeps int
	// Cap bounds the ring regardless of sweep ages (boot spans carry sweep
	// 0 and would otherwise pile up before the first eviction). 0 selects
	// DefaultCap.
	Cap int
	// OnSpan, if set, observes every completed span after it is recorded.
	// It runs outside the recorder mutex on the emitting goroutine;
	// cmd/serve feeds the span-duration histogram from it.
	OnSpan func(Span)
}

const (
	// DefaultRetainSweeps mirrors core's phase-log window. The two values
	// are pinned equal by a test in internal/core, since trace cannot
	// import core (core imports trace).
	DefaultRetainSweeps = 16
	// DefaultCap bounds the span ring. At the default retention this is
	// far above what a job emits in a window; it exists to bound sweep-0
	// boot spans and misbehaving emitters.
	DefaultCap = 4096
)

// Recorder collects spans for one job. All methods are safe for concurrent
// use and safe on a nil receiver (they no-op), so emitters can hold an
// optional recorder without nil checks at every call site.
type Recorder struct {
	mu      sync.Mutex
	clock   func() int64
	offset  int64 // added to clock() so restored timelines continue, not restart
	retain  int
	cap     int
	onSpan  func(Span)
	sweep   int // current sweep, stamped onto spans and driving eviction
	spans   []Span
	dropped map[Kind]Totals
}

// New builds a recorder whose timeline starts at zero.
func New(cfg Config) *Recorder {
	r := newRecorder(cfg)
	r.offset = -r.clock()
	return r
}

// Restore builds a recorder that continues a persisted trace: the ring,
// totals and sweep context are re-seated and the timeline offset is set so
// the next reading lands at the persisted clock position, never before it.
// The caller marks the seam itself (see Mark and KindResume) so it can
// attach restart context to the marker.
func Restore(cfg Config, p *Persisted) *Recorder {
	r := newRecorder(cfg)
	r.offset = p.Now - r.clock()
	r.sweep = p.Sweep
	r.spans = append(r.spans, p.Spans...)
	for k, t := range p.Dropped {
		r.dropped[k] = t
	}
	r.evictLocked()
	return r
}

func newRecorder(cfg Config) *Recorder {
	r := &Recorder{
		clock:   cfg.Clock,
		retain:  cfg.RetainSweeps,
		cap:     cfg.Cap,
		onSpan:  cfg.OnSpan,
		dropped: make(map[Kind]Totals),
	}
	if r.clock == nil {
		r.clock = wallNanos
	}
	if r.retain <= 0 {
		r.retain = DefaultRetainSweeps
	}
	if r.cap <= 0 {
		r.cap = DefaultCap
	}
	return r
}

// wallNanos is the default clock: monotonic nanoseconds since its first
// call. It is the one sanctioned wall-clock read in a determinism-covered
// package — every deterministic emitter receives timestamps through an
// injected clock instead, which is what keeps the analyzer's time.Now ban
// meaningful (see the internal/trace row in internal/analysis/policy.go).
//
//lint:allow determinism trace timestamps are observability metadata that never feed matching state; deterministic packages inject their own clock via Config.Clock
func wallNanos() int64 { epochOnce.Do(func() { epoch = time.Now() }); return int64(time.Since(epoch)) }

var (
	epochOnce sync.Once
	epoch     time.Time
)

// now returns the current reading on the recorder's timeline.
func (r *Recorder) now() int64 { return r.clock() + r.offset }

// SetSweep advances the sweep context: subsequent spans are stamped with n,
// and spans older than the retention window fold into the dropped totals.
func (r *Recorder) SetSweep(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.sweep {
		r.sweep = n
	}
	r.evictLocked()
}

// Sweep returns the current sweep context.
func (r *Recorder) Sweep() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweep
}

// evictLocked enforces both retention bounds: the sweep window first, then
// the hard ring cap (oldest spans fold first). Caller holds r.mu.
func (r *Recorder) evictLocked() {
	minSweep := r.sweep - r.retain + 1
	if minSweep > 0 {
		kept := r.spans[:0]
		for _, s := range r.spans {
			if s.Sweep < minSweep {
				r.dropLocked(s)
				continue
			}
			kept = append(kept, s)
		}
		r.spans = kept
	}
	for len(r.spans) > r.cap {
		r.dropLocked(r.spans[0])
		r.spans = r.spans[1:]
	}
}

func (r *Recorder) dropLocked(s Span) {
	t := r.dropped[s.Kind]
	t.Count++
	t.Nanos += s.End - s.Start
	r.dropped[s.Kind] = t
}

// Active is an in-flight span returned by Begin. End completes and records
// it. A nil Active (from a nil recorder) no-ops.
type Active struct {
	r      *Recorder
	kind   Kind
	detail string
	start  int64
}

// Begin opens a span of the given kind, stamped with the current sweep
// context when it ends.
func (r *Recorder) Begin(kind Kind, detail string) *Active {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	start := r.now()
	r.mu.Unlock()
	return &Active{r: r, kind: kind, detail: detail, start: start}
}

// SetDetail replaces the span's detail — for emitters that only know the
// interesting numbers (matches committed, bytes written) once the work is
// done.
func (a *Active) SetDetail(detail string) {
	if a == nil {
		return
	}
	a.detail = detail
}

// End completes the span and records it.
func (a *Active) End() {
	if a == nil {
		return
	}
	r := a.r
	r.mu.Lock()
	sp := Span{Kind: a.kind, Sweep: r.sweep, Detail: a.detail, Start: a.start, End: r.now()}
	r.recordLocked(sp)
	fn := r.onSpan
	r.mu.Unlock()
	if fn != nil {
		fn(sp)
	}
}

// Mark records a zero-length marker span at the current time — used for
// instants like the resume seam.
func (r *Recorder) Mark(kind Kind, detail string) {
	r.Observe(kind, detail, 0)
}

// Observe records a span of the given duration ending now — for work
// measured before the recorder existed (boot-time graph opens and
// checkpoint replays are timed by the store, then observed onto the job's
// recorder once it is built).
func (r *Recorder) Observe(kind Kind, detail string, nanos int64) {
	if r == nil {
		return
	}
	if nanos < 0 {
		nanos = 0
	}
	r.mu.Lock()
	end := r.now()
	sp := Span{Kind: kind, Sweep: r.sweep, Detail: detail, Start: end - nanos, End: end}
	r.recordLocked(sp)
	fn := r.onSpan
	r.mu.Unlock()
	if fn != nil {
		fn(sp)
	}
}

func (r *Recorder) recordLocked(sp Span) {
	r.spans = append(r.spans, sp)
	r.evictLocked()
}

// Persisted is the serializable form of a recorder: what jobMeta carries
// through checkpoints. Dropped uses the kind as a JSON object key, which is
// stable; Spans keep ring order (completion order).
type Persisted struct {
	Now     int64           `json:"nowNs"`
	Sweep   int             `json:"sweep"`
	Spans   []Span          `json:"spans"`
	Dropped map[Kind]Totals `json:"dropped,omitempty"`
}

// Export snapshots the recorder. The result aliases nothing — it is safe to
// serialize concurrently with further recording.
func (r *Recorder) Export() *Persisted {
	if r == nil {
		return &Persisted{Spans: []Span{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &Persisted{
		Now:   r.now(),
		Sweep: r.sweep,
		Spans: append([]Span{}, r.spans...),
	}
	if len(r.dropped) > 0 {
		p.Dropped = make(map[Kind]Totals, len(r.dropped))
		for k, t := range r.dropped {
			p.Dropped[k] = t
		}
	}
	return p
}

// TotalsByKind folds the live ring and the dropped totals into one
// cumulative per-kind summary — the number the loadgen report and the
// /trace endpoint both want.
func (p *Persisted) TotalsByKind() map[Kind]Totals {
	out := make(map[Kind]Totals, len(p.Dropped)+4)
	for k, t := range p.Dropped {
		out[k] = t
	}
	for _, s := range p.Spans {
		t := out[s.Kind]
		t.Count++
		t.Nanos += s.End - s.Start
		out[s.Kind] = t
	}
	return out
}

// ChromeTrace is the Chrome trace_event JSON object form of a trace,
// loadable in Perfetto or chrome://tracing. Marshal it as-is.
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// ChromeEvent is one trace_event record. Complete spans use ph "X"
// (duration events); metadata records use ph "M".
type ChromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"` // microseconds
	// Dur is a pointer so complete events always carry a dur field — even
	// dur:0, which Perfetto requires for ph "X" — while metadata omit it.
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Chrome converts the trace to trace_event form: one thread lane per span
// kind, spans sorted by start time so the output is stable for a given
// Persisted value. process names the trace's process lane (the job id).
func (p *Persisted) Chrome(process string) *ChromeTrace {
	const pid = 1
	tids := map[Kind]int{}
	ct := &ChromeTrace{TraceEvents: []ChromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": process},
	}}}
	for i, k := range Kinds() {
		tids[k] = i + 1
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
			Args: map[string]any{"name": string(k)},
		})
	}
	spans := append([]Span{}, p.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		name := string(s.Kind)
		if s.Detail != "" {
			name += " " + s.Detail
		}
		dur := float64(s.End-s.Start) / 1e3
		ev := ChromeEvent{
			Name: name,
			Cat:  string(s.Kind),
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  &dur,
			Pid:  pid,
			Tid:  tids[s.Kind],
			Args: map[string]any{"sweep": s.Sweep},
		}
		if s.Detail != "" {
			ev.Args["detail"] = s.Detail
		}
		ct.TraceEvents = append(ct.TraceEvents, ev)
	}
	return ct
}
