package main

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/tenant"
	"github.com/sociograph/reconcile/internal/trace"
)

// jobStatus is the lifecycle of a submitted reconciliation job.
type jobStatus string

const (
	statusRunning   jobStatus = "running"
	statusDone      jobStatus = "done"
	statusCancelled jobStatus = "cancelled"
	statusFailed    jobStatus = "failed"
	// statusInterrupted marks a job that was running when the server died;
	// its last checkpoint is intact and POST /v1/jobs/{id}/resume finishes
	// the run bit-identically to an uninterrupted one.
	statusInterrupted jobStatus = "interrupted"
)

// graphSpec is a graph in the wire format: a node count and an edge list.
type graphSpec struct {
	Nodes int        `json:"nodes"`
	Edges []pairSpec `json:"edges"`
}

// optionsSpec mirrors the functional options over JSON. Absent fields keep
// the defaults; unknown keys, such as the "engine" key of the retired engine
// choice, are ignored.
type optionsSpec struct {
	Threshold    *int   `json:"threshold,omitempty"`
	Iterations   *int   `json:"iterations,omitempty"`
	Scoring      string `json:"scoring,omitempty"` // "count" | "adamic-adar"
	Ties         string `json:"ties,omitempty"`    // "reject" | "lowest-id"
	Workers      *int   `json:"workers,omitempty"`
	Margin       *int   `json:"margin,omitempty"`
	Bucketing    *bool  `json:"bucketing,omitempty"`
	MinBucketExp *int   `json:"minBucketExp,omitempty"`
	MaxDegree    *int   `json:"maxDegree,omitempty"`
}

// jobRequest is the POST /v1/jobs body (decodeJob). With untilStable the
// job sweeps until nothing new is found, bounded by maxSweeps (default 50);
// otherwise it performs options.iterations sweeps and maxSweeps is ignored.
type jobRequest struct {
	G1          graphSpec   `json:"g1"`
	G2          graphSpec   `json:"g2"`
	Seeds       []pairSpec  `json:"seeds"`
	Options     optionsSpec `json:"options"`
	UntilStable bool        `json:"untilStable,omitempty"`
	MaxSweeps   int         `json:"maxSweeps,omitempty"`
}

// phaseJSON is one progress event in wire form.
type phaseJSON struct {
	Iteration int `json:"iteration"`
	Bucket    int `json:"bucket"`
	Buckets   int `json:"buckets"`
	MinDegree int `json:"minDegree"`
	Matched   int `json:"matched"`
	Total     int `json:"total"`
}

// jobView is the GET /v1/jobs/{id} body.
type jobView struct {
	ID     string      `json:"id"`
	Status jobStatus   `json:"status"`
	Links  int         `json:"links"`
	New    int         `json:"new"`
	Seeds  int         `json:"seeds"`
	Phases []phaseJSON `json:"phases"`
	Error  string      `json:"error,omitempty"`
	Pairs  [][2]int    `json:"pairs,omitempty"`
}

// job is one reconciliation run owned by the server. The job mutex guards
// everything below it; the Reconciler itself is only driven by the single
// run goroutine (or, between runs, by the seeds/checkpoint/resume handlers),
// never concurrently.
type job struct {
	id          string
	num         int            // creation order (job IDs sort lexicographically past 9)
	tname       string         // owning tenant's name
	tn          *tenant.Tenant // owning tenant (quota counters)
	n1, n2      int            // node counts, for validating incremental seeds up front
	js          *jobStore      // the job's slice of the store; nil without -data-dir
	untilStable bool
	maxSweeps   int
	// mg1/mg2 hold the graphs' file mappings for jobs restored under -mmap
	// (nil otherwise): the Reconciler reads the mapped arrays in place, so
	// the job owns their lifetime — runs pin them (pinGraphs), and they are
	// closed only after the run goroutine drains, on delete and at shutdown.
	mg1, mg2 *reconcile.MappedGraph
	// tr is the job's span recorder — sweeps, buckets, checkpoint writes,
	// slot waits, and (after a restart) replay and graph-open spans. Set once
	// at creation or restore, before any run goroutine starts, and never
	// replaced, so emitters read it without j.mu; the recorder itself is
	// concurrency-safe.
	tr *trace.Recorder

	mu             sync.Mutex
	rec            *reconcile.Reconciler
	cancel         context.CancelFunc
	status         jobStatus
	phases         []phaseJSON
	errMsg         string
	seeds          int
	links          int
	deleted        bool           // DELETE in progress: no handler or persist may touch it again
	wantCheckpoint bool           // one-shot: checkpoint at the next phase boundary
	frontier       bool           // last observed hybrid regime (frontier = true)
	persistErr     string         // last finish-time checkpoint failure; "" = written
	pending        sync.WaitGroup // run goroutine in flight (tests wait on it)
}

// meta snapshots the job's bookkeeping for persistence. Caller holds j.mu.
func (j *job) metaLocked() jobMeta {
	return jobMeta{
		ID:          j.id,
		Num:         j.num,
		Status:      j.status,
		Error:       j.errMsg,
		Seeds:       j.seeds,
		UntilStable: j.untilStable,
		MaxSweeps:   j.maxSweeps,
		Trace:       j.tr.Export(),
	}
}

// persistLocked checkpoints the job's state and meta to the store, if any.
// Caller holds j.mu and must be the goroutine driving the Reconciler (the
// run goroutine inside a progress hook, or a handler while no run is in
// flight) — ExportState is only safe at a phase boundary, and the
// checkpoint chain's delta base advances with each write.
func (j *job) persistLocked() error {
	if j.js == nil || j.deleted {
		return nil
	}
	err := j.js.checkpoint(j.rec, j.metaLocked())
	if j.status != statusRunning {
		// The job just went (or already is) idle; its next checkpoint, if
		// any, re-anchors with a full, so the delta base is dead weight.
		j.js.releaseBase()
	}
	return err
}

// view snapshots the job for JSON rendering. The lock covers only the
// bookkeeping copies and taking a view of the link log; the per-pair wire
// conversion (and the caller's JSON marshal) runs outside j.mu, so a
// million-link ?pairs=1 read does not stall the run goroutine's progress
// hook and checkpoint path for its duration. The view must still be taken
// under the lock: an addSeeds can restart the run (and with it the only
// goroutine allowed to drive the Reconciler) the moment it is released.
// Reading it after the release is safe because a restarted run only
// appends to the log past the view's length.
func (j *job) view(includePairs bool) jobView {
	j.mu.Lock()
	v := jobView{
		ID:     j.id,
		Status: j.status,
		Links:  j.links,
		Seeds:  j.seeds,
		New:    j.links - j.seeds,
		Phases: append([]phaseJSON(nil), j.phases...),
		Error:  j.errMsg,
	}
	var pairs []reconcile.Pair
	if includePairs && j.status != statusRunning {
		pairs = j.rec.Result().Pairs
	}
	j.mu.Unlock()
	if pairs != nil {
		v.Pairs = make([][2]int, 0, len(pairs))
		for _, p := range pairs {
			v.Pairs = append(v.Pairs, [2]int{int(p.Left), int(p.Right)})
		}
	}
	return v
}

// tenantJobs is one tenant's job table. Guarded by the server mutex.
type tenantJobs struct {
	name   string
	jobs   map[string]*job
	nextID int
	// skipped maps the ID of each job boot skipped although it has a meta
	// to its shard directory: a DELETE of that ID removes its files.
	skipped map[string]string
}

// serverConfig carries the serve layer's tenancy and hardening knobs.
type serverConfig struct {
	registry *tenant.Registry
	// runSlots caps concurrent run goroutines across all tenants; <= 0
	// means unlimited (the pre-tenancy behaviour).
	runSlots int
	// adminToken protects /v1/admin; empty leaves the admin surface open
	// (development mode — set it in any shared deployment).
	adminToken string
	// maxBodyBytes bounds every request body read; <= 0 uses
	// defaultMaxBodyBytes.
	maxBodyBytes int64
}

// defaultMaxBodyBytes bounds request bodies when -max-body-bytes is unset:
// large enough for multi-million-edge graph submissions, small enough that
// a stray upload cannot exhaust memory.
const defaultMaxBodyBytes = 256 << 20

// server is the reconciliation service: per-tenant job tables over the
// Reconciler API, optionally backed by a crash-safe on-disk store
// (-data-dir), with bearer-token auth, per-tenant quotas, and a
// weighted-fair run-slot scheduler between tenants.
type server struct {
	store        *store // nil: jobs live in RAM only
	reg          *tenant.Registry
	sched        *tenant.Scheduler
	metrics      *serveMetrics
	adminToken   string
	maxBodyBytes int64

	mu      sync.Mutex
	tenants map[string]*tenantJobs
	// jobs aliases the default tenant's job table — the pre-tenancy field
	// the store suites (and any single-tenant tooling) reach into.
	jobs map[string]*job
}

// newServer builds a single-tenant service with pre-tenancy defaults: an
// open unlimited default tenant, no admin token, unlimited run slots.
func newServer(st *store) (*server, []error) {
	return newServerWith(st, serverConfig{registry: tenant.NewRegistry()})
}

// newServerWith builds the service. With a store, previously persisted jobs
// are restored per tenant from their last checkpoints and re-listed:
// finished jobs keep their terminal status and full results; jobs that were
// running when the process died come back as "interrupted" and can be
// finished with POST .../resume. Tenants discovered on disk but absent from
// the registry are auto-registered open and unlimited so their jobs stay
// servable (tokens and quotas can be applied over the admin API).
// Unreadable or half-written jobs are skipped, not fatal — crash recovery
// must not brick the service.
func newServerWith(st *store, cfg serverConfig) (*server, []error) {
	reg := cfg.registry
	if reg == nil {
		reg = tenant.NewRegistry()
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = defaultMaxBodyBytes
	}
	s := &server{
		store:        st,
		reg:          reg,
		sched:        tenant.NewScheduler(cfg.runSlots, reg),
		adminToken:   cfg.adminToken,
		maxBodyBytes: cfg.maxBodyBytes,
		tenants:      make(map[string]*tenantJobs),
	}
	s.metrics = newServeMetrics(s)
	for _, t := range reg.All() {
		s.tenantTable(t.Name())
		if st != nil {
			st.tenant(t.Name()) // pre-create the tenant's store root
		}
	}
	s.jobs = s.tenantTable(tenant.Default).jobs
	if st == nil {
		return s, nil
	}
	loaded, maxNum, skipped := st.loadAll()
	for name, n := range maxNum {
		if !tenant.ValidName(name) {
			continue // load already skipped these jobs with errors
		}
		s.tenantTable(name).nextID = n
	}
	for _, err := range skipped {
		var skip *jobSkip
		if errors.As(err, &skip) {
			s.tenantTable(skip.tenant).skipped[skip.id] = skip.dir
		}
	}
	for _, p := range loaded {
		if reg.Get(p.tenant) == nil {
			if _, err := reg.Register(tenant.Config{Name: p.tenant}); err != nil {
				skipped = append(skipped, fmt.Errorf("store: tenant %s: %w", p.tenant, err))
				continue
			}
		}
		t := reg.Get(p.tenant)
		j := &job{
			id:          p.meta.ID,
			num:         p.meta.Num,
			tname:       p.tenant,
			tn:          t,
			n1:          p.g1.NumNodes(),
			n2:          p.g2.NumNodes(),
			js:          p.js,
			untilStable: p.meta.UntilStable,
			maxSweeps:   p.meta.MaxSweeps,
			status:      p.meta.Status,
			errMsg:      p.meta.Error,
			seeds:       p.meta.Seeds,
			mg1:         p.mg1,
			mg2:         p.mg2,
		}
		// Continue the persisted trace (or start one for jobs persisted before
		// tracing existed): the restored timeline picks up after the
		// snapshot's clock position, and the boot work the store measured —
		// graph opens, chain replay — lands as spans before the resume mark.
		j.tr = s.newJobRecorder(p.meta.Trace)
		p.js.tracer = j.tr
		for _, b := range p.js.boot {
			j.tr.Observe(b.kind, b.detail, b.nanos)
		}
		p.js.boot = nil
		j.tr.Mark(trace.KindResume, "process restart")
		rec, err := reconcile.RestoreSessionState(p.g1, p.g2, p.state,
			reconcile.WithProgress(s.progressHook(j)),
			reconcile.WithTracer(j.tr))
		if err != nil {
			p.closeMapped()
			skipped = append(skipped, fmt.Errorf("store: tenant %s job %s: %w", p.tenant, p.meta.ID, err))
			continue
		}
		j.rec = rec
		// A state restored past the hybrid handoff must not count a switch
		// on its first phase event: the switch happened in a previous life.
		j.frontier = rec.FrontierActive()
		// The replayed chain is the durable truth (each record lands before
		// its meta, so a crash between the two renames leaves the meta one
		// phase batch behind); rebuild the wire counters and phase log from
		// it.
		j.links = rec.Len()
		j.phases = wirePhases(rec)
		if j.status == statusRunning {
			j.status = statusInterrupted
			j.errMsg = "server stopped mid-run; POST /v1/jobs/" + j.id + "/resume to finish"
		}
		if p.dropped > 0 {
			// Recovery fell back to the last consistent chain prefix: the
			// restored state is older than the last acknowledged checkpoint,
			// whatever the meta claims. Resume finishes the rest
			// bit-identically.
			j.status = statusInterrupted
			j.errMsg = fmt.Sprintf("recovery dropped %d trailing checkpoint record(s); POST /v1/jobs/%s/resume to finish", p.dropped, j.id)
		}
		// Restored jobs occupy their node quota (the data is resident);
		// unchecked, because refusing data already on disk helps no one.
		t.AddNodes(int64(j.n1 + j.n2))
		s.tenantTable(p.tenant).jobs[j.id] = j
	}
	return s, skipped
}

// tenantTable returns (creating if needed) a tenant's job table.
func (s *server) tenantTable(name string) *tenantJobs {
	s.mu.Lock()
	defer s.mu.Unlock()
	tj := s.tenants[name]
	if tj == nil {
		tj = &tenantJobs{name: name, jobs: make(map[string]*job), skipped: make(map[string]string)}
		s.tenants[name] = tj
	}
	return tj
}

// wirePhases reconstructs the wire-form phase log from a Reconciler's own
// phase statistics. Every sweep runs the full bucket schedule in order, so
// the bucket index is the entry's position within its sweep.
func wirePhases(rec *reconcile.Reconciler) []phaseJSON {
	g1, g2 := rec.Graphs()
	buckets := len(rec.Options().BucketSchedule(g1, g2))
	phases := rec.Result().Phases
	out := make([]phaseJSON, 0, len(phases))
	for i, ph := range phases {
		out = append(out, phaseJSON{
			Iteration: ph.Iteration,
			Bucket:    i%buckets + 1,
			Buckets:   buckets,
			MinDegree: ph.MinDegree,
			Matched:   ph.Matched,
			Total:     ph.TotalL,
		})
	}
	return out
}

// progressHook streams phase events into the job under its lock, so a
// concurrent GET sees bucket-by-bucket statistics live; with a store it also
// checkpoints at every sweep boundary (and at any phase boundary an explicit
// checkpoint request is waiting on). The hook runs on the run goroutine
// between buckets, exactly where session state is exportable.
func (s *server) progressHook(j *job) func(reconcile.PhaseEvent) {
	return func(e reconcile.PhaseEvent) {
		j.mu.Lock()
		j.phases = append(j.phases, phaseJSON{
			Iteration: e.Iteration,
			Bucket:    e.Bucket,
			Buckets:   e.Buckets,
			MinDegree: e.MinDegree,
			Matched:   e.Matched,
			Total:     e.TotalLinks,
		})
		if e.Bucket == e.Buckets {
			// Mirror the session's own bounded phase log: a long-lived
			// incremental job keeps the last PhaseRetainSweeps sweeps of
			// bucket detail, so the wire view and meta stay O(1) however
			// many resume/seed rounds the job accumulates.
			minIter := e.Iteration - reconcile.PhaseRetainSweeps + 1
			cut := 0
			for cut < len(j.phases) && j.phases[cut].Iteration < minIter {
				cut++
			}
			if cut > 0 {
				j.phases = append(j.phases[:0], j.phases[cut:]...)
			}
		}
		j.links = e.TotalLinks
		// The hook runs on the run goroutine between buckets — the one place
		// session state is readable mid-run — so sample the hybrid regime
		// here and count the (one-way) parallel-to-frontier handoff.
		if fr := j.rec.FrontierActive(); fr && !j.frontier {
			j.frontier = true
			s.metrics.regimeSwitch.Inc()
		}
		persist := j.js != nil && !j.deleted && (e.Bucket == e.Buckets || j.wantCheckpoint)
		var meta jobMeta
		var rec *reconcile.Reconciler
		if persist {
			j.wantCheckpoint = false
			meta = j.metaLocked()
			rec = j.rec
		}
		j.mu.Unlock()
		if !persist {
			return
		}
		// The encode and fsync run outside j.mu so reads stay responsive
		// during checkpoints. This is safe: the job is running, so this run
		// goroutine is the only driver of the Reconciler and its checkpoint
		// chain (every handler that would touch either refuses running
		// jobs), and the bookkeeping snapshot was taken under the lock.
		if err := j.js.checkpoint(rec, meta); err != nil {
			slog.Error("checkpoint failed", "tenant", j.tname, "job", j.id, "err", err)
		}
	}
}

// newJobRecorder builds a job's span recorder — restoring the persisted
// trace when one exists — and feeds every completed span into the
// reconcile_trace_span_seconds histogram. The hook runs outside the
// recorder's mutex on the emitting goroutine.
func (s *server) newJobRecorder(p *trace.Persisted) *trace.Recorder {
	cfg := trace.Config{OnSpan: func(sp trace.Span) {
		s.metrics.traceSpans.With(string(sp.Kind)).Observe(float64(sp.End-sp.Start) / 1e9)
	}}
	if p != nil {
		return trace.Restore(cfg, p)
	}
	return trace.New(cfg)
}

// tenantHandler is a job-API handler bound to an authenticated tenant.
type tenantHandler func(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant)

// handler routes the v1 API: the tenant-namespaced job surface
// (/v1/tenants/{tenant}/jobs...), the un-namespaced twin mapped to the
// default tenant (every pre-tenancy client keeps working), and the admin
// surface (/v1/admin/tenants).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	routes := []struct {
		method, suffix string
		h              tenantHandler
	}{
		{"POST", "/jobs", s.createJob},
		{"GET", "/jobs", s.listJobs},
		{"GET", "/jobs/{id}", s.getJob},
		{"DELETE", "/jobs/{id}", s.deleteJob},
		{"POST", "/jobs/{id}/seeds", s.addSeeds},
		{"POST", "/jobs/{id}/cancel", s.cancelJob},
		{"POST", "/jobs/{id}/checkpoint", s.checkpointJob},
		{"POST", "/jobs/{id}/resume", s.resumeJob},
		{"GET", "/jobs/{id}/trace", s.getTrace},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1"+rt.suffix, s.tenantRoute(rt.h))
		mux.HandleFunc(rt.method+" /v1/tenants/{tenant}"+rt.suffix, s.tenantRoute(rt.h))
	}
	mux.HandleFunc("GET /v1/admin/tenants", s.adminRoute(s.adminListTenants))
	mux.HandleFunc("PUT /v1/admin/tenants/{tenant}", s.adminRoute(s.adminPutTenant))
	// The metrics surface is open like /healthz: its labels are route
	// patterns, tenant names, shard names and statuses — never tokens or
	// request data (the secret-hygiene analyzer pins this package).
	mux.Handle("GET /metrics", s.metrics.registry.Handler())
	// The profiling surface rides behind the same credential as /v1/admin:
	// pprof exposes heap contents and execution timings, which in a shared
	// deployment are as sensitive as the tenant table. (Importing net/http/
	// pprof also registers on http.DefaultServeMux; that mux is never
	// served here, so only these guarded mounts are reachable.)
	mux.HandleFunc("GET /debug/pprof/", s.adminRoute(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", s.adminRoute(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", s.adminRoute(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", s.adminRoute(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", s.adminRoute(pprof.Trace))
	return s.metrics.instrument(logRequests(mux))
}

// reqID numbers requests process-wide, for correlating a request's log
// lines without trusting (or echoing) anything client-supplied.
var reqID atomic.Int64

// logRequests tags every request with a process-unique id and logs it at
// debug level once served, with the matched route pattern (never the raw
// URL — tenant names are fine, but patterns keep cardinality and
// accidental-secret risk at zero) and the tenant/job path values.
func logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqID.Add(1)
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sr, r)
		// The mux records the matched pattern on the request during routing,
		// so it is readable here, after serving — same trick instrument uses.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		slog.Debug("http request",
			"requestId", id, "method", r.Method, "route", route, "status", sr.code,
			"tenant", r.PathValue("tenant"), "job", r.PathValue("id"))
	})
}

// traceView is the GET .../jobs/{id}/trace body: the retained span timeline
// plus cumulative per-kind totals (which include spans the retention window
// has dropped).
type traceView struct {
	ID     string                      `json:"id"`
	Sweep  int                         `json:"sweep"`
	Spans  []trace.Span                `json:"spans"`
	Totals map[trace.Kind]trace.Totals `json:"totals"`
}

// getTrace handles GET .../jobs/{id}/trace: the job's execution trace as a
// JSON timeline, or — with ?format=chrome — as Chrome trace_event JSON
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
func (s *server) getTrace(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	j := s.lookup(w, r, tj)
	if j == nil {
		return
	}
	p := j.tr.Export()
	if r.URL.Query().Get("format") == "chrome" {
		writeJSON(w, http.StatusOK, p.Chrome(j.id))
		return
	}
	writeJSON(w, http.StatusOK, traceView{ID: j.id, Sweep: p.Sweep, Spans: p.Spans, Totals: p.TotalsByKind()})
}

// bearerToken extracts the Authorization bearer token, if any.
func bearerToken(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if token, ok := strings.CutPrefix(auth, "Bearer "); ok {
		return strings.TrimSpace(token)
	}
	return ""
}

// tenantRoute authenticates the request against its tenant (the {tenant}
// path segment, or the default tenant on un-namespaced routes), bounds the
// body, and hands the authenticated tenant to the handler. Unknown tenants
// are 404, missing credentials 401, wrong credentials 403.
func (s *server) tenantRoute(h tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		if name == "" {
			name = tenant.Default
		}
		t, err := s.reg.Authenticate(name, bearerToken(r))
		switch {
		case errors.Is(err, tenant.ErrUnknownTenant):
			writeError(w, http.StatusNotFound, "no tenant %q", name)
			return
		case errors.Is(err, tenant.ErrNoToken):
			w.Header().Set("WWW-Authenticate", `Bearer realm="reconcile"`)
			writeError(w, http.StatusUnauthorized, "tenant %s requires a bearer token", name)
			return
		case errors.Is(err, tenant.ErrBadToken):
			writeError(w, http.StatusForbidden, "token not valid for tenant %s", name)
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, "authenticating: %v", err)
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		}
		h(w, r, s.tenantTable(name), t)
	}
}

// adminRoute guards the admin surface with the -admin-token credential.
// With no admin token configured the surface is open (development mode).
func (s *server) adminRoute(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adminToken != "" {
			got := bearerToken(r)
			if got == "" {
				w.Header().Set("WWW-Authenticate", `Bearer realm="reconcile-admin"`)
				writeError(w, http.StatusUnauthorized, "admin API requires a bearer token")
				return
			}
			if subtle.ConstantTimeCompare([]byte(got), []byte(s.adminToken)) != 1 {
				writeError(w, http.StatusForbidden, "token not valid for the admin API")
				return
			}
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeQuotaError renders a tenant admission refusal as 429 with the
// standard error JSON, counting it by resource kind — every quota refusal
// in the API funnels through here.
func (s *server) writeQuotaError(w http.ResponseWriter, err error) {
	s.metrics.quotaRefused(err)
	writeError(w, http.StatusTooManyRequests, "%v", err)
}

// decodeBody decodes a JSON request body, translating an
// http.MaxBytesReader overrun into 413 and anything else into 400. Returns
// false when a response has been written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return bodyOK(w, json.NewDecoder(r.Body).Decode(v))
}

// bodyOK answers a failed body read or decode: 413 for an
// http.MaxBytesReader overrun, 400 for anything else. It returns whether
// err was nil, false meaning a response has been written.
func bodyOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	return false
}

// buildOptions translates an optionsSpec into a validated configuration.
// Absent fields keep DefaultOptions' values.
func buildOptions(spec optionsSpec) (reconcile.Options, error) {
	o := reconcile.DefaultOptions()
	if spec.Threshold != nil {
		o.Threshold = *spec.Threshold
	}
	if spec.Iterations != nil {
		o.Iterations = *spec.Iterations
	}
	switch spec.Scoring {
	case "":
	case "count":
		o.Scoring = reconcile.ScoreWitnessCount
	case "adamic-adar":
		o.Scoring = reconcile.ScoreAdamicAdar
	default:
		return o, fmt.Errorf("unknown scoring %q", spec.Scoring)
	}
	switch spec.Ties {
	case "":
	case "reject":
		o.Ties = reconcile.TieReject
	case "lowest-id":
		o.Ties = reconcile.TieLowestID
	default:
		return o, fmt.Errorf("unknown tie policy %q", spec.Ties)
	}
	if spec.Workers != nil {
		o.Workers = *spec.Workers
	}
	if spec.Margin != nil {
		o.MinMargin = *spec.Margin
	}
	if spec.Bucketing != nil {
		o.DisableBucketing = !*spec.Bucketing
	}
	if spec.MinBucketExp != nil {
		o.MinBucketExp = *spec.MinBucketExp
	}
	if spec.MaxDegree != nil {
		o.MaxDegree = *spec.MaxDegree
	}
	return o, o.Validate()
}

// checkGraph validates a wire graph without building it: a positive node
// count no larger than the graph codecs can read back (graph.MaxNodes),
// and every edge end in range on its wire value.
func checkGraph(spec graphSpec) error {
	if spec.Nodes <= 0 {
		return fmt.Errorf("graph needs a positive node count")
	}
	if spec.Nodes > graph.MaxNodes {
		return fmt.Errorf("node count %d exceeds the limit of %d", spec.Nodes, graph.MaxNodes)
	}
	for _, e := range spec.Edges {
		if e[0] < 0 || e[0] >= spec.Nodes || e[1] < 0 || e[1] >= spec.Nodes {
			return fmt.Errorf("edge (%d, %d) out of range for %d nodes", e[0], e[1], spec.Nodes)
		}
	}
	return nil
}

// buildGraph builds a wire graph checkGraph has accepted.
func buildGraph(spec graphSpec) *reconcile.Graph {
	edges := make([]reconcile.Edge, 0, len(spec.Edges))
	for _, e := range spec.Edges {
		edges = append(edges, reconcile.Edge{U: reconcile.NodeID(e[0]), V: reconcile.NodeID(e[1])})
	}
	return reconcile.FromEdges(spec.Nodes, edges)
}

// checkSeeds checks every seed link against its side's node count on the
// wire value, before toPairs narrows it to a NodeID.
func checkSeeds(raw []pairSpec, n1, n2 int) error {
	for _, p := range raw {
		if p[0] < 0 || p[0] >= n1 || p[1] < 0 || p[1] >= n2 {
			return fmt.Errorf("seed (%d, %d): node out of range (%d x %d nodes)", p[0], p[1], n1, n2)
		}
	}
	return nil
}

// seedConflict returns an error for the first seed that links a node
// already linked, by links or by an earlier seed, to a different partner.
// An exact duplicate is no conflict: New and AddSeeds ignore it.
func seedConflict(links, seeds []reconcile.Pair) error {
	usedL := make(map[reconcile.NodeID]reconcile.NodeID, len(links)+len(seeds))
	usedR := make(map[reconcile.NodeID]reconcile.NodeID, len(links)+len(seeds))
	for _, p := range links {
		usedL[p.Left] = p.Right
		usedR[p.Right] = p.Left
	}
	for _, p := range seeds {
		if cur, ok := usedL[p.Left]; ok {
			if cur == p.Right {
				continue
			}
			return fmt.Errorf("seed (%d, %d): left node already linked to %d", p.Left, p.Right, cur)
		}
		if cur, ok := usedR[p.Right]; ok {
			return fmt.Errorf("seed (%d, %d): right node already linked to %d", p.Left, p.Right, cur)
		}
		usedL[p.Left] = p.Right
		usedR[p.Right] = p.Left
	}
	return nil
}

func toPairs(raw []pairSpec) []reconcile.Pair {
	out := make([]reconcile.Pair, 0, len(raw))
	for _, p := range raw {
		out = append(out, reconcile.Pair{Left: reconcile.NodeID(p[0]), Right: reconcile.NodeID(p[1])})
	}
	return out
}

// runJob drives one admitted run on its own goroutine: wait for a fair
// run slot (queued runs still read as "running" over the API — the queue
// position is a scheduling detail), run, finish. The job-quota slot
// acquired at admission is released in finish. Callers must hold j.mu, so
// pending.Add is ordered before any deleteJob's pending.Wait (which takes
// j.mu to set the deleted flag first).
func (s *server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, run func(context.Context) error) {
	j.pending.Add(1)
	go func() {
		defer j.pending.Done()
		defer cancel()
		release, err := s.sched.AcquireTraced(ctx, j.tname, func(waitNanos int64) {
			j.tr.Observe(trace.KindSlotWait, "run slot", waitNanos)
		})
		if err != nil {
			j.finish(err, nil) // cancelled (or shut down) while queued: no slot held
			return
		}
		unpin, err := j.pinGraphs()
		if err != nil {
			j.finish(err, release) // mappings already closed: the job is being deleted
			return
		}
		defer unpin()
		j.finish(run(ctx), release)
	}()
}

// pinGraphs pins the job's graph mappings for the duration of a run, so a
// Close racing the run (delete, shutdown) waits for the run's bucket
// boundary instead of unmapping memory the engines are scanning. A no-op
// for heap-backed jobs.
func (j *job) pinGraphs() (unpin func(), err error) {
	if j.mg1 == nil {
		return func() {}, nil
	}
	if _, err := j.mg1.Acquire(); err != nil {
		return nil, err
	}
	if _, err := j.mg2.Acquire(); err != nil {
		j.mg1.Release()
		return nil, err
	}
	return func() {
		j.mg2.Release()
		j.mg1.Release()
	}, nil
}

// closeMappings closes the job's graph mappings. Callers must guarantee no
// run goroutine is in flight (pending.Wait has returned).
func (j *job) closeMappings() {
	if j.mg1 != nil {
		j.mg1.Close()
	}
	if j.mg2 != nil {
		j.mg2.Close()
	}
}

// createJob handles POST .../jobs: validate the body, admit against the
// tenant's quotas, build the graphs and a Reconciler, start the run in a
// goroutine, answer 202 with the job id immediately. Validation reads only
// the wire values and admission only counters, so a body that is malformed
// or over quota is refused before anything O(nodes) is allocated.
func (s *server) createJob(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	req, err := readJob(r.Body)
	if !bodyOK(w, err) {
		return
	}
	if err := checkGraph(req.G1); err != nil {
		writeError(w, http.StatusBadRequest, "g1: %v", err)
		return
	}
	if err := checkGraph(req.G2); err != nil {
		writeError(w, http.StatusBadRequest, "g2: %v", err)
		return
	}
	if err := checkSeeds(req.Seeds, req.G1.Nodes, req.G2.Nodes); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seeds := toPairs(req.Seeds)
	if err := seedConflict(nil, seeds); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := buildOptions(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "options: %v", err)
		return
	}

	// Admission control: a concurrent-run slot, the graph-node budget, and
	// (with a store) the durable-byte budget. All-or-nothing — a refused
	// submission holds nothing.
	if err := t.AcquireJob(); err != nil {
		s.writeQuotaError(w, err)
		return
	}
	nodes := int64(req.G1.Nodes) + int64(req.G2.Nodes)
	if err := t.ReserveNodes(nodes); err != nil {
		t.ReleaseJob()
		s.writeQuotaError(w, err)
		return
	}
	undo := func() {
		t.ReleaseJob()
		t.ReleaseNodes(nodes)
	}
	if s.store != nil {
		if err := t.CheckBytes(s.store.tenant(t.Name()).checkpointBytes()); err != nil {
			undo()
			s.writeQuotaError(w, err)
			return
		}
	}

	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)

	maxSweeps := req.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 50
	}
	s.mu.Lock()
	tj.nextID++
	j := &job{
		id:          fmt.Sprintf("job-%d", tj.nextID),
		num:         tj.nextID,
		tname:       tj.name,
		tn:          t,
		n1:          req.G1.Nodes,
		n2:          req.G2.Nodes,
		untilStable: req.UntilStable,
		maxSweeps:   maxSweeps,
		status:      statusRunning,
	}
	j.tr = s.newJobRecorder(nil)
	if s.store != nil {
		j.js = s.store.tenant(tj.name).jobStore(j.id)
		j.js.tracer = j.tr
	}
	// Publish under the job lock and hold it for the entire creation: job
	// IDs are predictable, so a racing DELETE can reach the job the moment
	// it is in the table — serializing it behind the creation (and marking
	// failed creations deleted) keeps it from purging a half-built job,
	// double-releasing quotas, or letting saveGraphs recreate purged files.
	j.mu.Lock()
	tj.jobs[j.id] = j
	s.mu.Unlock()
	abort := func(code int, format string, args ...any) {
		j.deleted = true
		j.mu.Unlock()
		s.mu.Lock()
		delete(tj.jobs, j.id)
		s.mu.Unlock()
		undo()
		writeError(w, code, format, args...)
	}

	rec, err := reconcile.New(g1, g2,
		reconcile.WithOptions(opts),
		reconcile.WithSeeds(seeds),
		reconcile.WithProgress(s.progressHook(j)),
		reconcile.WithTracer(j.tr))
	if err != nil {
		abort(http.StatusBadRequest, "constructing reconciler: %v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.rec = rec
	j.cancel = cancel
	j.seeds = rec.Len()
	j.links = rec.Len()
	// Make the job durable before acknowledging it: graphs once, then the
	// initial checkpoint. A submission the store cannot hold is refused
	// whole rather than accepted into a state a crash would lose.
	if j.js != nil {
		err := j.js.saveGraphs(g1, g2)
		if err == nil {
			err = j.persistLocked()
		}
		if err != nil {
			cancel()
			// Remove whatever landed before the failure: a refused submission
			// must hold no durable bytes, or the orphaned graph files count
			// against the tenant's byte quota forever.
			j.js.purge()
			abort(http.StatusInternalServerError, "persisting job: %v", err)
			return
		}
	}
	s.runJob(ctx, cancel, j, func(ctx context.Context) error {
		var err error
		if req.UntilStable {
			_, err = rec.RunUntilStable(ctx, maxSweeps)
		} else {
			_, err = rec.Run(ctx)
		}
		return err
	})
	j.mu.Unlock()

	s.metrics.jobsCreated.Inc()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": string(statusRunning)})
}

// finish records a run's outcome on the job, persists the terminal state
// (for a cancelled job, that checkpoint is what a later resume finishes
// from), and releases the tenant's concurrent-run slot and, when the run
// held one, the scheduler's run slot (release; nil for a run cancelled
// while queued). Both are released under j.mu, so a reader that sees the
// terminal status sees the slots free.
func (j *job) finish(err error, release func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.links = j.rec.Len()
	switch {
	case err == nil:
		j.status = statusDone
		j.errMsg = ""
	case errors.Is(err, context.Canceled):
		j.status = statusCancelled
		j.errMsg = err.Error()
	default:
		j.status = statusFailed
		j.errMsg = err.Error()
	}
	if perr := j.persistLocked(); perr != nil {
		j.persistErr = perr.Error()
		slog.Error("final checkpoint failed", "tenant", j.tname, "job", j.id, "status", string(j.status), "err", perr)
	} else {
		j.persistErr = ""
	}
	if j.tn != nil {
		j.tn.ReleaseJob()
	}
	if release != nil {
		release()
	}
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request, tj *tenantJobs) *job {
	s.mu.Lock()
	j := tj.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j
}

// getJob handles GET .../jobs/{id}; ?pairs=1 includes the link list once
// the job has stopped running.
func (s *server) getJob(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	j := s.lookup(w, r, tj)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.view(r.URL.Query().Get("pairs") == "1"))
}

// listJobs handles GET .../jobs.
func (s *server) listJobs(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(tj.jobs))
	for _, j := range tj.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].num < jobs[b].num })
	views := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.view(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// addSeeds handles POST .../jobs/{id}/seeds: ingest incremental trusted
// links into a job that is not currently running, then resume sweeping
// asynchronously until stable.
func (s *server) addSeeds(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	j := s.lookup(w, r, tj)
	if j == nil {
		return
	}
	var req struct {
		Seeds []pairSpec `json:"seeds"`
	}
	if !decodeBody(w, r, &req) {
		return
	}

	j.mu.Lock()
	if j.status == statusRunning {
		j.mu.Unlock()
		writeError(w, http.StatusConflict, "job %s is running; wait for it to finish", j.id)
		return
	}
	if j.deleted {
		j.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %q", j.id)
		return
	}
	if err := checkSeeds(req.Seeds, j.n1, j.n2); err != nil {
		j.mu.Unlock()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// All-or-nothing: Reconciler.AddSeeds commits seeds up to the first
	// conflict, which would leave the job's counters and matching out of
	// step on a 409. Pre-check the whole batch against the current links
	// (and itself) so a rejected request changes nothing.
	newSeeds := toPairs(req.Seeds)
	if err := seedConflict(j.rec.Result().Pairs, newSeeds); err != nil {
		j.mu.Unlock()
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	// The ingest restarts sweeping: that run needs a concurrent-run slot.
	if err := t.AcquireJob(); err != nil {
		j.mu.Unlock()
		s.writeQuotaError(w, err)
		return
	}
	before := j.rec.Len()
	if err := j.rec.AddSeeds(newSeeds); err != nil {
		j.mu.Unlock()
		t.ReleaseJob()
		writeError(w, http.StatusConflict, "adding seeds: %v", err)
		return
	}
	j.seeds += j.rec.Len() - before // duplicates are ignored, not inserted
	j.links = j.rec.Len()
	j.status = statusRunning
	j.errMsg = ""
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	rec := j.rec
	s.runJob(ctx, cancel, j, func(ctx context.Context) error {
		_, err := rec.RunUntilStable(ctx, j.maxSweeps)
		return err
	})
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": string(statusRunning)})
}

// cancelJob handles POST .../jobs/{id}/cancel: stop a running job at the
// next bucket boundary. Cancelling a finished job is a no-op.
func (s *server) cancelJob(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	j := s.lookup(w, r, tj)
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.cancel != nil {
		j.cancel()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id})
}

// deleteJob handles DELETE .../jobs/{id}: cancel any in-flight run, purge
// the job's durable records, release its node quota, and forget it. The
// freed checkpoint bytes immediately count toward the tenant's budget
// again. A job boot skipped holds nothing but its files, so deleting one
// removes those.
func (s *server) deleteJob(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := tj.jobs[id]
	if j == nil {
		dir, skipped := tj.skipped[id]
		delete(tj.skipped, id)
		s.mu.Unlock()
		if !skipped {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return
		}
		// A job boot skipped is in no table; its files are all that is left.
		(&jobStore{ts: s.store.tenant(tj.name), dir: dir, id: id}).purge()
		s.metrics.jobsDeleted.Inc()
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
		return
	}
	// Unlink first: no later handler can reach the job while we tear it
	// down (a racing DELETE gets a clean 404).
	delete(tj.jobs, id)
	s.mu.Unlock()

	j.mu.Lock()
	if j.deleted {
		// A failed creation (or a prior DELETE holding a stale pointer)
		// already tore the job down; its quotas are settled.
		j.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	j.deleted = true // persistLocked and the progress hook stand down
	if j.cancel != nil {
		j.cancel()
	}
	j.mu.Unlock()
	// Wait out the run goroutine (it stops at the next bucket boundary);
	// after this no one drives the Reconciler or its chain.
	j.pending.Wait()
	if j.js != nil {
		j.js.purge()
		j.js.releaseBase()
	}
	j.closeMappings()
	t.ReleaseNodes(int64(j.n1) + int64(j.n2))
	s.metrics.jobsDeleted.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

// checkpointJob handles POST .../jobs/{id}/checkpoint: force a durable
// checkpoint now. An idle job is checkpointed synchronously (200); a running
// job is flagged and checkpointed by its own run goroutine at the next
// phase boundary — the only place its state is exportable (202).
func (s *server) checkpointJob(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	if s.store == nil {
		writeError(w, http.StatusConflict, "server started without -data-dir; nothing to checkpoint to")
		return
	}
	j := s.lookup(w, r, tj)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == statusRunning {
		j.wantCheckpoint = true
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "checkpoint": "at next phase boundary"})
		return
	}
	if err := j.persistLocked(); err != nil {
		writeError(w, http.StatusInternalServerError, "checkpointing: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "checkpoint": "written"})
}

// resumeJob handles POST .../jobs/{id}/resume: continue an interrupted or
// cancelled job from its current state — completing a sweep the stop split,
// then the rest of the schedule (until-stable jobs sweep to stability). The
// finished result is bit-identical to a never-stopped run.
func (s *server) resumeJob(w http.ResponseWriter, r *http.Request, tj *tenantJobs, t *tenant.Tenant) {
	j := s.lookup(w, r, tj)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch j.status {
	case statusInterrupted, statusCancelled:
	default:
		status := j.status
		j.mu.Unlock()
		writeError(w, http.StatusConflict, "job %s is %s; only interrupted or cancelled jobs resume", j.id, status)
		return
	}
	if j.deleted {
		j.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %q", j.id)
		return
	}
	if err := t.AcquireJob(); err != nil {
		j.mu.Unlock()
		s.writeQuotaError(w, err)
		return
	}
	j.status = statusRunning
	j.errMsg = ""
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	rec := j.rec
	s.runJob(ctx, cancel, j, func(ctx context.Context) error {
		if j.untilStable {
			// Only the unspent sweep budget remains: an uninterrupted run
			// would have stopped at maxSweeps total, so the resumed one must
			// too (the sweep the stop split is completed for free).
			remaining := j.maxSweeps - rec.Sweeps()
			if remaining < 0 {
				remaining = 0
			}
			_, err := rec.RunUntilStable(ctx, remaining)
			return err
		}
		_, err := rec.Resume(ctx)
		return err
	})
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": string(statusRunning)})
}

// tenantView is one row of GET /v1/admin/tenants.
type tenantView struct {
	Name   string        `json:"name"`
	Auth   string        `json:"auth"` // "open" | "token"
	Weight int           `json:"weight"`
	Quotas tenant.Quotas `json:"quotas"`
	Usage  tenantUsage   `json:"usage"`
}

type tenantUsage struct {
	Jobs            int   `json:"jobs"`       // jobs in the table, any status
	ActiveRuns      int   `json:"activeRuns"` // admitted against MaxJobs
	RunSlots        int   `json:"runSlots"`   // fair-scheduler slots held
	QueuedRuns      int   `json:"queuedRuns"` // waiting for a slot
	Nodes           int64 `json:"nodes"`
	CheckpointBytes int64 `json:"checkpointBytes"`
	// WalkedBytes is the byte-accounting invariant probe, present only on
	// GET /v1/admin/tenants?verify=bytes: a fresh walk of the tenant's
	// store root, which must equal CheckpointBytes while the tenant's jobs
	// are settled. The load harness asserts zero drift with it.
	WalkedBytes *int64 `json:"walkedBytes,omitempty"`
}

// adminTenantView assembles one tenant's config-plus-usage row. With
// verifyBytes it also runs the store's walk-vs-counter invariant check.
func (s *server) adminTenantView(t *tenant.Tenant, verifyBytes bool) tenantView {
	name := t.Name()
	auth := "token"
	if t.Open() {
		auth = "open"
	}
	active, nodes := t.Usage()
	v := tenantView{
		Name:   name,
		Auth:   auth,
		Weight: t.Weight(),
		Quotas: t.Quotas(),
		Usage: tenantUsage{
			ActiveRuns: active,
			RunSlots:   s.sched.InFlight(name),
			QueuedRuns: s.sched.Queued(name),
			Nodes:      nodes,
		},
	}
	s.mu.Lock()
	if tj := s.tenants[name]; tj != nil {
		v.Usage.Jobs = len(tj.jobs)
	}
	s.mu.Unlock()
	if s.store != nil {
		ts := s.store.tenant(name)
		v.Usage.CheckpointBytes = ts.checkpointBytes()
		if verifyBytes {
			tracked, walked := ts.verifyBytes()
			v.Usage.CheckpointBytes = tracked
			v.Usage.WalkedBytes = &walked
		}
	}
	return v
}

// adminListTenants handles GET /v1/admin/tenants. ?verify=bytes adds each
// tenant's walked durable bytes next to the incremental counter so drift
// is observable from outside (meaningful while jobs are settled).
func (s *server) adminListTenants(w http.ResponseWriter, r *http.Request) {
	verifyBytes := r.URL.Query().Get("verify") == "bytes"
	views := []tenantView{}
	for _, t := range s.reg.All() {
		views = append(views, s.adminTenantView(t, verifyBytes))
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": views})
}

// adminPutTenant handles PUT /v1/admin/tenants/{tenant}: register a tenant
// or update its token, weight and quotas in place. Tokens travel in the
// body — run the admin surface behind TLS.
func (s *server) adminPutTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	var cfg tenant.Config
	if !decodeBody(w, r, &cfg) {
		return
	}
	if cfg.Name == "" {
		cfg.Name = name
	}
	if cfg.Name != name {
		writeError(w, http.StatusBadRequest, "body names tenant %q, path %q", cfg.Name, name)
		return
	}
	t, err := s.reg.Register(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.tenantTable(name)
	if s.store != nil {
		s.store.tenant(name) // create the tenant's store root eagerly
	}
	writeJSON(w, http.StatusOK, s.adminTenantView(t, false))
}

// cancelRunning starts a graceful drain: every running job's context is
// cancelled (the run stops at its next bucket boundary and finish() writes
// a final durable checkpoint). Returns every job for awaitDrain. Called
// BEFORE http.Server.Shutdown in main: a handler parked on a running job
// (DELETE in pending.Wait) would otherwise hold HTTP shutdown open while
// the job it is waiting for is only cancelled afterwards — burning the
// whole grace budget on a self-inflicted deadlock.
func (s *server) cancelRunning() []*job {
	s.mu.Lock()
	var jobs []*job
	for _, tj := range s.tenants {
		for _, j := range tj.jobs {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	// Cancel (and later drain) in a stable order: map iteration would make
	// the shutdown sequence — cancellation, final checkpoints, drain log —
	// differ run to run for no reason.
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].tname != jobs[b].tname {
			return jobs[a].tname < jobs[b].tname
		}
		return jobs[a].num < jobs[b].num
	})
	for _, j := range jobs {
		j.mu.Lock()
		if j.status == statusRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	return jobs
}

// awaitDrain waits (bounded by ctx) for the run goroutines of jobs
// returned by cancelRunning to finish; each finish() has then written its
// final checkpoint, so with a store a restart re-lists drained jobs as
// "cancelled" with current state and POST .../resume completes them
// bit-identically — instead of the crash path's "interrupted" at the last
// sweep boundary.
func (s *server) awaitDrain(ctx context.Context, jobs []*job) error {
	done := make(chan struct{})
	go func() {
		for _, j := range jobs {
			j.pending.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: jobs still draining at the shutdown deadline (up to %d unfinished)", len(jobs))
	}
}

// shutdown is cancelRunning + awaitDrain in one call, for callers with no
// HTTP listener to drain in between (tests).
func (s *server) shutdown(ctx context.Context) error {
	return s.awaitDrain(ctx, s.cancelRunning())
}

// drainOutcome is one drained job's terminal status and final-checkpoint
// result, for the shutdown report.
type drainOutcome struct {
	tenant, job string
	status      jobStatus
	err         string // "" — final checkpoint written (or job has no store)
}

// drainOutcomes reports each drained job's status and final-checkpoint
// outcome, in the stable drain order. Call after awaitDrain: finish() has
// then recorded every job's persist result.
func drainOutcomes(jobs []*job) []drainOutcome {
	out := make([]drainOutcome, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, drainOutcome{tenant: j.tname, job: j.id, status: j.status, err: j.persistErr})
		j.mu.Unlock()
	}
	return out
}

// closeMappings closes every job's mapped graph files — the -mmap lifetime's
// shutdown half. Call only after the jobs have drained (awaitDrain); a
// restart reopens the mappings from the store.
func (s *server) closeMappings() {
	s.mu.Lock()
	var jobs []*job
	for _, tj := range s.tenants {
		for _, j := range tj.jobs {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	// Close in a stable order so any unmap errors surface in the same
	// sequence run to run.
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].tname != jobs[b].tname {
			return jobs[a].tname < jobs[b].tname
		}
		return jobs[a].num < jobs[b].num
	})
	for _, j := range jobs {
		j.closeMappings()
	}
}
