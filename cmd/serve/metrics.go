package main

import (
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	runtimemetrics "runtime/metrics"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/metrics"
	"github.com/sociograph/reconcile/internal/tenant"
)

// serveMetrics is the server's observability surface: one metrics.Registry
// exposed at GET /metrics, fed by three kinds of sources. Counters and
// histograms are pushed at the event (HTTP middleware, scheduler wait
// observer, store write observer, quota refusals, regime switches); live
// gauges (queue depths, slots held, durable bytes, jobs by status) are
// pulled fresh at scrape time through the registry's collect hook, so they
// need no invalidation discipline in the serving paths.
//
// Label hygiene: the only label values are route patterns (static strings
// from the mux), HTTP status codes, tenant names, shard directory names,
// quota resource kinds and job statuses — all low-cardinality and none
// derived from request bodies or credentials. internal/analysis runs the
// secret-hygiene rule over this package to keep it that way.
type serveMetrics struct {
	registry *metrics.Registry

	httpRequests *metrics.CounterVec   // route, code
	httpSeconds  *metrics.HistogramVec // route
	slotWait     *metrics.HistogramVec // tenant
	queueDepth   *metrics.GaugeVec     // tenant
	slotsHeld    *metrics.GaugeVec     // tenant
	quotaRejects *metrics.CounterVec   // resource
	writeBytes   *metrics.CounterVec   // shard
	fsyncSeconds *metrics.HistogramVec // shard
	tenantBytes  *metrics.GaugeVec     // tenant
	regimeSwitch *metrics.Counter
	jobsByStatus *metrics.GaugeVec // status
	jobsCreated  *metrics.Counter
	jobsDeleted  *metrics.Counter
	traceSpans   *metrics.HistogramVec // kind

	// Go runtime health, refreshed at scrape time from runtime/metrics.
	goroutines *metrics.Gauge
	heapBytes  *metrics.Gauge
	gcPause    *metrics.GaugeVec // quantile
	mappings   *metrics.Gauge
}

// newServeMetrics builds the registry, registers every family, and wires
// the push sources (scheduler wait observer, store write observer) and the
// scrape-time collectors onto the server. Called once from newServerWith;
// every server owns its own registry so tests compose freely.
func newServeMetrics(s *server) *serveMetrics {
	r := metrics.NewRegistry()
	m := &serveMetrics{
		registry: r,
		httpRequests: r.CounterVec("reconcile_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		httpSeconds: r.HistogramVec("reconcile_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.", nil, "route"),
		slotWait: r.HistogramVec("reconcile_sched_slot_wait_seconds",
			"Time runs spent queued for a fair-scheduler slot, by tenant.", nil, "tenant"),
		queueDepth: r.GaugeVec("reconcile_sched_queue_depth",
			"Runs currently queued for a scheduler slot, by tenant.", "tenant"),
		slotsHeld: r.GaugeVec("reconcile_sched_slots_inflight",
			"Scheduler slots currently held, by tenant.", "tenant"),
		quotaRejects: r.CounterVec("reconcile_quota_rejections_total",
			"Admissions refused over quota, by resource kind.", "resource"),
		writeBytes: r.CounterVec("reconcile_store_write_bytes_total",
			"Bytes of durable files written (graphs, checkpoints, metas), by shard directory.", "shard"),
		fsyncSeconds: r.HistogramVec("reconcile_store_fsync_seconds",
			"Durable write latency in seconds (temp write, fsync, rename, dir fsync), by shard directory.", nil, "shard"),
		tenantBytes: r.GaugeVec("reconcile_store_tenant_bytes",
			"Durable bytes currently held under each tenant's store root.", "tenant"),
		regimeSwitch: r.Counter("reconcile_engine_regime_switches_total",
			"Engine handoffs from the full-scan to the frontier regime."),
		jobsByStatus: r.GaugeVec("reconcile_jobs",
			"Jobs in the tables, by status.", "status"),
		jobsCreated: r.Counter("reconcile_jobs_created_total",
			"Jobs accepted by POST .../jobs."),
		jobsDeleted: r.Counter("reconcile_jobs_deleted_total",
			"Jobs removed by DELETE .../jobs/{id}."),
		traceSpans: r.HistogramVec("reconcile_trace_span_seconds",
			"Trace span durations in seconds, by span kind (sweep, bucket, checkpoint-write, ...).", nil, "kind"),
		goroutines: r.Gauge("reconcile_go_goroutines",
			"Goroutines at scrape time."),
		heapBytes: r.Gauge("reconcile_go_heap_bytes",
			"Bytes of live heap objects at scrape time."),
		gcPause: r.GaugeVec("reconcile_go_gc_pause_seconds",
			"GC stop-the-world pause quantiles over the process lifetime.", "quantile"),
		mappings: r.Gauge("reconcile_graph_open_mappings",
			"Graph file mappings currently open (-mmap jobs; heap fallbacks not counted)."),
	}
	s.sched.SetWaitObserver(func(tn string, seconds float64) {
		m.slotWait.With(tn).Observe(seconds)
	})
	if s.store != nil {
		s.store.SetWriteObserver(func(shard string, bytes int64, seconds float64) {
			m.writeBytes.With(shard).Add(float64(bytes))
			m.fsyncSeconds.With(shard).Observe(seconds)
		})
	}
	r.OnCollect(func() { m.collect(s) })
	return m
}

// collect refreshes the pull-style gauges at scrape time.
func (m *serveMetrics) collect(s *server) {
	for _, t := range s.reg.All() {
		name := t.Name()
		m.queueDepth.With(name).Set(float64(s.sched.Queued(name)))
		m.slotsHeld.With(name).Set(float64(s.sched.InFlight(name)))
		if s.store != nil {
			m.tenantBytes.With(name).Set(float64(s.store.tenant(name).checkpointBytes()))
		}
	}
	// Snapshot the job pointers under s.mu, read each status under its own
	// j.mu afterwards — collect() must never hold both (createJob's abort
	// path acquires them in the opposite order). The sort erases map order
	// before anything observes the slice.
	s.mu.Lock()
	var jobs []*job
	for _, tj := range s.tenants {
		for _, j := range tj.jobs {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].tname != jobs[b].tname {
			return jobs[a].tname < jobs[b].tname
		}
		return jobs[a].num < jobs[b].num
	})
	counts := make(map[jobStatus]int)
	for _, j := range jobs {
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		counts[st]++
	}
	for _, st := range []jobStatus{statusRunning, statusDone, statusCancelled, statusFailed, statusInterrupted} {
		m.jobsByStatus.With(string(st)).Set(float64(counts[st]))
	}
	m.collectRuntime()
}

// collectRuntime refreshes the Go runtime gauges from runtime/metrics — a
// fixed, documented sample set, read in one call at scrape time.
func (m *serveMetrics) collectRuntime() {
	samples := []runtimemetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/pauses:seconds"},
	}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		m.goroutines.Set(float64(samples[0].Value.Uint64()))
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		m.heapBytes.Set(float64(samples[1].Value.Uint64()))
	}
	if samples[2].Value.Kind() == runtimemetrics.KindFloat64Histogram {
		h := samples[2].Value.Float64Histogram()
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}} {
			m.gcPause.With(q.label).Set(runtimeHistQuantile(h, q.q))
		}
	}
	m.mappings.Set(float64(reconcile.OpenMappings()))
}

// runtimeHistQuantile estimates quantile q from a runtime/metrics histogram
// the way histogram_quantile does: the upper bound of the bucket the rank
// falls in (the bucket's lower bound when the upper is +Inf, so the estimate
// stays finite whenever any data exists).
func runtimeHistQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				return h.Buckets[i]
			}
			return ub
		}
	}
	return 0
}

// quotaRefused counts one 429 by its resource kind; refusals that are not
// QuotaErrors (there are none today) land under "other".
func (m *serveMetrics) quotaRefused(err error) {
	resource := "other"
	var qe *tenant.QuotaError
	if errors.As(err, &qe) {
		resource = qe.Resource
	}
	m.quotaRejects.With(resource).Inc()
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with the per-endpoint request metrics. The route
// label is http.Request.Pattern — the registered pattern the mux matched
// (method and path wildcards included), populated after routing, so label
// cardinality is bounded by the route table and never carries request data.
func (m *serveMetrics) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rw, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		m.httpRequests.With(route, strconv.Itoa(rw.code)).Inc()
		m.httpSeconds.With(route).Observe(time.Since(start).Seconds())
	})
}
