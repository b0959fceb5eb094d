// Command serve exposes the reconciler as a long-lived, multi-tenant
// HTTP/JSON service — the operational shape of the problem, where networks
// are reconciled once and trusted links keep trickling in, and many
// independent customers share one deployment.
//
// Usage:
//
//	serve -addr :8080 [-data-dir /var/lib/reconcile] [-shards 4]
//	      [-full-every 8] [-keep 3] [-mmap]
//	      [-tenants tenants.json] [-admin-token $TOKEN] [-run-slots N]
//	      [-max-body-bytes N] [-shutdown-grace 15s]
//
// With -data-dir the server is crash-safe: every job is persisted to a
// sharded, delta-checkpointed store under its tenant's root
// (<data-dir>/<tenant>/shard-NN/...; graphs once, per-sweep checkpoints as
// chains of one full state snapshot followed by cheap delta records), all
// jobs are re-listed after a restart with their results intact, and a job
// that was mid-run when the process died comes back as "interrupted" —
// POST .../resume finishes it with a matching bit-identical to a
// never-interrupted run. Jobs hash across -shards directories per tenant
// (independent fsync domains), a full snapshot anchors every
// -full-every-th checkpoint, and the last -keep full chains are retained
// per job. Without -data-dir jobs live in RAM only.
//
// With -mmap (the default where the platform supports it) new jobs' graphs
// are written in the mappable container format and every job's graphs are
// served from read-only file mappings after a restart: recovery pages the
// immutable CSR arrays in on demand instead of re-decoding them onto the
// heap, and concurrent processes share one page-cache copy. Either setting
// reads graph files written under the other, so -mmap can be flipped over
// an existing data directory without migration (legacy files are decoded
// onto the heap behind the same lifetime API). Every checkpoint is one
// record, whose durable rename is its commit point; -range-nodes, which
// once cut large jobs' checkpoints into node ranges, is accepted and
// ignored, and boot skips a job whose chain was written in ranges.
//
// Multi-tenancy: every job belongs to a tenant. The un-namespaced routes
// below operate on the built-in "default" tenant, so single-tenant
// deployments and pre-tenancy clients keep working unchanged; the same
// routes exist for every registered tenant under
// /v1/tenants/{tenant}/jobs... . Tenants are declared in the -tenants JSON
// config file ({"tenants": [{"name": ..., "token"|"tokenEnv": ...,
// "weight": ..., "maxJobs": ..., "maxNodes": ..., "maxCheckpointBytes":
// ...}, ...]}) or registered at runtime over the admin API. A tenant with
// a token requires "Authorization: Bearer <token>" on every request to its
// namespace (401 without a token, 403 with a wrong one); a tenant without
// one is open, which is also the default tenant's initial state. Quotas
// are admission limits (429 when exceeded): concurrent runs, total graph
// nodes, and durable checkpoint bytes under the tenant's store root. A
// submission is validated before it is admitted (400 for a malformed body,
// whatever the tenant's quota state) and admitted before its graphs are
// built.
// -run-slots caps run goroutines across all tenants; a weighted-fair
// scheduler shares the slots so no tenant can starve another (see
// DESIGN.md "Multi-tenancy").
//
// API (all bodies JSON; {tenant} routes take the tenant's bearer token):
//
//	POST /v1/jobs                  submit {g1, g2, seeds, options,
//	                               untilStable, maxSweeps}; answers 202
//	                               {id, status} and runs the job
//	                               asynchronously. untilStable sweeps until
//	                               nothing new is found (bounded by
//	                               maxSweeps, default 50); otherwise the
//	                               job performs options.iterations sweeps
//	                               and maxSweeps is ignored
//	GET  /v1/jobs                  list the tenant's jobs
//	GET  /v1/jobs/{id}             job status, link counts and per-bucket
//	                               phase statistics (streamed live while
//	                               the job runs); ?pairs=1 appends the
//	                               links once the job has stopped
//	DELETE /v1/jobs/{id}           cancel the job if running, purge its
//	                               graphs/checkpoints/meta from the store,
//	                               release its quota
//	POST /v1/jobs/{id}/seeds       ingest {seeds: [[l, r], ...]}
//	                               incrementally and resume sweeping until
//	                               stable
//	POST /v1/jobs/{id}/cancel      stop the job at the next bucket boundary
//	POST /v1/jobs/{id}/checkpoint  force a durable checkpoint: immediately
//	                               for an idle job (200), at the next phase
//	                               boundary for a running one (202);
//	                               requires -data-dir (409 otherwise)
//	POST /v1/jobs/{id}/resume      continue an interrupted or cancelled job
//	                               from its last state, finishing the
//	                               schedule bit-identically to an
//	                               uninterrupted run
//	/v1/tenants/{tenant}/jobs...   every route above, namespaced
//	GET  /v1/admin/tenants         tenant configs plus live usage (active
//	                               runs, held/queued run slots, nodes,
//	                               checkpoint bytes); takes -admin-token
//	PUT  /v1/admin/tenants/{name}  register a tenant or update its token,
//	                               weight and quotas in place
//	GET  /healthz                  liveness
//
// Graphs are submitted as {"nodes": n, "edges": [[u, v], ...]} with dense
// 0-based IDs; seeds and returned pairs are [left, right] arrays. A
// submitted pair is exactly two integers, each below its graph's node
// count: [2], [1, 2, 7] or an end past the node count is refused with 400,
// on job submissions and seed ingests alike. A job body in the canonical
// encoding (the keys above, plain and once each, pairs of integers) is
// parsed in one pass; any other body is decoded by encoding/json, with the
// same result. Options
// mirror the functional options of the Go API: threshold, iterations,
// scoring ("count"/"adamic-adar"), ties ("reject"/"lowest-id"), workers,
// margin, bucketing, minBucketExp, maxDegree; other keys, such as the
// retired "engine", are ignored. Request bodies beyond -max-body-bytes are
// refused with 413.
//
// On SIGINT/SIGTERM the server drains gracefully within -shutdown-grace:
// in-flight HTTP requests complete, running jobs are cancelled at their
// next bucket boundary, and each durable job writes a final checkpoint —
// so a restart re-lists them as "cancelled" at their exact stop point and
// POST .../resume finishes them bit-identically, instead of the crash
// path's "interrupted" at the last sweep boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// setupLogging installs the process-wide slog handler: text (the default,
// for terminals) or json (for log pipelines), at info level, or debug with
// -log-debug (which adds a line per HTTP request).
func setupLogging(format string, debug bool) error {
	level := slog.LevelInfo
	if debug {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, opts)))
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, opts)))
	default:
		return fmt.Errorf("serve: -log-format must be text or json (got %q)", format)
	}
	return nil
}

// fatal logs err and exits — log.Fatalf's shape under slog.
func fatal(msg string, err error) {
	slog.Error(msg, "err", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "job store directory; enables crash-safe durable jobs (empty: in-memory only)")
	shards := flag.Int("shards", 4, "shard directories new jobs hash across within each tenant's root; each is an independent fsync domain (mount on separate volumes to spread checkpoint IO)")
	fullEvery := flag.Int("full-every", 8, "checkpoint chain period: one full state snapshot, then full-every-1 cheap delta records (1 = every checkpoint full)")
	keep := flag.Int("keep", 3, "full checkpoint chains retained per job; older records are removed after each new full and on boot")
	mmapGraphs := flag.Bool("mmap", reconcile.MmapSupported, "serve job graphs from read-only file mappings: new graphs are written in the mappable container format and restored jobs page them in on demand (either setting reads files written under the other)")
	flag.Int("range-nodes", 0, "ignored: every checkpoint is one record (kept so existing command lines still start)")
	tenantsFile := flag.String("tenants", "", "tenant registry JSON ({\"tenants\": [{name, token|tokenEnv, weight, maxJobs, maxNodes, maxCheckpointBytes}, ...]}); empty: only the open default tenant")
	adminToken := flag.String("admin-token", os.Getenv("RECONCILE_ADMIN_TOKEN"), "bearer token for /v1/admin (default $RECONCILE_ADMIN_TOKEN; empty leaves the admin API open)")
	runSlots := flag.Int("run-slots", runtime.GOMAXPROCS(0), "concurrent run goroutines across all tenants, shared by weighted fair scheduling (0: unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", defaultMaxBodyBytes, "largest accepted request body; oversized bodies answer 413")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "drain budget after SIGINT/SIGTERM: running jobs stop at a bucket boundary and write a final checkpoint within this window")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logDebug := flag.Bool("log-debug", false, "log at debug level (adds a line per HTTP request, with request ids)")
	flag.Parse()

	if err := setupLogging(*logFormat, *logDebug); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	reg := tenant.NewRegistry()
	if *tenantsFile != "" {
		if err := reg.LoadFile(*tenantsFile); err != nil {
			fatal("loading tenant registry", err)
		}
	}

	var st *store
	if *dataDir != "" {
		var err error
		if st, err = newStore(*dataDir, storeConfig{
			shards:    *shards,
			fullEvery: *fullEvery,
			keep:      *keep,
			mmap:      *mmapGraphs,
		}); err != nil {
			fatal("opening job store", err)
		}
	}
	s, skipped := newServerWith(st, serverConfig{
		registry:     reg,
		runSlots:     *runSlots,
		adminToken:   *adminToken,
		maxBodyBytes: *maxBodyBytes,
	})
	for _, err := range skipped {
		slog.Warn("skipping persisted job", "err", err)
	}
	if st != nil {
		restored := 0
		s.mu.Lock()
		for _, tj := range s.tenants {
			restored += len(tj.jobs)
		}
		s.mu.Unlock()
		slog.Info("job store open", "dir", *dataDir, "tenants", len(reg.All()), "jobsRestored", restored)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("listening", "addr", *addr)

	select {
	case err := <-errCh:
		fatal("http server", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining
	slog.Info("signal received; draining", "budget", shutdownGrace.String())
	dctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	// Cancel jobs first: handlers parked on a running job (DELETE waiting
	// out a run) unblock, so the HTTP drain below cannot starve the job
	// drain of the shared grace budget.
	jobs := s.cancelRunning()
	if err := srv.Shutdown(dctx); err != nil {
		slog.Warn("http shutdown", "err", err)
	}
	if err := s.awaitDrain(dctx, jobs); err != nil {
		slog.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	s.closeMappings() // drained: no run can touch a mapped graph anymore
	// Report each job's final-checkpoint outcome, not just a blanket
	// success line: a drain where a final checkpoint failed restarts that
	// job from its previous checkpoint, and the operator should know which.
	failed := 0
	for _, o := range drainOutcomes(jobs) {
		if o.err != "" {
			failed++
			slog.Error("final checkpoint failed", "tenant", o.tenant, "job", o.job, "status", string(o.status), "err", o.err)
		}
	}
	if failed > 0 {
		slog.Warn("drained with checkpoint failures", "jobs", len(jobs), "failed", failed)
	} else {
		slog.Info("drained; final checkpoints written", "jobs", len(jobs))
	}
}
