package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
)

// scrapeMetrics fetches /metrics, checks the exposition envelope, and
// parses every sample line into a series-name (labels included) → value
// map. Format defects — unparseable samples, duplicate series, samples
// outside a TYPE-announced family — fail the test here so every caller
// doubles as a format check.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[2]] = true
		case strings.HasPrefix(line, "#"):
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("unparseable sample line %q", line)
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			name := line[:i]
			if _, dup := series[name]; dup {
				t.Fatalf("duplicate series %q", name)
			}
			series[name] = v
		}
	}
	for name := range series {
		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(fam, suffix)] {
				fam = ""
				break
			}
		}
		if fam != "" {
			t.Fatalf("sample %q has no TYPE comment for its family", name)
		}
	}
	return series
}

// sumPrefix totals every series whose name starts with prefix — for
// families whose label values (shard directories) the test cannot predict.
func sumPrefix(series map[string]float64, prefix string) float64 {
	var sum float64
	for name, v := range series {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// TestMetricsEndpoint scripts one of everything against a stored server —
// job lifecycle, seeds, quota refusal, unmatched route, delete — and
// asserts the /metrics surface is well-formed, wide (≥15 series) and that
// each instrumented family actually moved.
func TestMetricsEndpoint(t *testing.T) {
	st := newTestStore(t)
	ts := httptest.NewServer(newTestServer(t, st).handler())
	defer ts.Close()

	before := scrapeMetrics(t, ts.URL)

	// A nodes-limited tenant supplies the quota refusal.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/admin/tenants/tiny",
		strings.NewReader(`{"maxNodes":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering tiny tenant: status %d", resp.StatusCode)
	}

	inst := testInstance(t, 80, 0.25)
	inst.UntilStable = true
	inst.MaxSweeps = 8
	resp = postJSON(t, ts.URL+"/v1/jobs", inst)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job settled as %q", v.Status)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "?pairs=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/tenants/tiny/jobs", inst)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/no-such-route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Scrape while the finished job is still in the table: the done gauge
	// and the tenant byte gauge are only non-zero here.
	mid := scrapeMetrics(t, ts.URL)
	if got := mid[`reconcile_jobs{status="done"}`]; got < 1 {
		t.Errorf(`reconcile_jobs{status="done"} = %v, want >= 1`, got)
	}
	if got := mid[`reconcile_store_tenant_bytes{tenant="default"}`]; got <= 0 {
		t.Errorf("tenant byte gauge = %v, want > 0", got)
	}

	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	after := scrapeMetrics(t, ts.URL)
	if len(after) < 15 {
		t.Fatalf("only %d series exposed, want >= 15", len(after))
	}

	moved := func(name string) {
		t.Helper()
		if !(after[name] > before[name]) {
			t.Errorf("series %q did not move: before %v, after %v", name, before[name], after[name])
		}
	}
	moved(`reconcile_http_requests_total{route="POST /v1/jobs",code="202"}`)
	moved(`reconcile_http_requests_total{route="GET /v1/jobs/{id}",code="200"}`)
	moved(`reconcile_http_requests_total{route="PUT /v1/admin/tenants/{tenant}",code="200"}`)
	moved(`reconcile_http_requests_total{route="POST /v1/tenants/{tenant}/jobs",code="429"}`)
	moved(`reconcile_http_requests_total{route="unmatched",code="404"}`)
	moved(`reconcile_http_request_seconds_count{route="POST /v1/jobs"}`)
	moved(`reconcile_http_request_seconds_sum{route="GET /v1/jobs/{id}"}`)
	moved(`reconcile_jobs_created_total`)
	moved(`reconcile_jobs_deleted_total`)
	moved(`reconcile_quota_rejections_total{resource="nodes"}`)
	moved(`reconcile_sched_slot_wait_seconds_count{tenant="default"}`)
	for _, prefix := range []string{
		"reconcile_store_write_bytes_total{",
		"reconcile_store_fsync_seconds_count{",
	} {
		if !(sumPrefix(after, prefix) > sumPrefix(before, prefix)) {
			t.Errorf("no %s* series moved", prefix)
		}
	}
	// Gauges that legitimately read zero now must still be exposed.
	for _, name := range []string{
		`reconcile_jobs{status="running"}`,
		`reconcile_sched_queue_depth{tenant="default"}`,
		`reconcile_sched_slots_inflight{tenant="default"}`,
		`reconcile_engine_regime_switches_total`,
		`reconcile_go_gc_pause_seconds{quantile="0.5"}`,
		`reconcile_go_gc_pause_seconds{quantile="0.9"}`,
		`reconcile_go_gc_pause_seconds{quantile="0.99"}`,
		`reconcile_graph_open_mappings`,
	} {
		if _, ok := after[name]; !ok {
			t.Errorf("series %q not exposed", name)
		}
	}
	// Go runtime gauges carry live values: a serving process always has
	// goroutines and heap objects.
	if got := after[`reconcile_go_goroutines`]; got < 1 {
		t.Errorf("reconcile_go_goroutines = %v, want >= 1", got)
	}
	if got := after[`reconcile_go_heap_bytes`]; got <= 0 {
		t.Errorf("reconcile_go_heap_bytes = %v, want > 0", got)
	}
	// The finished job emitted execution-trace spans into the histogram:
	// sweeps certainly, checkpoint writes because the server is stored.
	for _, name := range []string{
		`reconcile_trace_span_seconds_count{kind="sweep"}`,
		`reconcile_trace_span_seconds_count{kind="checkpoint-write"}`,
	} {
		if !(after[name] > before[name]) {
			t.Errorf("series %q did not move: before %v, after %v", name, before[name], after[name])
		}
	}
}

// TestMetricsOpenMappingsGauge pins reconcile_graph_open_mappings to the
// mapping lifetime: a live job holds no mappings (its graphs arrived over the
// wire), but restoring it on reboot pages both graph files in, moving the
// gauge by two per job wherever the platform supports mapping.
func TestMetricsOpenMappingsGauge(t *testing.T) {
	st, err := newStore(t.TempDir(), testStoreConfig)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newTestServer(t, st).handler())

	inst := testInstance(t, 400, 0.2)
	inst.UntilStable = true
	inst.MaxSweeps = 6
	resp := postJSON(t, ts.URL+"/v1/jobs", inst)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job settled as %q", v.Status)
	}
	v0 := scrapeMetrics(t, ts.URL)[`reconcile_graph_open_mappings`]
	ts.Close()

	ts2 := httptest.NewServer(newTestServer(t, st).handler())
	defer ts2.Close()
	v1 := scrapeMetrics(t, ts2.URL)[`reconcile_graph_open_mappings`]
	if reconcile.MmapSupported {
		// The gauge is process-wide, so assert the delta, not the level.
		if v1 < v0+2 {
			t.Fatalf("open mappings after mapped restore = %v, want >= %v", v1, v0+2)
		}
	} else if v1 != v0 {
		t.Fatalf("open mappings moved (%v -> %v) without mmap support", v0, v1)
	}
}

// TestMetricsRegimeSwitchCounter pins the hybrid handoff counter: a job
// run to convergence under the default hybrid engine crosses into the
// frontier regime exactly once, and restoring the job on reboot must not
// count it again.
func TestMetricsRegimeSwitchCounter(t *testing.T) {
	st := newTestStore(t)
	s := newTestServer(t, st)
	ts := httptest.NewServer(s.handler())

	inst := testInstance(t, 200, 0.3)
	inst.UntilStable = true
	inst.MaxSweeps = 12
	resp := postJSON(t, ts.URL+"/v1/jobs", inst)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job settled as %q", v.Status)
	}
	after := scrapeMetrics(t, ts.URL)
	if got := after[`reconcile_engine_regime_switches_total`]; got != 1 {
		t.Fatalf("regime switches after convergence = %v, want 1", got)
	}
	ts.Close()

	// Reboot from the store: the restored job is already past the handoff,
	// so the fresh server's counter must stay at zero.
	ts2 := httptest.NewServer(newTestServer(t, st).handler())
	defer ts2.Close()
	rebooted := scrapeMetrics(t, ts2.URL)
	if got := rebooted[`reconcile_engine_regime_switches_total`]; got != 0 {
		t.Fatalf("regime switches after restore = %v, want 0", got)
	}
}
