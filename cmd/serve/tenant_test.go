package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// regWith builds a registry from configs, failing the test on error.
func regWith(t *testing.T, configs ...tenant.Config) *tenant.Registry {
	t.Helper()
	reg := tenant.NewRegistry()
	for _, c := range configs {
		if _, err := reg.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// newMTServer builds a multi-tenant server, failing the test if any
// persisted job was skipped during restore.
func newMTServer(t *testing.T, st *store, cfg serverConfig) *server {
	t.Helper()
	s, skipped := newServerWith(st, cfg)
	for _, err := range skipped {
		t.Errorf("restore skipped a job: %v", err)
	}
	return s
}

// doJSON performs an arbitrary-method request with an optional bearer
// token and JSON body.
func doJSON(t *testing.T, method, url, token string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// tenantBase returns the namespaced API root for a tenant.
func tenantBase(serverURL, name string) string {
	return serverURL + "/v1/tenants/" + name
}

// waitTenantJob polls a namespaced job until it leaves the running state.
func waitTenantJob(t *testing.T, base, token, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp := doJSON(t, "GET", fmt.Sprintf("%s/jobs/%s", base, id), token, nil)
		v := decode[jobView](t, resp)
		if v.Status != statusRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return jobView{}
}

// TestTenantNamespaceBackCompat pins the compatibility contract: the
// un-namespaced /v1/jobs routes and /v1/tenants/default/jobs are the same
// job table.
func TestTenantNamespaceBackCompat(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	req := testInstance(t, 200, 0.3)
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	waitForJob(t, ts.URL, id)

	// The same job is visible through the default tenant's namespace…
	v := decode[jobView](t, doJSON(t, "GET", tenantBase(ts.URL, "default")+"/jobs/"+id, "", nil))
	if v.ID != id || v.Status != statusDone {
		t.Fatalf("namespaced view = %+v", v)
	}
	// …and a namespaced submission shows up in the un-namespaced listing.
	resp = doJSON(t, "POST", tenantBase(ts.URL, "default")+"/jobs", "", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST namespaced: status %d", resp.StatusCode)
	}
	id2 := decode[map[string]string](t, resp)["id"]
	waitForJob(t, ts.URL, id2)
	list := decode[map[string][]jobView](t, doJSON(t, "GET", ts.URL+"/v1/jobs", "", nil))
	if len(list["jobs"]) != 2 {
		t.Fatalf("un-namespaced listing has %d jobs, want 2", len(list["jobs"]))
	}
}

// TestTenantAuth covers the auth matrix: 404 unknown tenant, 401 missing
// token, 403 wrong token, 202 right token — and the same for the admin
// surface.
func TestTenantAuth(t *testing.T) {
	reg := regWith(t, tenant.Config{Name: "acme", Token: "s3cret"})
	s := newMTServer(t, nil, serverConfig{registry: reg, adminToken: "root"})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := testInstance(t, 100, 0.3)
	cases := []struct {
		name, url, token string
		want             int
	}{
		{"unknown tenant", tenantBase(ts.URL, "ghost") + "/jobs", "", http.StatusNotFound},
		{"missing token", tenantBase(ts.URL, "acme") + "/jobs", "", http.StatusUnauthorized},
		{"wrong token", tenantBase(ts.URL, "acme") + "/jobs", "nope", http.StatusForbidden},
		{"right token", tenantBase(ts.URL, "acme") + "/jobs", "s3cret", http.StatusAccepted},
	}
	for _, c := range cases {
		resp := doJSON(t, "POST", c.url, c.token, req)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// The auth wall covers reads too, not just submissions.
	resp := doJSON(t, "GET", tenantBase(ts.URL, "acme")+"/jobs", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated list: status %d, want 401", resp.StatusCode)
	}

	// Admin surface.
	for _, c := range []struct {
		token string
		want  int
	}{{"", http.StatusUnauthorized}, {"nope", http.StatusForbidden}, {"root", http.StatusOK}} {
		resp := doJSON(t, "GET", ts.URL+"/v1/admin/tenants", c.token, nil)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("admin with token %q: status %d, want %d", c.token, resp.StatusCode, c.want)
		}
	}

	// The default tenant stays open: pre-tenancy clients send no token.
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("open default tenant: status %d", resp.StatusCode)
	}
}

// TestTenantIsolation: tenants cannot see or touch each other's jobs.
func TestTenantIsolation(t *testing.T) {
	reg := regWith(t, tenant.Config{Name: "a"}, tenant.Config{Name: "b"})
	s := newMTServer(t, nil, serverConfig{registry: reg})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := testInstance(t, 150, 0.3)
	resp := doJSON(t, "POST", tenantBase(ts.URL, "a")+"/jobs", "", req)
	id := decode[map[string]string](t, resp)["id"]
	waitTenantJob(t, tenantBase(ts.URL, "a"), "", id)

	for _, probe := range []struct{ method, url string }{
		{"GET", tenantBase(ts.URL, "b") + "/jobs/" + id},
		{"DELETE", tenantBase(ts.URL, "b") + "/jobs/" + id},
		{"POST", tenantBase(ts.URL, "b") + "/jobs/" + id + "/cancel"},
		{"GET", ts.URL + "/v1/jobs/" + id}, // default tenant can't see it either
	} {
		resp := doJSON(t, probe.method, probe.url, "", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.url, resp.StatusCode)
		}
	}
	list := decode[map[string][]jobView](t, doJSON(t, "GET", tenantBase(ts.URL, "b")+"/jobs", "", nil))
	if len(list["jobs"]) != 0 {
		t.Fatalf("tenant b lists %d jobs, want 0", len(list["jobs"]))
	}
}

// TestTenantQuotaJobsAndNodes covers 429 admission refusals on the
// concurrent-run and graph-node quotas, and that finishing/deleting
// releases them.
func TestTenantQuotaJobsAndNodes(t *testing.T) {
	reg := regWith(t,
		tenant.Config{Name: "jobsq", Quotas: tenant.Quotas{MaxJobs: 2}},
		tenant.Config{Name: "nodesq", Quotas: tenant.Quotas{MaxNodes: 700}},
	)
	s := newMTServer(t, nil, serverConfig{registry: reg})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Concurrent-run quota. Jobs on these instances finish in milliseconds,
	// so deterministically saturate the tenant's two run slots through the
	// same counters a long-running job would hold, then probe the API.
	jt := reg.Get("jobsq")
	for i := 0; i < 2; i++ {
		if err := jt.AcquireJob(); err != nil {
			t.Fatal(err)
		}
	}
	base := tenantBase(ts.URL, "jobsq")
	resp := doJSON(t, "POST", base+"/jobs", "", testInstance(t, 100, 0.3))
	refusal := decode[map[string]string](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job over the concurrent-run quota: status %d, want 429 (%v)", resp.StatusCode, refusal)
	}
	if !strings.Contains(refusal["error"], "jobs quota") {
		t.Fatalf("429 body = %v", refusal)
	}
	// Slots released: admission works again (and the finished run hands
	// its own slot back, leaving room for the next one too).
	jt.ReleaseJob()
	jt.ReleaseJob()
	resp = doJSON(t, "POST", base+"/jobs", "", testInstance(t, 100, 0.3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job after quota release: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	waitTenantJob(t, base, "", id)
	if active, _ := jt.Usage(); active != 0 {
		t.Fatalf("finished run left %d active-job slots held", active)
	}

	// Node quota: one 300+300-node job fits in 700, a second does not;
	// deleting the first frees the budget.
	small := testInstance(t, 300, 0.3)
	nbase := tenantBase(ts.URL, "nodesq")
	resp = doJSON(t, "POST", nbase+"/jobs", "", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first nodes job: status %d", resp.StatusCode)
	}
	nid := decode[map[string]string](t, resp)["id"]
	waitTenantJob(t, nbase, "", nid)
	resp = doJSON(t, "POST", nbase+"/jobs", "", small)
	refusal = decode[map[string]string](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(refusal["error"], "nodes quota") {
		t.Fatalf("over-node job: status %d body %v", resp.StatusCode, refusal)
	}
	resp = doJSON(t, "DELETE", nbase+"/jobs/"+nid, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", nbase+"/jobs", "", small)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("nodes job after delete: status %d", resp.StatusCode)
	}
}

// TestTenantQuotaBeforeAllocation: a submission is validated, then
// admitted, and only then are its graphs built. A body of a few dozen
// bytes claiming 2,000,000 nodes per side is refused with 429 without
// allocating them, and a body that earns a 400 earns it from an over-quota
// tenant too.
func TestTenantQuotaBeforeAllocation(t *testing.T) {
	reg := regWith(t, tenant.Config{Name: "tiny", Quotas: tenant.Quotas{MaxNodes: 100}})
	h := newMTServer(t, nil, serverConfig{registry: reg}).handler()
	post := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/tenants/tiny/jobs", strings.NewReader(body)))
		return rr
	}
	const graphs = `"g1":{"nodes":2000000,"edges":[]},"g2":{"nodes":2000000,"edges":[]}`

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rr := post(`{` + graphs + `}`)
	runtime.ReadMemStats(&after)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota body: status %d, want 429 (%s)", rr.Code, rr.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("refusing the over-quota body allocated %d bytes, want under 4 MB", alloc)
	}

	for _, body := range []string{
		`{"g1":{"nodes":2000000,"edges":[[0,2000000]]},"g2":{"nodes":2000000,"edges":[]}}`,
		`{` + graphs + `,"seeds":[[0,0],[0,1]]}`,
		`{` + graphs + `,"options":{"threshold":0}}`,
	} {
		if rr := post(body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s to an over-quota tenant: status %d, want 400 (%s)", body, rr.Code, rr.Body)
		}
	}
}

// TestTenantQuotaCheckpointBytes: a tenant at its durable-byte budget
// cannot admit new jobs until a DELETE frees the bytes.
func TestTenantQuotaCheckpointBytes(t *testing.T) {
	reg := regWith(t, tenant.Config{Name: "acme", Quotas: tenant.Quotas{MaxCheckpointBytes: 1}})
	st := newTestStore(t)
	s := newMTServer(t, st, serverConfig{registry: reg})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	base := tenantBase(ts.URL, "acme")

	req := testInstance(t, 200, 0.3)
	resp := doJSON(t, "POST", base+"/jobs", "", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job (zero bytes used): status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	waitTenantJob(t, base, "", id)
	if got := st.tenant("acme").checkpointBytes(); got <= 0 {
		t.Fatalf("tenant byte accounting = %d after a durable job", got)
	}

	// Over budget now: the next submission is refused.
	resp = doJSON(t, "POST", base+"/jobs", "", req)
	refusal := decode[map[string]string](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(refusal["error"], "checkpointBytes") {
		t.Fatalf("over-byte job: status %d body %v", resp.StatusCode, refusal)
	}

	// DELETE purges the records and frees the budget.
	resp = doJSON(t, "DELETE", base+"/jobs/"+id, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if got := st.tenant("acme").checkpointBytes(); got != 0 {
		t.Fatalf("tenant still accounts %d bytes after delete", got)
	}
	resp = doJSON(t, "POST", base+"/jobs", "", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job after delete: status %d", resp.StatusCode)
	}
	// Wait it out: its run goroutine checkpoints into the test TempDir.
	waitTenantJob(t, base, "", decode[map[string]string](t, resp)["id"])
}

// TestTenantDeleteJob: DELETE cancels a running job, purges every durable
// record, and the id answers 404 afterwards — also across a restart.
func TestTenantDeleteJob(t *testing.T) {
	st := newTestStore(t)
	ts := httptest.NewServer(newTestServer(t, st).handler())

	req := testInstance(t, 1500, 0.1)
	req.UntilStable = true
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	id := decode[map[string]string](t, resp)["id"]

	// Delete while (most likely still) running: cancel + purge in one call.
	resp = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: status %d", resp.StatusCode)
	}
	decode[map[string]any](t, resp)
	resp = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d, want 404", resp.StatusCode)
	}
	resp = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", resp.StatusCode)
	}
	// No trace on disk.
	js := st.jobStore(id)
	if n := len(js.listChain()); n != 0 {
		t.Fatalf("%d chain records survive the delete", n)
	}
	for _, suffix := range []string{".g1", ".g2", ".meta.json"} {
		if _, err := os.Stat(js.path(suffix)); !os.IsNotExist(err) {
			t.Fatalf("%s survives the delete (err=%v)", suffix, err)
		}
	}
	ts.Close()

	// A restart does not resurrect it.
	ts2 := httptest.NewServer(newTestServer(t, st).handler())
	defer ts2.Close()
	resp = doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id, "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job came back after restart: status %d", resp.StatusCode)
	}
}

// TestTenantFairness is the contention pin: a greedy tenant saturating its
// concurrent-job quota cannot starve a second tenant — the small tenant's
// job is granted after at most one slot release (bounded wait through the
// weighted-fair scheduler), ahead of the greedy backlog that queued first.
//
// Contention is held open deterministically: two slots are occupied
// directly on the scheduler (standing in for heavy runs mid-sweep, which
// hold their slot for the whole run), so the greedy tenant's HTTP jobs are
// pinned in the queue however fast the instances solve.
func TestTenantFairness(t *testing.T) {
	reg := regWith(t,
		tenant.Config{Name: "greedy", Quotas: tenant.Quotas{MaxJobs: 4}},
		tenant.Config{Name: "small"},
	)
	s := newMTServer(t, nil, serverConfig{registry: reg, runSlots: 2})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	releaseHeavy1, err := s.sched.Acquire(t.Context(), "greedy")
	if err != nil {
		t.Fatal(err)
	}
	releaseHeavy2, err := s.sched.Acquire(t.Context(), "greedy")
	if err != nil {
		t.Fatal(err)
	}

	// Greedy saturates its job quota: four submissions queue behind its
	// own slot-hogging runs…
	heavy := testInstance(t, 1000, 0.1)
	gbase := tenantBase(ts.URL, "greedy")
	var greedyIDs []string
	for i := 0; i < 4; i++ {
		resp := doJSON(t, "POST", gbase+"/jobs", "", heavy)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("greedy job %d: status %d", i, resp.StatusCode)
		}
		greedyIDs = append(greedyIDs, decode[map[string]string](t, resp)["id"])
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.sched.Queued("greedy") != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.sched.Queued("greedy"); got != 4 {
		t.Fatalf("greedy queued runs = %d, want 4", got)
	}
	// …and its fifth bounces off the quota with 429.
	resp := doJSON(t, "POST", gbase+"/jobs", "", heavy)
	refusal := decode[map[string]string](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(refusal["error"], "jobs quota") {
		t.Fatalf("greedy job over quota: status %d body %v, want 429", resp.StatusCode, refusal)
	}

	// The small tenant arrives last in every queue (its job is not tiny —
	// the tenant is small in queue presence, one run against six).
	sbase := tenantBase(ts.URL, "small")
	resp = doJSON(t, "POST", sbase+"/jobs", "", testInstance(t, 3000, 0.1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small job: status %d", resp.StatusCode)
	}
	smallID := decode[map[string]string](t, resp)["id"]
	for s.sched.Queued("small") != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Bounded wait: ONE release while greedy still holds a slot and has
	// four runs queued ahead of small — the freed slot must go to small.
	releaseHeavy1()
	for s.sched.InFlight("small") != 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	// While small runs, both slots are held (greedy's standing run + small),
	// so the greedy backlog must sit frozen at 4 queued runs: the one freed
	// slot went to the newcomer, not the four earlier greedy waiters. The
	// double-check of InFlight makes the read race-free (if the job already
	// finished on a very fast machine, the strict grant-order pin still
	// lives in internal/tenant's TestSchedulerBoundedWait).
	if q := s.sched.Queued("greedy"); s.sched.InFlight("small") == 1 && q != 4 {
		t.Fatalf("greedy queue = %d while small held the freed slot, want 4", q)
	}
	v := waitTenantJob(t, sbase, "", smallID)
	if v.Status != statusDone {
		t.Fatalf("small job: status %q (%s)", v.Status, v.Error)
	}

	// Cleanup: hand the slots back and let the greedy backlog drain.
	releaseHeavy2()
	for _, id := range greedyIDs {
		if v := waitTenantJob(t, gbase, "", id); v.Status != statusDone {
			t.Fatalf("greedy job %s: status %q (%s)", id, v.Status, v.Error)
		}
	}
}

// TestTenantChurn hammers a durable multi-tenant server with concurrent
// create/cancel/delete/poll churn across three tenants (the -race suite for
// the tenancy layer), then restarts it and checks the survivors.
func TestTenantChurn(t *testing.T) {
	reg := regWith(t,
		tenant.Config{Name: "a", Weight: 2},
		tenant.Config{Name: "b"},
		tenant.Config{Name: "c", Quotas: tenant.Quotas{MaxJobs: 8}},
	)
	st := newTestStore(t)
	s := newMTServer(t, st, serverConfig{registry: reg, runSlots: 4})
	ts := httptest.NewServer(s.handler())

	req := testInstance(t, 150, 0.25)
	names := []string{"a", "b", "c"}
	type slot struct {
		tenant, id string
		deleted    bool
	}
	var mu sync.Mutex
	var slots []slot
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			name := names[w%len(names)]
			base := tenantBase(ts.URL, name)
			for i := 0; i < 3; i++ {
				r := req
				r.UntilStable = rng.Intn(2) == 0
				resp := doJSON(t, "POST", base+"/jobs", "", r)
				if resp.StatusCode == http.StatusTooManyRequests {
					resp.Body.Close()
					continue
				}
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("worker %d: submit status %d", w, resp.StatusCode)
					resp.Body.Close()
					return
				}
				id := decode[map[string]string](t, resp)["id"]
				deleted := false
				for k := 0; k < 4; k++ {
					switch rng.Intn(4) {
					case 0:
						resp := doJSON(t, "GET", base+"/jobs/"+id, "", nil)
						resp.Body.Close()
					case 1:
						resp := doJSON(t, "POST", base+"/jobs/"+id+"/cancel", "", nil)
						resp.Body.Close()
					case 2:
						resp := doJSON(t, "POST", base+"/jobs/"+id+"/checkpoint", "", nil)
						resp.Body.Close()
					case 3:
						if !deleted && rng.Intn(2) == 0 {
							resp := doJSON(t, "DELETE", base+"/jobs/"+id, "", nil)
							if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
								t.Errorf("worker %d: delete status %d", w, resp.StatusCode)
							}
							resp.Body.Close()
							deleted = true
						}
					}
				}
				mu.Lock()
				slots = append(slots, slot{tenant: name, id: id, deleted: deleted})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Every surviving job reaches a terminal state; deleted ones are gone.
	want := map[string]jobView{}
	for _, sl := range slots {
		base := tenantBase(ts.URL, sl.tenant)
		if sl.deleted {
			resp := doJSON(t, "GET", base+"/jobs/"+sl.id, "", nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("deleted %s/%s: status %d, want 404", sl.tenant, sl.id, resp.StatusCode)
			}
			continue
		}
		v := waitTenantJob(t, base, "", sl.id)
		if v.Status != statusDone && v.Status != statusCancelled {
			t.Fatalf("%s/%s: status %q (%s)", sl.tenant, sl.id, v.Status, v.Error)
		}
		want[sl.tenant+"/"+sl.id] = v
	}
	ts.Close()

	// Restart over the same store: survivors identical, deletions durable,
	// and no tenant's active-run or node accounting leaks below zero
	// (admission keeps working).
	s2 := newMTServer(t, st, serverConfig{registry: regWith(t,
		tenant.Config{Name: "a", Weight: 2},
		tenant.Config{Name: "b"},
		tenant.Config{Name: "c", Quotas: tenant.Quotas{MaxJobs: 8}},
	), runSlots: 4})
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	for _, sl := range slots {
		base := tenantBase(ts2.URL, sl.tenant)
		resp := doJSON(t, "GET", base+"/jobs/"+sl.id, "", nil)
		if sl.deleted {
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("deleted %s/%s resurrected: status %d", sl.tenant, sl.id, resp.StatusCode)
			}
			continue
		}
		v := decode[jobView](t, resp)
		if v.Status != want[sl.tenant+"/"+sl.id].Status || v.Links != want[sl.tenant+"/"+sl.id].Links {
			t.Fatalf("%s/%s after restart: %q/%d links, want %q/%d",
				sl.tenant, sl.id, v.Status, v.Links, want[sl.tenant+"/"+sl.id].Status, want[sl.tenant+"/"+sl.id].Links)
		}
	}
	for _, name := range names {
		resp := doJSON(t, "POST", tenantBase(ts2.URL, name)+"/jobs", "", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("tenant %s admission after restart: status %d", name, resp.StatusCode)
		}
		id := decode[map[string]string](t, resp)["id"]
		waitTenantJob(t, tenantBase(ts2.URL, name), "", id)
	}
}

// TestTenantRecoveryAfterKill pins PR 3/4's headline guarantee per tenant:
// two tenants' jobs killed mid-run restore under their own roots as
// interrupted and resume bit-identically through the namespaced API.
func TestTenantRecoveryAfterKill(t *testing.T) {
	st := newTestStore(t)
	wants := map[string]*reconcile.Result{}
	for _, name := range []string{"acme", "beta"} {
		wants[name] = tenantChainVictim(t, st, name, "job-1", 6, 4)
	}
	reg := regWith(t, tenant.Config{Name: "acme", Token: "ta"}, tenant.Config{Name: "beta", Token: "tb"})
	s := newMTServer(t, st, serverConfig{registry: reg})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for name, token := range map[string]string{"acme": "ta", "beta": "tb"} {
		base := tenantBase(ts.URL, name)
		v := decode[jobView](t, doJSON(t, "GET", base+"/jobs/job-1", token, nil))
		if v.Status != statusInterrupted {
			t.Fatalf("tenant %s restored status = %q (%s), want interrupted", name, v.Status, v.Error)
		}
		resp := doJSON(t, "POST", base+"/jobs/job-1/resume", token, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("tenant %s resume: status %d", name, resp.StatusCode)
		}
		if done := waitTenantJob(t, base, token, "job-1"); done.Status != statusDone {
			t.Fatalf("tenant %s resumed: status %q (%s)", name, done.Status, done.Error)
		}
		got := decode[jobView](t, doJSON(t, "GET", base+"/jobs/job-1?pairs=1", token, nil))
		want := wants[name]
		wantPairs := make([][2]int, len(want.Pairs))
		for i, p := range want.Pairs {
			wantPairs[i] = [2]int{int(p.Left), int(p.Right)}
		}
		if fmt.Sprint(got.Pairs) != fmt.Sprint(wantPairs) {
			t.Fatalf("tenant %s: resumed matching not bit-identical to the uninterrupted run", name)
		}
	}
}

// tenantChainVictim is chainVictim under a named tenant's root: a job of
// `iterations` sweeps killed after `sweeps`, checkpointed at every sweep
// boundary, meta frozen mid-run. Returns the uninterrupted reference.
func tenantChainVictim(t *testing.T, st *store, tenantName, id string, iterations, sweeps int) *reconcile.Result {
	t.Helper()
	req := testInstance(t, 400, 0.15)
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	seeds := toPairs(req.Seeds)

	ref, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds), reconcile.WithIterations(iterations))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}

	js := st.tenant(tenantName).jobStore(id)
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	var phases []phaseJSON
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	var victim *reconcile.Reconciler
	victim, err = reconcile.New(g1, g2,
		reconcile.WithSeeds(seeds),
		reconcile.WithIterations(iterations),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			phases = append(phases, phaseJSON{
				Iteration: e.Iteration, Bucket: e.Bucket, Buckets: e.Buckets,
				MinDegree: e.MinDegree, Matched: e.Matched, Total: e.TotalLinks,
			})
			if e.Bucket == e.Buckets {
				meta := jobMeta{
					ID: id, Num: 1, Status: statusRunning,
					Seeds: victim.Result().Seeds,
				}
				if err := js.checkpoint(victim, meta); err != nil {
					t.Errorf("checkpoint at sweep %d: %v", e.Iteration, err)
				}
				if e.Iteration == sweeps {
					cancel()
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(ctx); err == nil {
		t.Fatal("victim ran to completion; wanted a mid-run kill")
	}
	return want
}

// TestMaxBodyBytes: oversized POST bodies are refused with 413 and the
// standard error JSON, on both the create and seeds paths.
func TestMaxBodyBytes(t *testing.T) {
	s := newMTServer(t, nil, serverConfig{registry: tenant.NewRegistry(), maxBodyBytes: 16 << 10})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	big := testInstance(t, 2000, 0.2) // hundreds of KiB once marshalled
	resp := postJSON(t, ts.URL+"/v1/jobs", big)
	body := decode[map[string]string](t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d, want 413", resp.StatusCode)
	}
	if body["error"] == "" {
		t.Fatalf("413 without the standard error JSON: %v", body)
	}

	small := testInstance(t, 40, 0.3) // a few KiB: fits
	resp = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small create under the limit: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	waitForJob(t, ts.URL, id)

	seeds := make([][2]int, 8000) // ~50 KiB of [0,0] pairs
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, id), map[string]any{"seeds": seeds})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized seeds: status %d, want 413", resp.StatusCode)
	}
}

// TestAdminTenantAPI: PUT registers and updates tenants at runtime, GET
// reports config plus live usage, and malformed updates are refused.
func TestAdminTenantAPI(t *testing.T) {
	st := newTestStore(t)
	s := newMTServer(t, st, serverConfig{registry: tenant.NewRegistry(), adminToken: "root"})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Register a tenant at runtime.
	resp := doJSON(t, "PUT", ts.URL+"/v1/admin/tenants/acme", "root",
		tenant.Config{Token: "sk-acme", Weight: 2, Quotas: tenant.Quotas{MaxJobs: 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT tenant: status %d", resp.StatusCode)
	}
	view := decode[tenantView](t, resp)
	if view.Name != "acme" || view.Auth != "token" || view.Weight != 2 || view.Quotas.MaxJobs != 3 {
		t.Fatalf("PUT response = %+v", view)
	}
	// Its store root exists immediately.
	if _, err := os.Stat(filepath.Join(st.root, "acme", "shard-00")); err != nil {
		t.Fatalf("tenant store root not created: %v", err)
	}

	// The new tenant serves namespaced, authenticated traffic.
	base := tenantBase(ts.URL, "acme")
	resp = doJSON(t, "POST", base+"/jobs", "sk-acme", testInstance(t, 150, 0.3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job as new tenant: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	waitTenantJob(t, base, "sk-acme", id)

	// GET reports it with usage.
	list := decode[map[string][]tenantView](t, doJSON(t, "GET", ts.URL+"/v1/admin/tenants", "root", nil))
	var acme *tenantView
	for i := range list["tenants"] {
		if list["tenants"][i].Name == "acme" {
			acme = &list["tenants"][i]
		}
	}
	if acme == nil {
		t.Fatalf("acme missing from admin listing: %+v", list)
	}
	if acme.Usage.Jobs != 1 || acme.Usage.Nodes != 300 || acme.Usage.CheckpointBytes <= 0 {
		t.Fatalf("acme usage = %+v", acme.Usage)
	}

	// Quota updates apply in place: shrink MaxJobs to 0-concurrent…
	resp = doJSON(t, "PUT", ts.URL+"/v1/admin/tenants/acme", "root",
		tenant.Config{Token: "sk-acme", Weight: 2, Quotas: tenant.Quotas{MaxJobs: -1}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative quota accepted: status %d", resp.StatusCode)
	}

	// Malformed: body/path mismatch and invalid names.
	resp = doJSON(t, "PUT", ts.URL+"/v1/admin/tenants/acme", "root", tenant.Config{Name: "other"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("name mismatch accepted: status %d", resp.StatusCode)
	}
	resp = doJSON(t, "PUT", ts.URL+"/v1/admin/tenants/shard-00", "root", tenant.Config{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved name accepted: status %d", resp.StatusCode)
	}
}

// TestServeGracefulShutdown: shutdown cancels running jobs and writes
// final checkpoints, so a restart re-lists them as cancelled (not
// interrupted) at their exact stop point, and resume finishes
// bit-identically to an uninterrupted run.
func TestServeGracefulShutdown(t *testing.T) {
	st := newTestStore(t)
	s := newMTServer(t, st, serverConfig{registry: tenant.NewRegistry()})
	ts := httptest.NewServer(s.handler())

	req := testInstance(t, 3000, 0.05)
	req.UntilStable = true
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]

	// The uninterrupted reference for the bit-identity check.
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	ref, err := reconcile.New(g1, g2, reconcile.WithSeeds(toPairs(req.Seeds)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunUntilStable(t.Context(), 50)
	if err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	if err := s.shutdown(dctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stopped := decode[jobView](t, doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", nil))
	ts.Close()
	if stopped.Status != statusCancelled && stopped.Status != statusDone {
		t.Fatalf("after shutdown: status %q (%s)", stopped.Status, stopped.Error)
	}

	// Restart: the drained job must NOT be "interrupted" — its final
	// checkpoint (state + terminal meta) made the stop graceful.
	ts2 := httptest.NewServer(newTestServer(t, st).handler())
	defer ts2.Close()
	v := decode[jobView](t, doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id, "", nil))
	if v.Status != stopped.Status {
		t.Fatalf("restart status %q, want %q (graceful shutdown must not look like a crash)", v.Status, stopped.Status)
	}
	if v.Status == statusCancelled {
		resp := doJSON(t, "POST", ts2.URL+"/v1/jobs/"+id+"/resume", "", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("resume: status %d", resp.StatusCode)
		}
		if done := waitForJob(t, ts2.URL, id); done.Status != statusDone {
			t.Fatalf("resumed: status %q (%s)", done.Status, done.Error)
		}
	}
	got := jobPairs(t, ts2.URL, id)
	wantPairs := make([][2]int, len(want.Pairs))
	for i, p := range want.Pairs {
		wantPairs[i] = [2]int{int(p.Left), int(p.Right)}
	}
	if fmt.Sprint(got.Pairs) != fmt.Sprint(wantPairs) {
		t.Fatal("post-shutdown resume is not bit-identical to the uninterrupted run")
	}
}
