package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/graph"
)

// testInstance builds a reconciliation instance in wire form: a PA graph,
// two independent partial copies, and identity seeds.
func testInstance(t *testing.T, n int, seedFrac float64) jobRequest {
	t.Helper()
	r := reconcile.NewRand(71)
	world := reconcile.GeneratePA(r, n, 8)
	g1, g2 := reconcile.IndependentCopies(r, world, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(n), seedFrac)
	return wireInstance(g1, g2, seeds)
}

// wireInstance renders an instance as a job submission.
func wireInstance(g1, g2 *reconcile.Graph, seeds []reconcile.Pair) jobRequest {
	spec := func(g *reconcile.Graph) graphSpec {
		s := graphSpec{Nodes: g.NumNodes()}
		g.Edges(func(e reconcile.Edge) bool {
			s.Edges = append(s.Edges, [2]int{int(e.U), int(e.V)})
			return true
		})
		return s
	}
	req := jobRequest{G1: spec(g1), G2: spec(g2)}
	for _, p := range seeds {
		req.Seeds = append(req.Seeds, [2]int{int(p.Left), int(p.Right)})
	}
	return req
}

// newTestServer builds a server, failing the test if any persisted job was
// skipped during restore — tests never write jobs they cannot read back.
func newTestServer(t *testing.T, st *store) *server {
	t.Helper()
	s, skipped := newServer(st)
	for _, err := range skipped {
		t.Errorf("restore skipped a job: %v", err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitForJob polls GET /v1/jobs/{id} until the job leaves the running state.
func waitForJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		v := decode[jobView](t, resp)
		if v.Status != statusRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return jobView{}
}

func TestServeJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	// Submit a job.
	req := testInstance(t, 800, 0.15)
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	created := decode[map[string]string](t, resp)
	id := created["id"]
	if id == "" {
		t.Fatal("no job id in response")
	}

	// It finishes and reports per-bucket phase statistics.
	v := waitForJob(t, ts.URL, id)
	if v.Status != statusDone {
		t.Fatalf("status = %q (%s), want done", v.Status, v.Error)
	}
	if len(v.Phases) == 0 {
		t.Fatal("no phase statistics reported")
	}
	for _, ph := range v.Phases {
		if ph.Iteration < 1 || ph.Bucket < 1 || ph.Bucket > ph.Buckets || ph.MinDegree < 1 {
			t.Fatalf("malformed phase stat %+v", ph)
		}
	}
	if v.Seeds != len(req.Seeds) {
		t.Fatalf("seeds = %d, want %d", v.Seeds, len(req.Seeds))
	}
	if v.New <= 0 || v.Links != v.Seeds+v.New {
		t.Fatalf("links = %d, seeds = %d, new = %d: matcher found nothing", v.Links, v.Seeds, v.New)
	}

	// The HTTP result matches the in-process API on the same instance.
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(toPairs(req.Seeds)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if v.Links != len(want.Pairs) {
		t.Fatalf("HTTP run found %d links, in-process %d", v.Links, len(want.Pairs))
	}

	// ?pairs=1 returns the link list once stopped.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	withPairs := decode[jobView](t, resp)
	if len(withPairs.Pairs) != v.Links {
		t.Fatalf("pairs = %d, want %d", len(withPairs.Pairs), v.Links)
	}

	// Incremental seeds resume the job and never lose links.
	extra := [][2]int{}
	usedL := make(map[int]bool, len(withPairs.Pairs))
	usedR := make(map[int]bool, len(withPairs.Pairs))
	for _, p := range withPairs.Pairs {
		usedL[p[0]] = true
		usedR[p[1]] = true
	}
	for i := 0; i < req.G1.Nodes && len(extra) < 20; i++ {
		if !usedL[i] && !usedR[i] {
			extra = append(extra, [2]int{i, i})
		}
	}
	if len(extra) == 0 {
		t.Skip("matcher already identified every node; nothing to ingest")
	}
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, id), map[string]any{"seeds": extra})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST seeds: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	after := waitForJob(t, ts.URL, id)
	if after.Status != statusDone {
		t.Fatalf("after seeds: status %q (%s)", after.Status, after.Error)
	}
	if after.Links < v.Links+len(extra) {
		t.Fatalf("links after ingest = %d, want >= %d", after.Links, v.Links+len(extra))
	}

	// The job shows up in the listing.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]jobView](t, resp)
	if len(list["jobs"]) != 1 || list["jobs"][0].ID != id {
		t.Fatalf("listing = %+v", list)
	}
}

func TestServeCancel(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	req := testInstance(t, 2000, 0.1)
	req.UntilStable = true
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	created := decode[map[string]string](t, resp)

	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/cancel", ts.URL, created["id"]), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST cancel: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// The job must reach a terminal state promptly — cancelled if the signal
	// landed mid-run, done if the run won the race.
	v := waitForJob(t, ts.URL, created["id"])
	if v.Status != statusCancelled && v.Status != statusDone {
		t.Fatalf("status after cancel = %q", v.Status)
	}
}

func TestServeValidation(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}

	// Out-of-range edge.
	req := testInstance(t, 50, 0.2)
	req.G1.Edges = append(req.G1.Edges, [2]int{0, 99})
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range edge: status %d", resp.StatusCode)
	}

	// A node count the graph codecs could not read back, refused before
	// anything is built.
	req = testInstance(t, 50, 0.2)
	req.G2.Nodes = graph.MaxNodes + 1
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("node count above graph.MaxNodes: status %d", resp.StatusCode)
	}

	// A pair is exactly two integers, each checked against its node count
	// on the wire value: edge [2] must not read as (2, 0), edge [1, 2, 7]
	// as (1, 2), seed [4294967297, 1] as (1, 1) or seed [2] as (2, 0).
	valid, err := json.Marshal(testInstance(t, 50, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, at, pair string }{
		{"one-end edge", `"edges":[`, `[2]`},
		{"three-end edge", `"edges":[`, `[1,2,7]`},
		{"wrapping seed", `"seeds":[`, `[4294967297,1]`},
		{"one-end seed", `"seeds":[`, `[2]`},
	} {
		body := strings.Replace(string(valid), c.at, c.at+c.pair+",", 1)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.name, c.pair, resp.StatusCode)
		}
	}

	// Unknown job.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}

	// Conflicting incremental seed.
	req = testInstance(t, 200, 0.3)
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	created := decode[map[string]string](t, resp)
	v := waitForJob(t, ts.URL, created["id"])
	if v.Status != statusDone {
		t.Fatalf("setup job: status %q", v.Status)
	}
	bad := [][2]int{{int(req.Seeds[0][0]), int(req.Seeds[1][1])}} // left already linked elsewhere
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]), map[string]any{"seeds": bad})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting seed: status %d", resp.StatusCode)
	}

	// Seed batches are all-or-nothing: a valid seed ahead of a conflicting
	// one must not be committed when the batch is rejected.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, created["id"]))
	if err != nil {
		t.Fatal(err)
	}
	before := decode[jobView](t, resp)
	free := -1
	usedL := map[int]bool{}
	usedR := map[int]bool{}
	for _, p := range before.Pairs {
		usedL[p[0]] = true
		usedR[p[1]] = true
	}
	for i := 0; i < req.G1.Nodes; i++ {
		if !usedL[i] && !usedR[i] {
			free = i
			break
		}
	}
	if free < 0 {
		t.Skip("no unmatched node to build the batch from")
	}
	batch := [][2]int{{free, free}, bad[0]}
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]), map[string]any{"seeds": batch})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mixed batch: status %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, created["id"]))
	if err != nil {
		t.Fatal(err)
	}
	after := decode[jobView](t, resp)
	if after.Status != statusDone || len(after.Pairs) != len(before.Pairs) || after.Links != before.Links {
		t.Fatalf("rejected batch changed the job: %d -> %d pairs, links %d -> %d, status %q",
			len(before.Pairs), len(after.Pairs), before.Links, after.Links, after.Status)
	}

	// An out-of-range incremental seed is a 400, also without state change.
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]),
		map[string]any{"seeds": [][2]int{{free, req.G2.Nodes + 5}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range seed: status %d, want 400", resp.StatusCode)
	}

	// The pair rule holds on the seeds endpoint too.
	for _, pair := range []string{`[2]`, `[1,2,7]`, `[4294967297,1]`} {
		resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, created["id"]), "application/json",
			strings.NewReader(`{"seeds":[`+pair+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("seed %s: status %d, want 400", pair, resp.StatusCode)
		}
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, created["id"]))
	if err != nil {
		t.Fatal(err)
	}
	if final := decode[jobView](t, resp); final.Status != statusDone || final.Links != before.Links {
		t.Fatalf("refused seeds changed the job: links %d -> %d, status %q", before.Links, final.Links, final.Status)
	}
}

// TestServeEngineSelection pins that the options' "engine" key, which once
// chose among four engines, is ignored like any other unknown options key:
// a job under any value, or without the key, is accepted and finds the same
// links.
func TestServeEngineSelection(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()

	base, err := json.Marshal(testInstance(t, 400, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, engine := range []string{"", "hybrid", "frontier", "parallel", "sequential", "quantum"} {
		body := base
		if engine != "" {
			var req map[string]any
			if err := json.Unmarshal(base, &req); err != nil {
				t.Fatal(err)
			}
			req["options"] = map[string]any{"engine": engine}
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("engine %q: status %d", engine, resp.StatusCode)
		}
		created := decode[map[string]string](t, resp)
		v := waitForJob(t, ts.URL, created["id"])
		if v.Status != statusDone {
			t.Fatalf("engine %q: status %q (%s)", engine, v.Status, v.Error)
		}
		if v.New <= 0 {
			t.Fatalf("engine %q: matcher found nothing", engine)
		}
		counts[engine] = v.Links
	}
	for engine, n := range counts {
		if n != counts[""] {
			t.Fatalf("engine key %q changed the links: %v", engine, counts)
		}
	}
}

// TestWirePhasesCopiesNoPairs pins the wire phase log a GET builds from
// the view of the session's phase window that boot and the progress hook
// take: it equals the run's phase events, and building it allocates in
// proportion to the window and not to the job's matching.
func TestWirePhasesCopiesNoPairs(t *testing.T) {
	r := reconcile.NewRand(29)
	const n = 20_000
	g1, g2 := reconcile.IndependentCopies(r, reconcile.GeneratePA(r, n, 6), 0.7, 0.7)
	var events []phaseJSON
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(reconcile.Seeds(r, reconcile.IdentityPairs(n), 0.3)),
		reconcile.WithIterations(2),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			events = append(events, phaseJSON{
				Iteration: e.Iteration, Bucket: e.Bucket, Buckets: e.Buckets,
				MinDegree: e.MinDegree, Matched: e.Matched, Total: e.TotalLinks,
			})
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := rec.SnapshotState(&state); err != nil {
		t.Fatal(err)
	}
	restored, err := reconcile.RestoreState(g1, g2, &state)
	if err != nil {
		t.Fatal(err)
	}
	buckets := len(restored.Options().BucketSchedule(g1, g2))
	phases := len(restored.Result().Phases)
	if phases != len(events) || phases == 0 {
		t.Fatalf("restored job holds %d phase entries, want %d", phases, len(events))
	}
	if out := wirePhases(restored.Result().Phases, buckets); !reflect.DeepEqual(out, events) {
		t.Fatalf("wire log %v, want the run's phase events %v", out, events)
	}
	bound := uint64(phases)*uint64(unsafe.Sizeof(phaseJSON{})) + 1024
	if pairLog := uint64(restored.Len()) * uint64(unsafe.Sizeof(reconcile.Pair{})); pairLog < 4*bound {
		t.Fatalf("the %d-byte pair log is too small to tell a pair copy from the phase log (bound %d)", pairLog, bound)
	}
	var least uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := wirePhases(restored.Result().Phases, buckets)
		runtime.ReadMemStats(&after)
		if len(out) != phases {
			t.Fatalf("wire log has %d entries, want %d", len(out), phases)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; try == 0 || grew < least {
			least = grew
		}
	}
	if least > bound {
		t.Fatalf("building %d wire phases allocated %d bytes, want at most %d whatever the %d links", phases, least, bound, restored.Len())
	}
}

// TestSeedConflictAllocations pins that a seeds POST's conflict pre-check
// allocates for the batch's own seeds and not for the job's links.
func TestSeedConflictAllocations(t *testing.T) {
	const links, seeds = 30_000, 5
	var view, batch []reconcile.Pair
	for i := range links {
		view = append(view, reconcile.Pair{Left: reconcile.NodeID(i), Right: reconcile.NodeID(links - 1 - i)})
	}
	for i := range seeds {
		batch = append(batch, reconcile.Pair{Left: reconcile.NodeID(links + i), Right: reconcile.NodeID(links + i)})
	}
	var least uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := seedConflict(view, batch)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("a batch of unlinked nodes conflicts: %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; try == 0 || grew < least {
			least = grew
		}
	}
	if least > 4<<10 {
		t.Fatalf("checking %d seeds against %d links allocated %d bytes, want at most %d", seeds, links, least, 4<<10)
	}
	t.Logf("checking %d seeds against %d links allocated %d bytes", seeds, links, least)
	batch = append(batch, reconcile.Pair{Left: 7, Right: links - 1 - 7}, reconcile.Pair{Left: links + 9, Right: 3})
	want := fmt.Sprintf("seed (%d, 3): right node already linked to %d", links+9, links-1-3)
	if err := seedConflict(view, batch); err == nil || err.Error() != want {
		t.Fatalf("conflict = %v, want %q", err, want)
	}
}

// TestServePairsDuringSeedRestarts polls GET .../jobs/{id}?pairs=1 while
// seed POSTs restart the job. A served list is a view of the job's link log
// converted after j.mu is released, so a restarted run may append to the
// log during the conversion; it only ever appends past the view's length.
// Under -race this pins that the two never touch the same memory, and every
// served list must be a prefix of the final one.
func TestServePairsDuringSeedRestarts(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	defer ts.Close()
	// A sparse instance, so that every round finds true links to ingest.
	r := reconcile.NewRand(73)
	g1, g2 := reconcile.IndependentCopies(r, reconcile.GeneratePA(r, 2000, 3), 0.5, 0.5)
	req := wireInstance(g1, g2, reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.05))
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	url := fmt.Sprintf("%s/v1/jobs/%s?pairs=1", ts.URL, id)

	var (
		mu     sync.Mutex
		served [][][2]int
		stop   = make(chan struct{})
		wg     sync.WaitGroup
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				var v jobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if v.Pairs != nil {
					mu.Lock()
					served = append(served, v.Pairs)
					mu.Unlock()
				}
			}
		}()
	}

	restarts := 0
	for range 8 {
		v := waitForJob(t, ts.URL, id)
		if v.Status != statusDone {
			t.Fatalf("status %q (%s), want done", v.Status, v.Error)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		linked := decode[jobView](t, resp).Pairs
		usedL := make(map[int]bool, len(linked))
		usedR := make(map[int]bool, len(linked))
		for _, p := range linked {
			usedL[p[0]], usedR[p[1]] = true, true
		}
		var fresh [][2]int
		for i := 0; i < req.G1.Nodes && len(fresh) < 10; i++ {
			if !usedL[i] && !usedR[i] {
				fresh = append(fresh, [2]int{i, i})
			}
		}
		if len(fresh) == 0 {
			break
		}
		resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/seeds", ts.URL, id), map[string]any{"seeds": fresh})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST seeds: status %d", resp.StatusCode)
		}
		restarts++
	}
	final := waitForJob(t, ts.URL, id)
	close(stop)
	wg.Wait()
	if restarts < 2 {
		t.Fatalf("only %d seed restarts; the polls raced nothing", restarts)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	want := decode[jobView](t, resp).Pairs
	if len(want) != final.Links {
		t.Fatalf("final list holds %d pairs, the job %d links", len(want), final.Links)
	}
	if len(served) == 0 {
		t.Fatal("no poll saw a pair list")
	}
	for i, got := range served {
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("served list %d (%d pairs) is not a prefix of the final %d", i, len(got), len(want))
		}
	}
}
