package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/sociograph/reconcile"
)

// testStoreConfig keeps the chain short so the existing suites exercise
// full→delta→delta chains, retention and multi-shard layouts as a matter of
// course.
var testStoreConfig = storeConfig{shards: 3, fullEvery: 3, keep: 2}

func newTestStore(t *testing.T) *store {
	t.Helper()
	st, err := newStore(t.TempDir(), testStoreConfig)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// jobPairs fetches a job's link list.
func jobPairs(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?pairs=1", base, id))
	if err != nil {
		t.Fatal(err)
	}
	return decode[jobView](t, resp)
}

// TestServeDurableRestart runs jobs to completion, "crashes" the server
// (builds a fresh one over the same data dir), and requires every job to be
// re-listed with its terminal status and its exact link list.
func TestServeDurableRestart(t *testing.T) {
	st := newTestStore(t)
	ts := httptest.NewServer(newTestServer(t, st).handler())

	req := testInstance(t, 500, 0.15)
	var ids []string
	var want []jobView
	for i := 0; i < 3; i++ {
		req.UntilStable = i%2 == 1
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
		}
		ids = append(ids, decode[map[string]string](t, resp)["id"])
	}
	for _, id := range ids {
		v := waitForJob(t, ts.URL, id)
		if v.Status != statusDone {
			t.Fatalf("job %s: status %q (%s)", id, v.Status, v.Error)
		}
		want = append(want, jobPairs(t, ts.URL, id))
	}
	ts.Close()

	// "Crash": nothing is shut down gracefully; a new server reads the dir.
	ts2 := httptest.NewServer(newTestServer(t, st).handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]jobView](t, resp)
	if len(list["jobs"]) != len(ids) {
		t.Fatalf("restart lists %d jobs, want %d", len(list["jobs"]), len(ids))
	}
	for i, id := range ids {
		v := jobPairs(t, ts2.URL, id)
		if v.Status != statusDone {
			t.Fatalf("job %s after restart: status %q", id, v.Status)
		}
		if v.Links != want[i].Links || v.Seeds != want[i].Seeds || len(v.Phases) != len(want[i].Phases) {
			t.Fatalf("job %s after restart: links/seeds/phases %d/%d/%d, want %d/%d/%d",
				id, v.Links, v.Seeds, len(v.Phases), want[i].Links, want[i].Seeds, len(want[i].Phases))
		}
		if fmt.Sprint(v.Pairs) != fmt.Sprint(want[i].Pairs) {
			t.Fatalf("job %s after restart: pair list changed", id)
		}
	}

	// New submissions continue the ID sequence instead of colliding.
	resp = postJSON(t, ts2.URL+"/v1/jobs", req)
	newID := decode[map[string]string](t, resp)["id"]
	for _, id := range ids {
		if newID == id {
			t.Fatalf("post-restart job reused id %s", id)
		}
	}
	if v := waitForJob(t, ts2.URL, newID); v.Status != statusDone {
		t.Fatalf("post-restart job: status %q", v.Status)
	}
}

// TestServeInterruptedResume simulates a crash mid-run deterministically: a
// job's files are crafted from a Reconciler killed at a bucket boundary and
// a meta that still says "running". Boot must surface it as interrupted, and
// resume must finish it bit-identically to a never-interrupted run.
func TestServeInterruptedResume(t *testing.T) {
	st := newTestStore(t)
	req := testInstance(t, 500, 0.15)
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	seeds := toPairs(req.Seeds)

	// The uninterrupted reference.
	ref, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The victim: killed at the third bucket boundary, checkpointed exactly
	// as the progress hook would have left it, meta frozen mid-run.
	var phases []phaseJSON
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victim, err := reconcile.New(g1, g2,
		reconcile.WithSeeds(seeds),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			phases = append(phases, phaseJSON{
				Iteration: e.Iteration, Bucket: e.Bucket, Buckets: e.Buckets,
				MinDegree: e.MinDegree, Matched: e.Matched, Total: e.TotalLinks,
			})
			if len(phases) == 3 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim err = %v, want cancellation", err)
	}
	js := st.jobStore("job-1")
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	meta := jobMeta{
		ID: "job-1", Num: 1, Status: statusRunning,
		Seeds: victim.Result().Seeds, MaxSweeps: 50,
	}
	if err := js.checkpoint(victim, meta); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(newTestServer(t, st).handler())
	defer ts.Close()

	v := jobPairs(t, ts.URL, "job-1")
	if v.Status != statusInterrupted {
		t.Fatalf("restored status = %q, want interrupted", v.Status)
	}
	if len(v.Phases) != 3 {
		t.Fatalf("restored phases = %d, want 3", len(v.Phases))
	}

	resp := postJSON(t, ts.URL+"/v1/jobs/job-1/resume", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST resume: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	done := waitForJob(t, ts.URL, "job-1")
	if done.Status != statusDone {
		t.Fatalf("resumed job: status %q (%s)", done.Status, done.Error)
	}
	got := jobPairs(t, ts.URL, "job-1")
	if got.Links != len(want.Pairs) {
		t.Fatalf("resumed job found %d links, uninterrupted run %d", got.Links, len(want.Pairs))
	}
	wantPairs := make([][2]int, len(want.Pairs))
	for i, p := range want.Pairs {
		wantPairs[i] = [2]int{int(p.Left), int(p.Right)}
	}
	if fmt.Sprint(got.Pairs) != fmt.Sprint(wantPairs) {
		t.Fatal("resumed job's matching is not bit-identical to the uninterrupted run")
	}
	// Phase logs agree too: the resumed sweep replays bucket for bucket.
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("resumed job ran %d phases, uninterrupted run %d", len(got.Phases), len(want.Phases))
	}

	// A second resume of the now-done job is refused.
	resp = postJSON(t, ts.URL+"/v1/jobs/job-1/resume", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume of done job: status %d, want 409", resp.StatusCode)
	}
}

// TestServeCheckpointEndpoint covers the explicit checkpoint API.
func TestServeCheckpointEndpoint(t *testing.T) {
	// Without a store the endpoint is a clear refusal, not a silent no-op.
	ts := httptest.NewServer(newTestServer(t, nil).handler())
	req := testInstance(t, 120, 0.3)
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	id := decode[map[string]string](t, resp)["id"]
	waitForJob(t, ts.URL, id)
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/checkpoint", ts.URL, id), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir: status %d, want 409", resp.StatusCode)
	}
	ts.Close()

	st := newTestStore(t)
	ts = httptest.NewServer(newTestServer(t, st).handler())
	defer ts.Close()
	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	id = decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job status %q", v.Status)
	}
	resp = postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/checkpoint", ts.URL, id), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint of idle job: status %d, want 200", resp.StatusCode)
	}
	js := st.jobStore(id) // same hash placement as the server's handle
	if len(js.listChain()) == 0 {
		t.Fatal("no chain records after checkpoint")
	}

	// The checkpoint chain restores into the same matching out-of-band.
	p := jobPairs(t, ts.URL, id)
	state, dropped, err := js.recoverState()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("recovery dropped %d records from an intact chain", dropped)
	}
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	rec, err := reconcile.RestoreSessionState(g1, g2, state)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != p.Links {
		t.Fatalf("restored checkpoint has %d links, job reports %d", rec.Len(), p.Links)
	}
}

// TestServeStoreStress hammers a durable server concurrently — submissions,
// polls, checkpoints, incremental seeds and cancels in parallel — then
// restarts it and requires every job to come back readable and resumable.
// Run under -race (CI does), this is the store's data-race suite.
func TestServeStoreStress(t *testing.T) {
	st := newTestStore(t)
	ts := httptest.NewServer(newTestServer(t, st).handler())

	const workers = 4
	const jobsPerWorker = 3
	req := testInstance(t, 150, 0.25)

	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < jobsPerWorker; i++ {
				r := req
				r.UntilStable = rng.Intn(2) == 0
				body, err := json.Marshal(r)
				if err != nil {
					t.Errorf("worker %d: marshal: %v", w, err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("worker %d: submit: %v", w, err)
					return
				}
				var created map[string]string
				err = json.NewDecoder(resp.Body).Decode(&created)
				resp.Body.Close()
				if err != nil {
					t.Errorf("worker %d: decode: %v", w, err)
					return
				}
				id := created["id"]
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
				// Poke the job while it runs.
				for k := 0; k < 4; k++ {
					switch rng.Intn(3) {
					case 0:
						resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, id))
						if err == nil {
							resp.Body.Close()
						}
					case 1:
						resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%s/checkpoint", ts.URL, id), "application/json", nil)
						if err == nil {
							resp.Body.Close()
						}
					case 2:
						resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%s/cancel", ts.URL, id), "application/json", nil)
						if err == nil {
							resp.Body.Close()
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Everything reaches a terminal state.
	for _, id := range ids {
		v := waitForJob(t, ts.URL, id)
		if v.Status != statusDone && v.Status != statusCancelled {
			t.Fatalf("job %s: status %q (%s)", id, v.Status, v.Error)
		}
	}
	before := map[string]jobView{}
	for _, id := range ids {
		before[id] = jobPairs(t, ts.URL, id)
	}
	ts.Close()

	// Restart; all jobs re-listed with identical state, cancelled ones
	// resumable to completion.
	ts2 := httptest.NewServer(newTestServer(t, st).handler())
	defer ts2.Close()
	for _, id := range ids {
		v := jobPairs(t, ts2.URL, id)
		if v.Status != before[id].Status || v.Links != before[id].Links {
			t.Fatalf("job %s after restart: %q/%d links, want %q/%d",
				id, v.Status, v.Links, before[id].Status, before[id].Links)
		}
		if v.Status == statusCancelled {
			resp := postJSON(t, fmt.Sprintf("%s/v1/jobs/%s/resume", ts2.URL, id), nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("resume %s: status %d", id, resp.StatusCode)
			}
			if done := waitForJob(t, ts2.URL, id); done.Status != statusDone {
				t.Fatalf("resumed %s: status %q (%s)", id, done.Status, done.Error)
			}
		}
	}
}
