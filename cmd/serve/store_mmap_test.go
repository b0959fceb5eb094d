package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/sociograph/reconcile"
)

// TestStoreMappedRestartLifecycle pins the mapping lifetime across a
// restart: graphs the server wrote in the mappable format come back as
// live mappings, seed ingestion runs over the mapped arrays (pinned for the
// run's duration), and DELETE waits out the run, purges the files and
// closes the mapping — after which access fails cleanly.
func TestStoreMappedRestartLifecycle(t *testing.T) {
	t.Run("r1/mmap", func(t *testing.T) {
		mappedRestartLifecycle(t, newChainStore(t, testStoreConfig))
	})
}

func mappedRestartLifecycle(t *testing.T, st *store) {
	ts := httptest.NewServer(newTestServer(t, st).handler())
	resp := postJSON(t, ts.URL+"/v1/jobs", testInstance(t, 400, 0.15))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	first := waitForJob(t, ts.URL, "job-1")
	if first.Status != statusDone {
		t.Fatalf("job: status %q (%s)", first.Status, first.Error)
	}
	firstPairs := jobPairs(t, ts.URL, "job-1").Pairs
	ts.Close()

	// "Restart": a fresh server over the same store loads the graphs
	// through the mapping path.
	s2 := newTestServer(t, st)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	j := s2.jobs["job-1"]
	if j == nil {
		t.Fatal("job not restored")
	}
	if j.mg1 == nil || j.mg2 == nil {
		t.Fatal("restored job holds no mapping handles")
	}
	if j.mg1.Mapped() != reconcile.MmapSupported {
		t.Fatalf("Mapped() = %v, want %v", j.mg1.Mapped(), reconcile.MmapSupported)
	}
	restored := jobPairs(t, ts2.URL, "job-1")
	if restored.Status != statusDone {
		t.Fatalf("restored job: status %q (%s)", restored.Status, restored.Error)
	}
	if len(restored.Pairs) != len(firstPairs) {
		t.Fatalf("restored job has %d pairs, want %d", len(restored.Pairs), len(firstPairs))
	}

	// A run over the mapped graphs: ingest one fresh seed and sweep.
	var seed [2]int
	used := map[int]bool{}
	usedR := map[int]bool{}
	for _, p := range restored.Pairs {
		used[p[0]] = true
		usedR[p[1]] = true
	}
	for v := 0; v < j.n1; v++ {
		if !used[v] && !usedR[v] {
			seed = [2]int{v, v}
			break
		}
	}
	resp = postJSON(t, ts2.URL+"/v1/jobs/job-1/seeds", map[string]any{"seeds": [][2]int{seed}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST seeds: status %d", resp.StatusCode)
	}
	if v := waitForJob(t, ts2.URL, "job-1"); v.Status != statusDone {
		t.Fatalf("post-seed run: status %q (%s)", v.Status, v.Error)
	}

	// DELETE tears the whole job down: durable files, then the mappings.
	req, err := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/jobs/job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if _, err := j.mg1.Acquire(); !errors.Is(err, reconcile.ErrGraphClosed) {
		t.Fatalf("Acquire after DELETE: err = %v, want ErrGraphClosed", err)
	}
	if _, err := os.Stat(j.js.path(".g1")); !os.IsNotExist(err) {
		t.Fatalf("graph file survives DELETE: err = %v", err)
	}
	// Shutdown-path close is idempotent over the already-closed job.
	s2.closeMappings()
}

// TestStoreMmapFormatInterop pins the two graph formats a job's files may
// hold. A job whose graph files are in the binary format, as servers that
// decoded graphs onto the heap wrote them, restores heap-backed through
// OpenGraphMapped's binary branch with its exact pairs (legacy-then-mmap);
// the mappable files the server writes read back through ReadGraphBinary
// as the job's graphs (mmap-then-legacy).
func TestStoreMmapFormatInterop(t *testing.T) {
	submit := func(t *testing.T, st *store) (*server, [][2]int) {
		t.Helper()
		s := newTestServer(t, st)
		ts := httptest.NewServer(s.handler())
		defer ts.Close()
		resp := postJSON(t, ts.URL+"/v1/jobs", testInstance(t, 300, 0.15))
		resp.Body.Close()
		if v := waitForJob(t, ts.URL, "job-1"); v.Status != statusDone {
			t.Fatalf("job: status %q (%s)", v.Status, v.Error)
		}
		s.jobs["job-1"].pending.Wait() // the terminal checkpoint is on disk
		return s, jobPairs(t, ts.URL, "job-1").Pairs
	}
	t.Run("legacy-then-mmap", func(t *testing.T) {
		st := newChainStore(t, testStoreConfig)
		s, want := submit(t, st)
		j := s.jobs["job-1"]
		g1, g2 := j.rec.Graphs()
		if err := writeGraphs(j.js, true, g1, g2); err != nil {
			t.Fatal(err)
		}
		s2 := newTestServer(t, st)
		ts2 := httptest.NewServer(s2.handler())
		defer ts2.Close()
		if j := s2.jobs["job-1"]; j == nil || j.mg1 == nil || j.mg1.Mapped() || j.mg2.Mapped() {
			t.Fatal("binary-format graphs did not restore heap-backed behind the mapping API")
		}
		got := jobPairs(t, ts2.URL, "job-1")
		if got.Status != statusDone || fmt.Sprint(got.Pairs) != fmt.Sprint(want) {
			t.Fatalf("heap-backed restore: status %q, %d pairs; want done and the job's %d pairs", got.Status, len(got.Pairs), len(want))
		}
	})
	t.Run("mmap-then-legacy", func(t *testing.T) {
		st := newChainStore(t, testStoreConfig)
		s, _ := submit(t, st)
		j := s.jobs["job-1"]
		g1, g2 := j.rec.Graphs()
		for _, f := range []struct {
			suffix string
			g      *reconcile.Graph
		}{{".g1", g1}, {".g2", g2}} {
			file, err := os.Open(j.js.path(f.suffix))
			if err != nil {
				t.Fatal(err)
			}
			back, err := reconcile.ReadGraphBinary(file)
			file.Close()
			if err != nil {
				t.Fatalf("%s: %v", f.suffix, err)
			}
			var got, want bytes.Buffer
			if err := reconcile.WriteGraphBinary(&got, back); err != nil {
				t.Fatal(err)
			}
			if err := reconcile.WriteGraphBinary(&want, f.g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s reads back as another graph", f.suffix)
			}
		}
	})
}
