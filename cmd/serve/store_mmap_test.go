package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"github.com/sociograph/reconcile"
)

// TestStoreMappedRestartLifecycle pins the -mmap lifetime across a restart:
// graphs written in the mappable format come back as live mappings, seed ingestion runs over the mapped
// arrays (pinned for the run's duration), and DELETE waits out the run,
// purges the files and closes the mapping — after which access fails
// cleanly.
func TestStoreMappedRestartLifecycle(t *testing.T) {
	for _, c := range chainConfigs {
		if !c.cfg.mmap {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			mappedRestartLifecycle(t, newChainStore(t, c.cfg))
		})
	}
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
		t.Fatal("restored job holds no mapping handles under -mmap")
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

// TestStoreMmapFormatInterop pins the migration contract: a store written
// without -mmap reads back with it (legacy graphs decode onto the heap
// behind the mapping API), and a store written with -mmap reads back
// without it (ReadGraphBinary sniffs the mappable container).
func TestStoreMmapFormatInterop(t *testing.T) {
	for _, dir := range []struct {
		name           string
		write, read    bool // cfg.mmap at write/read time
		wantMappedRead bool
	}{
		{"legacy-then-mmap", false, true, false},
		{"mmap-then-legacy", true, false, false},
	} {
		t.Run(dir.name, func(t *testing.T) {
			root := t.TempDir()
			cfg := testStoreConfig
			cfg.mmap = dir.write
			st, err := newStore(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newTestServer(t, st).handler())
			resp := postJSON(t, ts.URL+"/v1/jobs", testInstance(t, 300, 0.15))
			resp.Body.Close()
			if v := waitForJob(t, ts.URL, "job-1"); v.Status != statusDone {
				t.Fatalf("job: status %q (%s)", v.Status, v.Error)
			}
			want := jobPairs(t, ts.URL, "job-1").Pairs
			ts.Close()

			cfg.mmap = dir.read
			st2, err := newStore(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s2 := newTestServer(t, st2)
			ts2 := httptest.NewServer(s2.handler())
			defer ts2.Close()
			got := jobPairs(t, ts2.URL, "job-1")
			if got.Status != statusDone || len(got.Pairs) != len(want) {
				t.Fatalf("flipped-format restore: status %q, %d pairs, want done/%d", got.Status, len(got.Pairs), len(want))
			}
			if j := s2.jobs["job-1"]; dir.read && (j.mg1 == nil || j.mg1.Mapped() != dir.wantMappedRead && reconcile.MmapSupported) {
				t.Fatalf("legacy graphs under -mmap: mg=%v", j.mg1)
			}
		})
	}
}
