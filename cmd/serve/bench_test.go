package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// BenchmarkStoreCheckpoint measures the store's per-checkpoint cost under
// concurrent jobs: each op is one checkpoint wave — 8 converged jobs writing
// one chain record (state + meta, atomic temp/fsync/rename) each, in
// parallel. Sub-benchmarks cross the cadence (full: every record a full
// snapshot, i.e. -full-every 1, the pre-delta behaviour; delta: one anchoring
// full then delta records, the default) with the shard count (1: every job
// contends on one directory; 8: one independent fsync domain per job). The
// ckpt_bytes metric is the size of the newest chain record per job —
// BENCH_store.json records the full-vs-delta ratio alongside the ns/op rows.
func BenchmarkStoreCheckpoint(b *testing.B) {
	const jobs = 8
	for _, mode := range []struct {
		name      string
		fullEvery int
	}{
		{"full", 1},
		{"delta", 1 << 20}, // one anchoring full, deltas from then on
	} {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mode.name, shards), func(b *testing.B) {
				st, err := newStore(b.TempDir(), storeConfig{shards: shards, fullEvery: mode.fullEvery, keep: 2})
				if err != nil {
					b.Fatal(err)
				}
				r := reconcile.NewRand(7)
				world := reconcile.GeneratePA(r, 2000, 6)
				g1, g2 := reconcile.IndependentCopies(r, world, 0.8, 0.8)
				seeds := reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.2)

				type bj struct {
					js   *jobStore
					rec  *reconcile.Reconciler
					meta jobMeta
				}
				var bjs []bj
				for i := 0; i < jobs; i++ {
					id := fmt.Sprintf("job-%d", i+1)
					rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
						b.Fatal(err)
					}
					js := st.jobStore(id)
					if err := js.saveGraphs(g1, g2); err != nil {
						b.Fatal(err)
					}
					meta := jobMeta{ID: id, Num: i + 1, Status: statusRunning, Seeds: rec.Result().Seeds}
					// Warm-up record so delta mode measures deltas, not the
					// anchoring full.
					if err := js.checkpoint(rec, meta); err != nil {
						b.Fatal(err)
					}
					bjs = append(bjs, bj{js: js, rec: rec, meta: meta})
				}

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for _, j := range bjs {
						wg.Add(1)
						go func(j bj) {
							defer wg.Done()
							if err := j.js.checkpoint(j.rec, j.meta); err != nil {
								b.Error(err)
							}
						}(j)
					}
					wg.Wait()
				}
				b.StopTimer()

				var bytesPerRecord int64
				for _, j := range bjs {
					records := j.js.listChain()
					fi, err := os.Stat(records[len(records)-1].path)
					if err != nil {
						b.Fatal(err)
					}
					bytesPerRecord += fi.Size()
				}
				b.ReportMetric(float64(bytesPerRecord)/float64(jobs), "ckpt_bytes")
			})
		}
	}
}

// benchRecoveryChain builds the recovery-bench fixture: one job persisted
// with a chain of one full plus 7 deltas (the -full-every 8 worst case),
// its graphs in the binary format (binary, which boot decodes onto the
// heap) or in the mappable container the server writes. The job
// checkpoints at every sweep boundary from its regime handoff on: the
// handoff's checkpoint re-anchors a chain with a full, which (with
// retention) would change the chain shape these benches exist to measure,
// so the chain starts there.
func benchRecoveryChain(b *testing.B, binary bool) *store {
	b.Helper()
	st, err := newStore(b.TempDir(), storeConfig{shards: 1, fullEvery: 8, keep: 2})
	if err != nil {
		b.Fatal(err)
	}
	r := reconcile.NewRand(7)
	world := reconcile.GeneratePA(r, 2000, 6)
	g1, g2 := reconcile.IndependentCopies(r, world, 0.8, 0.8)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.2)
	js := st.jobStore("job-1")
	if err := writeGraphs(js, binary, g1, g2); err != nil {
		b.Fatal(err)
	}
	var rec *reconcile.Reconciler
	var meta jobMeta
	hook := func(e reconcile.PhaseEvent) {
		if e.Bucket == e.Buckets && rec.FrontierActive() {
			if err := js.checkpoint(rec, meta); err != nil {
				b.Fatal(err)
			}
		}
	}
	rec, err = reconcile.New(g1, g2, reconcile.WithSeeds(seeds), reconcile.WithIterations(1),
		reconcile.WithProgress(hook))
	if err != nil {
		b.Fatal(err)
	}
	meta = jobMeta{ID: "job-1", Num: 1, Status: statusRunning, Seeds: rec.Result().Seeds}
	ctx := context.Background()
	for sweep := 1; len(js.listChain()) < 8; sweep++ {
		if sweep > 40 {
			b.Fatal("no 8 checkpoints after the handoff in 40 sweeps")
		}
		if _, err := rec.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	if chain := js.listChain(); len(chain) != 8 || !chain[0].full {
		b.Fatalf("chain has %d records, want 8 starting with a full", len(chain))
	}
	return st
}

// BenchmarkStoreRecovery measures boot-time chain replay: loading one job
// back from the full-plus-7-deltas chain, including graph reads and full
// state re-validation, with graphs in the binary format decoded onto the
// heap.
func BenchmarkStoreRecovery(b *testing.B) {
	st := benchRecoveryChain(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, skipped := st.loadAll(); len(skipped) != 0 {
			b.Fatalf("recovery skipped: %v", skipped)
		}
	}
}

// BenchmarkStoreRecoveryMapped is BenchmarkStoreRecovery over the mappable
// graph files the server writes: the graphs come back as read-only file
// mappings instead of heap decodes, so the delta between the two rows is
// the syscall path's recovery win. The per-iteration closeMapped mirrors
// the server's shutdown path and keeps the bench from accumulating
// mappings across iterations.
func BenchmarkStoreRecoveryMapped(b *testing.B) {
	st := benchRecoveryChain(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, _, skipped := st.loadAll()
		if len(skipped) != 0 {
			b.Fatalf("recovery skipped: %v", skipped)
		}
		b.StopTimer()
		for _, p := range ps {
			p.closeMapped()
		}
		b.StartTimer()
	}
}

// bootStoreConfig is the store cmd/serve runs with under the benchmark's
// recovery workload: the default 4 shards, chain period and retention.
var bootStoreConfig = storeConfig{shards: 4, fullEvery: 8, keep: 3}

// bootFixture fills a data dir shaped like the recovery workload's: 28
// small (n = 3,000) and 2 large (n = 6,000) jobs over preferential-
// attachment graphs (m = 10, copies s = 0.5, 10% seeds), each run through
// the HTTP handler until stable (at most 8 sweeps) and finished. It
// returns the dir.
func bootFixture(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	st, err := newStore(dir, bootStoreConfig)
	if err != nil {
		b.Fatal(err)
	}
	s, _ := newServer(st)
	h := s.handler()
	serve := func(method, path string, body []byte, v any) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			b.Fatalf("%s %s: %v", method, path, err)
		}
		return rec.Code
	}
	spec := func(g *reconcile.Graph) graphSpec {
		gs := graphSpec{Nodes: g.NumNodes()}
		g.Edges(func(e reconcile.Edge) bool {
			gs.Edges = append(gs.Edges, pairSpec{int(e.U), int(e.V)})
			return true
		})
		return gs
	}
	var ids []string
	for i := 0; i < 30; i++ {
		n := 3000
		if i >= 28 {
			n = 6000
		}
		r := reconcile.NewRand(uint64(i + 1))
		g1, g2 := reconcile.IndependentCopies(r, reconcile.GeneratePA(r, n, 10), 0.5, 0.5)
		req := jobRequest{G1: spec(g1), G2: spec(g2), UntilStable: true, MaxSweeps: 8}
		for _, p := range reconcile.Seeds(r, reconcile.IdentityPairs(n), 0.10) {
			req.Seeds = append(req.Seeds, pairSpec{int(p.Left), int(p.Right)})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		var created struct {
			ID string `json:"id"`
		}
		if code := serve(http.MethodPost, "/v1/jobs", body, &created); code != http.StatusAccepted {
			b.Fatalf("submitting job %d: status %d", i, code)
		}
		ids = append(ids, created.ID)
	}
	for _, id := range ids {
		for {
			var v jobView
			serve(http.MethodGet, "/v1/jobs/"+id, nil, &v)
			if v.Status == statusDone {
				break
			}
			if v.Status != statusRunning {
				b.Fatalf("job %s ended %q: %s", id, v.Status, v.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s.closeMappings()
	return dir
}

// BenchmarkServerBoot times a restart of cmd/serve over bootFixture's data
// dir: newServerWith on a fresh store, which lists every shard, opens each
// job's graphs, replays its chain and restores its session — the boot the
// recovery workload repeats, without the process start and HTTP listing.
func BenchmarkServerBoot(b *testing.B) {
	dir := bootFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := newStore(dir, bootStoreConfig)
		if err != nil {
			b.Fatal(err)
		}
		s, skipped := newServerWith(st, serverConfig{registry: tenant.NewRegistry()})
		b.StopTimer()
		if len(skipped) != 0 || len(s.jobs) != 30 {
			b.Fatalf("boot restored %d jobs, skipped %v", len(s.jobs), skipped)
		}
		s.closeMappings()
		b.StartTimer()
	}
}
