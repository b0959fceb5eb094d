package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// chainVictim builds a deterministic checkpoint chain: a job of `iterations`
// sweeps killed after `sweeps` of them, checkpointed at every sweep boundary
// exactly like the server's progress hook (one full every
// testStoreConfig.fullEvery records). It returns the uninterrupted
// reference result for bit-identity checks.
func chainVictim(t *testing.T, st *store, id string, iterations, sweeps int) (want *reconcile.Result) {
	t.Helper()
	return chainVictimFailing(t, st, id, iterations, sweeps, 0)
}

// chainVictimFailing is chainVictim whose checkpoint at sweep failAt must
// fail, and every other must succeed (failAt 0: none may fail).
func chainVictimFailing(t *testing.T, st *store, id string, iterations, sweeps, failAt int) (want *reconcile.Result) {
	t.Helper()
	req := testInstance(t, 400, 0.15)
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	seeds := toPairs(req.Seeds)

	// Pin a fixed engine: the default hybrid's regime handoff forces one
	// extra full record mid-chain (ErrFullRequired), which would perturb the
	// exact full/delta shapes these tests assert on.
	ref, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds), reconcile.WithIterations(iterations),
		reconcile.WithEngine(reconcile.EngineFrontier))
	if err != nil {
		t.Fatal(err)
	}
	if want, err = ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	js := st.jobStore(id)
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	var phases []phaseJSON
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victim *reconcile.Reconciler
	victim, err = reconcile.New(g1, g2,
		reconcile.WithSeeds(seeds),
		reconcile.WithIterations(iterations),
		reconcile.WithEngine(reconcile.EngineFrontier),
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
				if err := js.checkpoint(victim, meta); (err != nil) != (e.Iteration == failAt) {
					t.Errorf("checkpoint at sweep %d: err = %v, want failure only at sweep %d", e.Iteration, err, failAt)
				}
				if e.Iteration == sweeps {
					cancel()
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim err = %v, want cancellation", err)
	}
	return want
}

// chainFiles lists a job's chain record basenames in sequence order.
func chainFiles(t *testing.T, js *jobStore) []string {
	t.Helper()
	var out []string
	for _, rec := range js.listChain() {
		out = append(out, filepath.Base(rec.path))
	}
	return out
}

// resumeAndVerify boots a server over the store, requires the job to be
// interrupted, resumes it and requires the final matching to be
// bit-identical to the uninterrupted reference.
func resumeAndVerify(t *testing.T, st *store, id string, want *reconcile.Result) {
	t.Helper()
	s, skipped := newServer(st)
	for _, err := range skipped {
		t.Fatalf("boot skipped a job: %v", err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	v := jobPairs(t, ts.URL, id)
	if v.Status != statusInterrupted {
		t.Fatalf("restored status = %q (%s), want interrupted", v.Status, v.Error)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs/"+id+"/resume", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST resume: status %d", resp.StatusCode)
	}
	if done := waitForJob(t, ts.URL, id); done.Status != statusDone {
		t.Fatalf("resumed job: status %q (%s)", done.Status, done.Error)
	}
	got := jobPairs(t, ts.URL, id)
	wantPairs := make([][2]int, len(want.Pairs))
	for i, p := range want.Pairs {
		wantPairs[i] = [2]int{int(p.Left), int(p.Right)}
	}
	if fmt.Sprint(got.Pairs) != fmt.Sprint(wantPairs) {
		t.Fatal("resumed matching is not bit-identical to the uninterrupted run")
	}
}

// chainConfigs are the store configurations every store chain suite runs
// over: two chain geometries, each with graphs on the heap and mapped
// (-mmap). testInstance(400) builds two ~400-node graphs, so without
// -range-nodes a job checkpoints one record per checkpoint, and
// -range-nodes 200 cuts its checkpoints into four range records.
var chainConfigs = []struct {
	name   string
	ranges int
	cfg    storeConfig
}{
	{"r1/heap", 1, testStoreConfig},
	{"r1/mmap", 1, storeConfig{shards: 3, fullEvery: 3, keep: 2, mmap: true}},
	{"r4/heap", 4, storeConfig{shards: 3, fullEvery: 3, keep: 2, rangeNodes: 200}},
	{"r4/mmap", 4, storeConfig{shards: 3, fullEvery: 3, keep: 2, mmap: true, rangeNodes: 200}},
}

// forEachChain runs test once per chain configuration, each on a fresh
// store.
func forEachChain(t *testing.T, test func(t *testing.T, st *store, ranges int)) {
	for _, c := range chainConfigs {
		t.Run(c.name, func(t *testing.T) {
			test(t, newChainStore(t, c.cfg), c.ranges)
		})
	}
}

// forEachBacking runs test on a fresh store per chain configuration of the
// given range count: once with heap graphs, once with mapped ones.
func forEachBacking(t *testing.T, ranges int, test func(t *testing.T, st *store)) {
	for _, c := range chainConfigs {
		if c.ranges != ranges {
			continue
		}
		t.Run(strings.TrimPrefix(c.name, fmt.Sprintf("r%d/", ranges)), func(t *testing.T) {
			test(t, newChainStore(t, c.cfg))
		})
	}
}

func newChainStore(t *testing.T, cfg storeConfig) *store {
	t.Helper()
	st, err := newStore(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// chainHandle returns a store handle for a job whose chain has the given
// geometry, as boot would build it from the job's meta.
func chainHandle(st *store, id string, ranges int) *jobStore {
	js := st.jobStore(id)
	js.ranges = ranges
	return js
}

// requireChain asserts the job's chain is exactly the given checkpoints,
// each complete: ranges records of the head's kind, named as chainPath
// names them.
func requireChain(t *testing.T, js *jobStore, ranges int, kinds ...string) []seqGroup {
	t.Helper()
	groups := groupChain(js.listChain())
	if len(groups) != len(kinds) {
		t.Fatalf("chain has %d checkpoints, want %d: %v", len(groups), len(kinds), chainFiles(t, js))
	}
	for i, g := range groups {
		if len(g.paths) != ranges {
			t.Fatalf("checkpoint #%d has %d records, want %d: %v", g.seq, len(g.paths), ranges, chainFiles(t, js))
		}
		for rng := 0; rng < ranges; rng++ {
			if want := js.chainPath(g.seq, rng, kinds[i]); g.paths[rng] != want {
				t.Fatalf("checkpoint #%d range %d is %q, want %q", g.seq, rng, g.paths[rng], want)
			}
		}
	}
	return groups
}

// rewrite replaces a file's bytes with edit's result.
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireChainShape checkpoints a job killed after five of six sweeps and
// pins the on-disk form of its chain: every checkpoint is the head record
// plus one tail per further range (fulls on the fullEvery grid, deltas
// between), and the meta records the geometry.
func requireChainShape(t *testing.T, st *store, ranges int) (want *reconcile.Result) {
	t.Helper()
	want = chainVictim(t, st, "job-1", 6, 5)
	js := chainHandle(st, "job-1", ranges)
	requireChain(t, js, ranges, "full", "delta", "delta", "full", "delta")
	meta, err := os.ReadFile(js.path(".meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Contains(meta, []byte(`"ranges":4`)); got != (ranges == 4) {
		t.Fatalf("meta does not record the chain geometry: %s", meta)
	}
	return want
}

// TestStoreChainShape pins the on-disk form of a one-range chain — each
// checkpoint is exactly one head record — and its clean-kill path: the job
// boots as interrupted and resumes bit-identically to the uninterrupted
// run.
func TestStoreChainShape(t *testing.T) {
	forEachBacking(t, 1, func(t *testing.T, st *store) {
		resumeAndVerify(t, st, "job-1", requireChainShape(t, st, 1))
	})
}

// TestStoreRangedChainShape pins the on-disk form of a four-range chain:
// every checkpoint is the head plus three tails, all of the head's kind.
func TestStoreRangedChainShape(t *testing.T) {
	forEachBacking(t, 4, func(t *testing.T, st *store) {
		requireChainShape(t, st, 4)
	})
}

// TestStoreRangedRecovery is the clean-kill path of a four-range chain: a
// job killed mid-run boots as interrupted and resumes bit-identically to
// the uninterrupted run.
func TestStoreRangedRecovery(t *testing.T) {
	forEachBacking(t, 4, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 5)
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryCorruptTrailingDelta pins the fallback contract: a
// corrupt trailing record must make boot fall back to the last consistent
// chain prefix and surface the job as interrupted — never panic, never
// skip the job — and resume must still finish bit-identically.
func TestStoreRecoveryCorruptTrailingDelta(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		want := chainVictim(t, st, "job-1", 6, 5)
		js := chainHandle(st, "job-1", ranges)
		requireChain(t, js, ranges, "full", "delta", "delta", "full", "delta")
		records := js.listChain()
		rewrite(t, records[len(records)-1].path, func(raw []byte) []byte {
			raw[len(raw)/2] ^= 0x40
			return raw
		})
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryTruncatedTrailingDelta is the torn-write variant: the
// trailing record lost its tail.
func TestStoreRecoveryTruncatedTrailingDelta(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		want := chainVictim(t, st, "job-1", 6, 5)
		records := chainHandle(st, "job-1", ranges).listChain()
		rewrite(t, records[len(records)-1].path, func(raw []byte) []byte { return raw[:len(raw)/3] })
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryMissingDelta removes a mid-chain delta's head: the
// checkpoints after the gap must be abandoned and the job surfaced as
// interrupted.
func TestStoreRecoveryMissingDelta(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		want := chainVictim(t, st, "job-1", 6, 3)
		js := chainHandle(st, "job-1", ranges)
		// Chain is full(1), delta(2), delta(3); removing delta(2) leaves
		// delta(3) unreachable — recovery must stop at the full.
		groups := requireChain(t, js, ranges, "full", "delta", "delta")
		if err := os.Remove(groups[1].paths[0]); err != nil {
			t.Fatal(err)
		}
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryCorruptFull corrupts the newest full checkpoint (its
// last range record): recovery must fall back to the previous full's chain
// (replaying its deltas), not panic and not lose the job.
func TestStoreRecoveryCorruptFull(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		want := chainVictim(t, st, "job-1", 6, 5)
		js := chainHandle(st, "job-1", ranges)
		groups := requireChain(t, js, ranges, "full", "delta", "delta", "full", "delta")
		rewrite(t, groups[3].paths[ranges-1], func(raw []byte) []byte {
			raw[len(raw)/2] ^= 0x01
			return raw
		})
		if _, dropped, err := js.recoverState(); err != nil || dropped != 2 {
			t.Fatalf("recovery past a corrupt full: dropped %d, err %v; want the 2 checkpoints built on it", dropped, err)
		}
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryFallbackSurvivesRestarts pins that boot-time compaction
// never deletes the records a fallback recovery is living off: after a
// corrupt newest full sends recovery back to an older chain, the server can
// be restarted any number of times without resuming and the job must keep
// loading — retention waits for the next durable full.
func TestStoreRecoveryFallbackSurvivesRestarts(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		want := chainVictim(t, st, "job-1", 6, 5)
		for _, g := range groupChain(chainHandle(st, "job-1", ranges).listChain()) {
			if g.full && g.seq > 1 {
				rewrite(t, g.paths[0], func(raw []byte) []byte {
					raw[len(raw)/2] ^= 0x01
					return raw
				})
			}
		}
		for boot := 0; boot < 3; boot++ {
			s, skipped := newServer(st)
			if len(skipped) != 0 {
				t.Fatalf("boot %d skipped the job: %v", boot, skipped)
			}
			j := s.jobs["job-1"]
			if j == nil || j.status != statusInterrupted {
				t.Fatalf("boot %d: job missing or not interrupted", boot)
			}
		}
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryCorruptionMarksDoneJobInterrupted pins that the dropped
// detection does not depend on the meta: a job whose meta says "done" but
// whose trailing record is unreadable restores behind its acknowledged
// state and must come back interrupted (resumable), not silently "done"
// with links missing.
func TestStoreRecoveryCorruptionMarksDoneJobInterrupted(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		want := chainVictim(t, st, "job-1", 6, 5)
		js := chainHandle(st, "job-1", ranges)
		meta := jobMeta{ID: "job-1", Num: 1, Status: statusDone, Seeds: want.Seeds, Ranges: ranges}
		if err := atomicWriteJSON(js.path(".meta.json"), meta); err != nil {
			t.Fatal(err)
		}
		records := js.listChain()
		rewrite(t, records[len(records)-1].path, func(raw []byte) []byte {
			raw[len(raw)-2] ^= 0x10 // inside the CRC trailer
			return raw
		})
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRejectsCorruptGeometry pins that boot takes a meta's chain
// geometry only from the range the writer can produce: a job whose meta
// records a negative range count, or more than MaxStateRanges, is reported
// as skipped — not replayed into a panic or a huge allocation — and the
// store's other jobs still load.
func TestStoreRejectsCorruptGeometry(t *testing.T) {
	for _, ranges := range []int{-1, reconcile.MaxStateRanges + 1, 1 << 40} {
		t.Run(fmt.Sprint(ranges), func(t *testing.T) {
			st := newChainStore(t, testStoreConfig)
			chainVictim(t, st, "job-1", 4, 2)
			chainVictim(t, st, "job-2", 4, 2)
			js := st.jobStore("job-1")
			meta := jobMeta{ID: "job-1", Num: 1, Status: statusRunning, Ranges: ranges}
			if err := atomicWriteJSON(js.path(".meta.json"), meta); err != nil {
				t.Fatal(err)
			}
			s, skipped := newServer(st)
			if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "job-1") || !strings.Contains(skipped[0].Error(), "ranges") {
				t.Fatalf("boot skipped %v, want job-1 reported for its range count", skipped)
			}
			if s.jobs["job-1"] != nil {
				t.Fatal("boot loaded the job whose meta is corrupt")
			}
			if j := s.jobs["job-2"]; j == nil || j.status != statusInterrupted {
				t.Fatal("the corrupt meta kept another job from loading")
			}
		})
	}
}

// TestStoreTornTailFallback pins the head's commit-point contract: with the
// newest checkpoint torn — its head missing (a crash before the commit
// rename), or one tail corrupt or missing — boot falls back to the previous
// consistent checkpoint, surfaces the job as interrupted, and resume still
// finishes bit-identically. A one-range checkpoint has only its head to
// tear.
func TestStoreTornTailFallback(t *testing.T) {
	for _, c := range chainConfigs {
		ranges := c.ranges
		for _, tear := range []string{"head-missing", "tail-corrupt", "tail-missing"} {
			if ranges == 1 && tear != "head-missing" {
				continue
			}
			t.Run(c.name+"/"+tear, func(t *testing.T) {
				st := newChainStore(t, c.cfg)
				want := chainVictim(t, st, "job-1", 6, 5)
				js := chainHandle(st, "job-1", ranges)
				groups := requireChain(t, js, ranges, "full", "delta", "delta", "full", "delta")
				last := groups[len(groups)-1]
				var err error
				switch tear {
				case "head-missing":
					err = os.Remove(last.paths[0])
				case "tail-corrupt":
					rewrite(t, last.paths[2], func(raw []byte) []byte {
						raw[len(raw)/2] ^= 0x41
						return raw
					})
				case "tail-missing":
					err = os.Remove(last.paths[1])
				}
				if err != nil {
					t.Fatal(err)
				}
				state, dropped, err := js.recoverState()
				if err != nil || state == nil {
					t.Fatalf("recovery with a torn tail: %v", err)
				}
				// Without its head a one-range checkpoint leaves no file:
				// nothing is left to drop.
				wantDropped := 1
				if ranges == 1 {
					wantDropped = 0
				}
				if dropped != wantDropped {
					t.Fatalf("recovery dropped %d checkpoints, want %d", dropped, wantDropped)
				}
				resumeAndVerify(t, st, "job-1", want)
			})
		}
	}
}

// TestStoreFailedCheckpointAttempt pins what a failed attempt leaves: with
// one record's rename made to fail (a directory squats on its path), the
// attempt fails, its sequence number is spent, and the next checkpoint is a
// full at the next one — so no sequence holds records of two attempts, the
// byte accounting still matches a walk, and a kill either right after the
// failure or after the re-anchoring full resumes bit-identically.
func TestStoreFailedCheckpointAttempt(t *testing.T) {
	for _, c := range chainConfigs {
		ranges := c.ranges
		for _, sweeps := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/kill-after-%d", c.name, sweeps), func(t *testing.T) {
				st := newChainStore(t, c.cfg)
				// Checkpoint #3 is a delta; block its last range record.
				js := chainHandle(st, "job-1", ranges)
				blocker := js.chainPath(3, ranges-1, "delta")
				if err := os.Mkdir(blocker, 0o755); err != nil {
					t.Fatal(err)
				}
				want := chainVictimFailing(t, st, "job-1", 6, sweeps, 3)
				if tracked, walked := js.ts.verifyBytes(); tracked != walked {
					t.Fatalf("byte accounting drifted after the failed attempt: tracked %d, walked %d", tracked, walked)
				}
				if err := os.Remove(blocker); err != nil {
					t.Fatal(err)
				}
				kinds := map[int]map[bool]bool{}
				for _, rec := range js.listChain() {
					if kinds[rec.seq] == nil {
						kinds[rec.seq] = map[bool]bool{}
					}
					kinds[rec.seq][rec.full] = true
				}
				for seq, k := range kinds {
					if len(k) != 1 {
						t.Fatalf("checkpoint #%d holds full and delta records of two attempts: %v", seq, chainFiles(t, js))
					}
				}
				groups := groupChain(js.listChain())
				if ranges > 1 {
					failed := groups[2]
					if _, ok := failed.paths[0]; failed.seq != 3 || ok || len(failed.paths) != ranges-2 {
						t.Fatalf("failed attempt #3 left %v, want its %d landed tails and no head", chainFiles(t, js), ranges-2)
					}
					groups = append(groups[:2], groups[3:]...)
				}
				wantSeqs, wantKinds := []int{1, 2}, []string{"full", "delta"}
				if sweeps == 5 {
					wantSeqs, wantKinds = []int{1, 2, 4, 5}, []string{"full", "delta", "full", "delta"}
				}
				if len(groups) != len(wantSeqs) {
					t.Fatalf("chain %v, want complete checkpoints %v", chainFiles(t, js), wantSeqs)
				}
				for i, g := range groups {
					if g.seq != wantSeqs[i] || len(g.paths) != ranges || g.full != (wantKinds[i] == "full") {
						t.Fatalf("checkpoint %d is #%d (full=%v, %d records), want #%d %s: %v",
							i, g.seq, g.full, len(g.paths), wantSeqs[i], wantKinds[i], chainFiles(t, js))
					}
				}
				if tracked, walked := js.ts.verifyBytes(); tracked != walked {
					t.Fatalf("byte accounting drifted: tracked %d, walked %d", tracked, walked)
				}
				resumeAndVerify(t, st, "job-1", want)
			})
		}
	}
}

// atomicWriteJSON is a small test helper over atomicWrite.
func atomicWriteJSON(path string, v jobMeta) error {
	return atomicWrite(path, func(w *os.File) error {
		return json.NewEncoder(w).Encode(v)
	})
}

// TestStoreRetention pins keep-last-K compaction on a one-range chain:
// after enough sweeps the chain holds at most keep full checkpoints, each
// still complete, and no records older than the oldest kept full, and the
// retained suffix still restores.
func TestStoreRetention(t *testing.T) {
	forEachBacking(t, 1, func(t *testing.T, st *store) {
		requireRetention(t, st, 1)
	})
}

// TestStoreRangedRetention pins the same compaction on a four-range chain:
// every retained checkpoint keeps its head and all its tails.
func TestStoreRangedRetention(t *testing.T) {
	forEachBacking(t, 4, func(t *testing.T, st *store) {
		requireRetention(t, st, 4)
	})
}

func requireRetention(t *testing.T, st *store, ranges int) {
	want := chainVictim(t, st, "job-1", 14, 13) // 13 checkpoints: fulls at 1,4,7,10,13
	js := chainHandle(st, "job-1", ranges)
	requireChain(t, js, ranges, "full", "delta", "delta", "full")
	if groups := groupChain(js.listChain()); groups[0].seq != 10 {
		t.Fatalf("oldest surviving checkpoint is #%d, want 10 (chain %v)", groups[0].seq, chainFiles(t, js))
	}
	resumeAndVerify(t, st, "job-1", want)
}

// TestStoreShardPlacement pins the sharded layout: jobs land in their hash
// shard, every shard directory exists, and a restart re-lists jobs from all
// shards.
func TestStoreShardPlacement(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir, storeConfig{shards: 4, fullEvery: 2, keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Shard sets live under each tenant's root; jobs off the un-namespaced
	// API land in default/.
	st.tenant("default")
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, "default", fmt.Sprintf("shard-%02d", i))); err != nil {
			t.Fatalf("missing shard dir: %v", err)
		}
	}
	ts := httptest.NewServer(newTestServer(t, st).handler())
	req := testInstance(t, 150, 0.25)
	var ids []string
	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		ids = append(ids, decode[map[string]string](t, resp)["id"])
	}
	dirsUsed := map[string]bool{}
	for _, id := range ids {
		waitForJob(t, ts.URL, id)
		js := st.jobStore(id)
		if !strings.HasPrefix(filepath.Base(js.dir), "shard-") {
			t.Fatalf("job %s placed outside a shard: %s", id, js.dir)
		}
		if _, err := os.Stat(js.path(".meta.json")); err != nil {
			t.Fatalf("job %s not in its hash shard: %v", id, err)
		}
		dirsUsed[js.dir] = true
	}
	if len(dirsUsed) < 2 {
		t.Fatalf("6 jobs all hashed to one shard (%v); placement broken", dirsUsed)
	}
	ts.Close()

	// A restart — even with a different -shards setting — re-lists them all.
	st2, err := newStore(dir, storeConfig{shards: 2, fullEvery: 2, keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newTestServer(t, st2).handler())
	defer ts2.Close()
	for _, id := range ids {
		if v := jobPairs(t, ts2.URL, id); v.Status != statusDone {
			t.Fatalf("job %s after reshard restart: status %q", id, v.Status)
		}
	}
}

// TestStorePreTenantLayoutSkipped pins what boot does with a data dir from
// before tenancy: its root-level shard directory is not a tenant, so boot
// reports it as skipped, loads nothing from it and leaves it untouched.
func TestStorePreTenantLayoutSkipped(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "shard-00", "job-1.meta.json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte(`{"id":"job-1","num":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := newStore(dir, testStoreConfig)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, skipped := st.loadAll()
	if len(jobs) != 0 || len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "shard-00") {
		t.Fatalf("boot over a pre-tenant layout loaded %d jobs, skipped %v; want the shard-00 dir reported", len(jobs), skipped)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("boot moved or removed the pre-tenant files: %v", err)
	}
}

// TestStoreReleasesBaseWhenIdle pins that a terminal job does not pin its
// delta base (a full deep copy of the session state) in memory for the
// server's lifetime — the base exists to diff the next checkpoint against,
// and an idle job's next checkpoint re-anchors with a full anyway.
func TestStoreReleasesBaseWhenIdle(t *testing.T) {
	st := newTestStore(t)
	s := newTestServer(t, st)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	req := testInstance(t, 150, 0.25)
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job status %q", v.Status)
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	j.pending.Wait() // the run goroutine's finish() writes the terminal checkpoint
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.js.ckpt != nil {
		t.Fatal("terminal job still pins its delta base")
	}
	// An explicit checkpoint of the idle job re-anchors with a full and
	// releases again.
	if err := j.persistLocked(); err != nil {
		t.Fatal(err)
	}
	if j.js.ckpt != nil {
		t.Fatal("idle checkpoint left the delta base pinned")
	}
	records := j.js.listChain()
	if !records[len(records)-1].full {
		t.Fatal("idle checkpoint did not re-anchor with a full")
	}
}

// TestStoreByteAccountingInvariant pins the durable-byte invariant the
// quota system depends on: the incrementally maintained per-tenant counter
// equals a fresh walk of the tenant root after every path that moves bytes
// — graph writes, delta and full checkpoints, retention compaction, failed
// writes and purge. Aggressive chain settings (fullEvery 2, keep 1) make
// compaction fire constantly.
func TestStoreByteAccountingInvariant(t *testing.T) {
	for _, c := range chainConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.shards, cfg.fullEvery, cfg.keep = 2, 2, 1
			st := newChainStore(t, cfg)
			ts := st.tenant(tenant.Default)
			check := func(stage string) {
				t.Helper()
				tracked, walked := ts.verifyBytes()
				if tracked != walked {
					t.Fatalf("%s: tracked %d bytes, walk found %d (drift %+d)", stage, tracked, walked, tracked-walked)
				}
			}
			check("empty store")

			// Two jobs checkpointing at every sweep boundary: fulls, deltas,
			// and keep-1 retention all churn the counter.
			chainVictim(t, st, "job-1", 6, 3)
			check("after job-1 chain")
			chainVictim(t, st, "job-2", 4, 2)
			check("after job-2 chain")

			// A write that fails before its rename moves nothing: the old
			// file (or its absence) is still what is on disk.
			js := st.jobStore("job-1")
			boom := errors.New("boom")
			if err := js.writeTracked(js.path(".probe"), func(*os.File) error { return boom }); !errors.Is(err, boom) {
				t.Fatalf("failed write returned %v, want boom", err)
			}
			check("after failed write")

			// Purge credits everything back.
			st.jobStore("job-1").purge()
			st.jobStore("job-2").purge()
			check("after purges")
			if got := ts.checkpointBytes(); got != 0 {
				t.Fatalf("purged store still accounts %d bytes", got)
			}
		})
	}
}

// TestRangedChainFilesAreChainRecords pins listChain's parse of the head
// and tail names so purge and retention see every file (an unlisted file
// would leak bytes forever).
func TestRangedChainFilesAreChainRecords(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store, ranges int) {
		chainFilesAreChainRecords(t, st, ranges)
	})
}

func chainFilesAreChainRecords(t *testing.T, st *store, ranges int) {
	chainVictim(t, st, "job-1", 4, 3)
	js := chainHandle(st, "job-1", ranges)
	listed := map[string]bool{}
	for _, rec := range js.listChain() {
		listed[rec.path] = true
	}
	entries, err := os.ReadDir(js.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-1.ckpt-") {
			continue
		}
		if !listed[js.path(strings.TrimPrefix(name, "job-1"))] {
			t.Fatalf("chain file %s not listed (purge would leak it)", name)
		}
	}

	js.purge()
	entries, err = os.ReadDir(js.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "job-1.") {
			t.Fatalf("purge left %s behind", e.Name())
		}
	}
	if tracked, walked := js.ts.verifyBytes(); tracked != walked {
		t.Fatalf("byte accounting drifted after purge: tracked %d, walked %d", tracked, walked)
	}
}
