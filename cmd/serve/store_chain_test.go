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
	"slices"
	"strings"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/snapshot"
	"github.com/sociograph/reconcile/internal/tenant"
)

// newFrontierStart is reconcile.New with the session in the frontier regime
// before its first bucket, as a restore of a record whose regime bit is set
// leaves it, so every bucket it runs takes the frontier path. The default
// engine's handoff re-anchors a chain with a full mid-run
// (ErrFullRequired); a run in one regime throughout never does, which keeps
// the exact full/delta shapes the store suites assert on. opts may change
// only what a restore may (iterations, workers, hooks).
func newFrontierStart(t testing.TB, g1, g2 *reconcile.Graph, seeds []reconcile.Pair, opts ...reconcile.Option) *reconcile.Reconciler {
	t.Helper()
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.SnapshotState(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st.HybridFrontier = true
	buf.Reset()
	if err := snapshot.WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	if rec, err = reconcile.RestoreState(g1, g2, &buf, opts...); err != nil {
		t.Fatal(err)
	}
	return rec
}

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

	// The frontier regime throughout: the default's handoff forces one
	// extra full record mid-chain, which would perturb the exact full/delta
	// shapes these tests assert on.
	ref := newFrontierStart(t, g1, g2, seeds, reconcile.WithIterations(iterations))
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	js := st.jobStore(id)
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victim *reconcile.Reconciler
	victim = newFrontierStart(t, g1, g2, seeds,
		reconcile.WithIterations(iterations),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
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
	if _, err := victim.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim err = %v, want cancellation", err)
	}
	return want
}

// recoverState replays the job's chain as it stands on disk.
func (js *jobStore) recoverState() (*reconcile.SessionState, int, error) {
	return js.recoverChain(js.listChain())
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
// over: graphs on the heap and mapped (-mmap). The "r1/" in the row names
// is the one-record chain; the shape and retention suites name their rows
// by backing alone.
var chainConfigs = []struct {
	name string
	cfg  storeConfig
}{
	{"r1/heap", testStoreConfig},
	{"r1/mmap", storeConfig{shards: 3, fullEvery: 3, keep: 2, mmap: true}},
}

// forEachChain runs test once per chain configuration, each on a fresh
// store.
func forEachChain(t *testing.T, test func(t *testing.T, st *store)) {
	for _, c := range chainConfigs {
		t.Run(c.name, func(t *testing.T) {
			test(t, newChainStore(t, c.cfg))
		})
	}
}

// forEachBacking is forEachChain with the rows named by backing alone.
func forEachBacking(t *testing.T, test func(t *testing.T, st *store)) {
	for _, c := range chainConfigs {
		t.Run(strings.TrimPrefix(c.name, "r1/"), func(t *testing.T) {
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

// requireChain asserts the job's chain is exactly the given checkpoints,
// one record each, of the given kinds and named as chainPath names them.
func requireChain(t *testing.T, js *jobStore, kinds ...string) []chainRecord {
	t.Helper()
	records := js.listChain()
	if len(records) != len(kinds) {
		t.Fatalf("chain has %d records, want %d: %v", len(records), len(kinds), chainFiles(t, js))
	}
	for i, rec := range records {
		if want := js.chainPath(rec.seq, kinds[i]); rec.path != want {
			t.Fatalf("checkpoint #%d is %q, want %q", rec.seq, rec.path, want)
		}
	}
	return records
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
// pins the on-disk form of its chain: every checkpoint is exactly one file
// (fulls on the fullEvery grid, deltas between), and the meta records no
// chain geometry.
func requireChainShape(t *testing.T, st *store) (want *reconcile.Result) {
	t.Helper()
	want = chainVictim(t, st, "job-1", 6, 5)
	js := st.jobStore("job-1")
	requireChain(t, js, "full", "delta", "delta", "full", "delta")
	entries, err := os.ReadDir(js.dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "job-1.ckpt-") {
			files = append(files, e.Name())
		}
	}
	if fmt.Sprint(files) != fmt.Sprint(chainFiles(t, js)) {
		t.Fatalf("checkpoint files %v, want exactly the chain records %v", files, chainFiles(t, js))
	}
	meta, err := os.ReadFile(js.path(".meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(meta, []byte(`"ranges"`)) {
		t.Fatalf("meta records a chain geometry: %s", meta)
	}
	return want
}

// TestStoreChainShape pins the on-disk form of a chain — each checkpoint is
// exactly one record — and its clean-kill path: the job boots as
// interrupted and resumes bit-identically to the uninterrupted run.
func TestStoreChainShape(t *testing.T) {
	forEachBacking(t, func(t *testing.T, st *store) {
		resumeAndVerify(t, st, "job-1", requireChainShape(t, st))
	})
}

// TestStoreRecoveryCorruptTrailingDelta pins the fallback contract: a
// corrupt trailing record must make boot fall back to the last consistent
// chain prefix and surface the job as interrupted — never panic, never
// skip the job — and resume must still finish bit-identically.
func TestStoreRecoveryCorruptTrailingDelta(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 5)
		records := requireChain(t, st.jobStore("job-1"), "full", "delta", "delta", "full", "delta")
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
	forEachChain(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 5)
		records := st.jobStore("job-1").listChain()
		rewrite(t, records[len(records)-1].path, func(raw []byte) []byte { return raw[:len(raw)/3] })
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryMissingDelta removes a mid-chain delta: the checkpoints
// after the gap must be abandoned and the job surfaced as interrupted.
func TestStoreRecoveryMissingDelta(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 3)
		// Chain is full(1), delta(2), delta(3); removing delta(2) leaves
		// delta(3) unreachable — recovery must stop at the full.
		records := requireChain(t, st.jobStore("job-1"), "full", "delta", "delta")
		if err := os.Remove(records[1].path); err != nil {
			t.Fatal(err)
		}
		resumeAndVerify(t, st, "job-1", want)
	})
}

// TestStoreRecoveryCorruptFull corrupts the newest full checkpoint:
// recovery must fall back to the previous full's chain (replaying its
// deltas), not panic and not lose the job.
func TestStoreRecoveryCorruptFull(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 5)
		js := st.jobStore("job-1")
		records := requireChain(t, js, "full", "delta", "delta", "full", "delta")
		rewrite(t, records[3].path, func(raw []byte) []byte {
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
	forEachChain(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 5)
		for _, rec := range st.jobStore("job-1").listChain() {
			if rec.full && rec.seq > 1 {
				rewrite(t, rec.path, func(raw []byte) []byte {
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
	forEachChain(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 6, 5)
		js := st.jobStore("job-1")
		meta := jobMeta{ID: "job-1", Num: 1, Status: statusDone, Seeds: want.Seeds}
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

// TestStoreRejectsCorruptGeometry pins that boot reads only one-record
// chains: a job whose meta records a range count other than zero or one —
// a chain an earlier server cut into node ranges, or a corrupt count — is
// reported as skipped, naming the count, its files stay on disk and in the
// tenant's byte count, and the store's other jobs still load.
func TestStoreRejectsCorruptGeometry(t *testing.T) {
	for _, ranges := range []int{-1, 2, 4, 65, 1 << 40} {
		t.Run(fmt.Sprint(ranges), func(t *testing.T) {
			st := newChainStore(t, testStoreConfig)
			chainVictim(t, st, "job-1", 4, 2)
			chainVictim(t, st, "job-2", 4, 2)
			js := st.jobStore("job-1")
			meta := jobMeta{ID: "job-1", Num: 1, Status: statusRunning, Ranges: ranges}
			if err := atomicWriteJSON(js.path(".meta.json"), meta); err != nil {
				t.Fatal(err)
			}
			// A range tail, as the ranged chains of earlier servers left.
			if err := os.WriteFile(filepath.Join(js.dir, recordName("job-1", 1, "r0001.full")), []byte("tail"), 0o644); err != nil {
				t.Fatal(err)
			}
			files := chainFiles(t, js)
			s, skipped := newServer(st)
			if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "job-1") ||
				!strings.Contains(skipped[0].Error(), fmt.Sprintf("%d ranges", ranges)) {
				t.Fatalf("boot skipped %v, want job-1 reported for its range count", skipped)
			}
			if s.jobs["job-1"] != nil {
				t.Fatal("boot loaded the job whose chain it does not read")
			}
			if j := s.jobs["job-2"]; j == nil || j.status != statusInterrupted {
				t.Fatal("the skipped job kept another job from loading")
			}
			if got := chainFiles(t, js); fmt.Sprint(got) != fmt.Sprint(files) {
				t.Fatalf("boot changed the skipped job's chain: %v, was %v", got, files)
			}
			for _, suffix := range []string{".g1", ".g2", ".meta.json"} {
				if _, err := os.Stat(js.path(suffix)); err != nil {
					t.Fatalf("boot removed the skipped job's %s: %v", suffix, err)
				}
			}
			if tracked, walked := js.ts.verifyBytes(); tracked != walked {
				t.Fatalf("byte accounting after boot: tracked %d, walked %d", tracked, walked)
			}

			// DELETE of the skipped job, and of no other unknown ID, removes
			// its files and credits their bytes.
			ts := httptest.NewServer(s.handler())
			defer ts.Close()
			del := func(id string) int {
				req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				return resp.StatusCode
			}
			if code := del("job-3"); code != http.StatusNotFound {
				t.Fatalf("DELETE of an unknown job: status %d, want 404", code)
			}
			if code := del("job-1"); code != http.StatusOK {
				t.Fatalf("DELETE of the skipped job: status %d, want 200", code)
			}
			if left, _ := filepath.Glob(filepath.Join(js.dir, "job-1.*")); len(left) != 0 {
				t.Fatalf("DELETE left the skipped job's files: %v", left)
			}
			if _, err := os.Stat(st.jobStore("job-2").path(".meta.json")); err != nil {
				t.Fatalf("DELETE of the skipped job removed another job's meta: %v", err)
			}
			if code := del("job-1"); code != http.StatusNotFound {
				t.Fatalf("second DELETE of the skipped job: status %d, want 404", code)
			}
			resp, err := http.Get(ts.URL + "/v1/admin/tenants?verify=bytes")
			if err != nil {
				t.Fatal(err)
			}
			var tenants struct {
				Tenants []tenantView `json:"tenants"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&tenants); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			i := slices.IndexFunc(tenants.Tenants, func(v tenantView) bool { return v.Name == tenant.Default })
			if i < 0 {
				t.Fatal("no default tenant in the admin listing")
			}
			if u := tenants.Tenants[i].Usage; u.WalkedBytes == nil || *u.WalkedBytes != u.CheckpointBytes {
				t.Fatalf("byte accounting after DELETE: tracked %d, walked %v", u.CheckpointBytes, u.WalkedBytes)
			}
		})
	}
}

// TestStoreTornTailFallback pins the record's commit-point contract: with
// the newest checkpoint's record missing (a crash before its rename), boot
// falls back to the previous checkpoint, surfaces the job as interrupted,
// and resume still finishes bit-identically.
func TestStoreTornTailFallback(t *testing.T) {
	for _, c := range chainConfigs {
		t.Run(c.name+"/head-missing", func(t *testing.T) {
			st := newChainStore(t, c.cfg)
			want := chainVictim(t, st, "job-1", 6, 5)
			js := st.jobStore("job-1")
			records := requireChain(t, js, "full", "delta", "delta", "full", "delta")
			if err := os.Remove(records[len(records)-1].path); err != nil {
				t.Fatal(err)
			}
			// Without its record the checkpoint leaves no file: nothing is
			// left to drop.
			if state, dropped, err := js.recoverState(); err != nil || state == nil || dropped != 0 {
				t.Fatalf("recovery without the newest record: dropped %d, err %v; want 0 and a state", dropped, err)
			}
			resumeAndVerify(t, st, "job-1", want)
		})
	}
}

// TestStoreFailedCheckpointAttempt pins what a failed attempt leaves: with
// the record's rename made to fail (a directory squats on its path), the
// attempt fails, its sequence number is spent, and the next checkpoint is a
// full at the next one — so no sequence holds records of two attempts, the
// byte accounting still matches a walk, and a kill either right after the
// failure or after the re-anchoring full resumes bit-identically.
func TestStoreFailedCheckpointAttempt(t *testing.T) {
	for _, c := range chainConfigs {
		for _, sweeps := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/kill-after-%d", c.name, sweeps), func(t *testing.T) {
				st := newChainStore(t, c.cfg)
				// Checkpoint #3 is a delta; block its record.
				js := st.jobStore("job-1")
				blocker := js.chainPath(3, "delta")
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
				wantSeqs, wantKinds := []int{1, 2}, []string{"full", "delta"}
				if sweeps == 5 {
					wantSeqs, wantKinds = []int{1, 2, 4, 5}, []string{"full", "delta", "full", "delta"}
				}
				records := requireChain(t, js, wantKinds...)
				for i, rec := range records {
					if rec.seq != wantSeqs[i] {
						t.Fatalf("chain %v, want checkpoints %v", chainFiles(t, js), wantSeqs)
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

// TestStoreRetention pins keep-last-K compaction: after enough sweeps the
// chain holds at most keep full checkpoints and no records older than the
// oldest kept full, and the retained suffix still restores.
func TestStoreRetention(t *testing.T) {
	forEachBacking(t, func(t *testing.T, st *store) {
		want := chainVictim(t, st, "job-1", 14, 13) // 13 checkpoints: fulls at 1,4,7,10,13
		js := st.jobStore("job-1")
		if records := requireChain(t, js, "full", "delta", "delta", "full"); records[0].seq != 10 {
			t.Fatalf("oldest surviving checkpoint is #%d, want 10 (chain %v)", records[0].seq, chainFiles(t, js))
		}
		resumeAndVerify(t, st, "job-1", want)
	})
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

// TestChainFilesAreChainRecords pins listChain's parse of the record names
// so purge and retention see every file (an unlisted file would leak bytes
// forever).
func TestChainFilesAreChainRecords(t *testing.T) {
	forEachChain(t, func(t *testing.T, st *store) {
		chainVictim(t, st, "job-1", 4, 3)
		js := st.jobStore("job-1")
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
	})
}
