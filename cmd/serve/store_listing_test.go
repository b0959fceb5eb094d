package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/tenant"
)

// recordName is the file name of checkpoint seq's record.
func recordName(id string, seq int, kind string) string {
	return fmt.Sprintf("%s.ckpt-%08d.%s", id, seq, kind)
}

// listingVictim persists job id (number num) on st: a frontier run of six
// sweeps over testInstance(400) with the given seed fraction, checkpointed
// at every sweep boundary and killed after `sweeps` of them. It returns the
// state snapshot taken at each checkpoint, indexed by sequence number - 1.
func listingVictim(t *testing.T, st *store, id string, num int, seedFrac float64, sweeps int) [][]byte {
	t.Helper()
	req := testInstance(t, 400, seedFrac)
	g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
	js := st.jobStore(id)
	if err := js.saveGraphs(g1, g2); err != nil {
		t.Fatal(err)
	}
	var states [][]byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victim *reconcile.Reconciler
	victim = newFrontierStart(t, g1, g2, toPairs(req.Seeds),
		reconcile.WithIterations(6),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			if e.Bucket != e.Buckets {
				return
			}
			meta := jobMeta{ID: id, Num: num, Status: statusRunning, Seeds: victim.Result().Seeds}
			if err := js.checkpoint(victim, meta); err != nil {
				t.Errorf("%s: checkpoint at sweep %d: %v", id, e.Iteration, err)
			}
			var buf bytes.Buffer
			if err := victim.SnapshotState(&buf); err != nil {
				t.Error(err)
			}
			states = append(states, buf.Bytes())
			if e.Iteration == sweeps {
				cancel()
			}
		}))
	if _, err := victim.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: victim err = %v, want cancellation", id, err)
	}
	return states
}

// TestStoreBootListing pins what a boot reads from one shard directory
// holding jobs whose IDs prefix one another (job-1, job-12, job-123), a
// stale temp file, files that belong to no job, range-tail files of the
// kind earlier servers wrote beside a record, and a torn newest full: which
// jobs load, the state each replays, the checkpoints each drops, the
// sequence number each continues from, and the files boot compaction
// leaves. The chains are written keeping three fulls and booted keeping
// one, so the compaction has records to retire. Every expectation is what
// per-job globs of the directory read.
func TestStoreBootListing(t *testing.T) {
	dir := t.TempDir()
	write := func() *store {
		st, err := newStore(dir, storeConfig{shards: 1, fullEvery: 2, keep: 3})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Checkpoints 1-5 alternate full and delta: 1 F, 2 D, 3 F, 4 D, 5 F.
	states := map[string][][]byte{
		"job-1":   listingVictim(t, write(), "job-1", 1, 0.15, 5),
		"job-12":  listingVictim(t, write(), "job-12", 12, 0.2, 4),
		"job-123": listingVictim(t, write(), "job-123", 123, 0.25, 5),
	}
	shard := filepath.Join(dir, tenant.Default, "shard-00")
	// job-123's newest full is torn: recovery falls back to 3 F + 4 D and
	// drops checkpoint 5.
	rewrite(t, filepath.Join(shard, recordName("job-123", 5, "full")), func(raw []byte) []byte { return raw[:len(raw)/2] })
	// Range tails are not chain records: neither replay nor compaction
	// touches them, though job-1's and job-12's sit below the sequence
	// numbers their compaction retires.
	tails := []string{
		recordName("job-1", 1, "r0001.full"),
		recordName("job-12", 2, "r0001.delta"),
		recordName("job-123", 5, "r0001.full"),
	}
	for _, name := range append([]string{
		recordName("job-1", 6, "full") + ".tmp-42", // a crash mid-write
		recordName("job-9", 1, "full"),             // a record of a job with no meta
		"notes.txt",
	}, tails...) {
		if err := os.WriteFile(filepath.Join(shard, name), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := newStore(dir, storeConfig{shards: 1, fullEvery: 2, keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, maxNum, skipped := st.loadAll()
	for _, err := range skipped {
		t.Errorf("boot skipped: %v", err)
	}
	if maxNum[tenant.Default] != 123 {
		t.Errorf("highest job number %d, want 123", maxNum[tenant.Default])
	}
	want := []struct {
		id            string
		state         int // sequence number of the checkpoint the replay ends at
		dropped, next int
	}{
		{"job-1", 5, 0, 5},
		{"job-12", 4, 0, 4},
		{"job-123", 4, 1, 5},
	}
	if len(out) != len(want) {
		t.Fatalf("boot loaded %d jobs, want %d", len(out), len(want))
	}
	for i, w := range want {
		p := out[i]
		if p.meta.ID != w.id || p.tenant != tenant.Default {
			t.Fatalf("job %d is %s/%s, want %s", i, p.tenant, p.meta.ID, w.id)
		}
		if p.dropped != w.dropped || p.js.seq != w.next {
			t.Errorf("%s: dropped %d, continues from #%d; want %d and #%d", w.id, p.dropped, p.js.seq, w.dropped, w.next)
		}
		for _, rec := range p.js.listChain() {
			if slices.Contains(tails, filepath.Base(rec.path)) {
				t.Errorf("%s: range tail %s listed as a chain record", w.id, rec.path)
			}
		}
		rec, err := reconcile.RestoreSessionState(p.g1, p.g2, p.state)
		if err != nil {
			t.Fatalf("%s: %v", w.id, err)
		}
		var buf bytes.Buffer
		if err := rec.SnapshotState(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), states[w.id][w.state-1]) {
			t.Errorf("%s: replayed state differs from checkpoint #%d", w.id, w.state)
		}
	}

	// Boot compaction keeps job-1's and job-12's newest full chain and
	// leaves job-123, whose replay fell back, and every stray file alone;
	// the tenant's temp-file sweep removed the stale write.
	var retained []string
	for _, id := range []string{"job-1", "job-12", "job-123"} {
		retained = append(retained, id+".g1", id+".g2", id+".meta.json")
	}
	retained = append(retained, recordName("job-1", 5, "full"), recordName("job-9", 1, "full"), "notes.txt")
	retained = append(retained, recordName("job-12", 3, "full"), recordName("job-12", 4, "delta"))
	for seq := 1; seq <= 5; seq++ {
		retained = append(retained, recordName("job-123", seq, []string{"full", "delta"}[1-seq%2]))
	}
	retained = append(retained, tails...)
	slices.Sort(retained)
	entries, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, retained) {
		t.Errorf("shard holds %q after boot, want %q", got, retained)
	}
}
