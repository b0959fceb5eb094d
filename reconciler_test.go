package reconcile_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/sociograph/reconcile"
)

// reconcilerInstance builds a deterministic matching instance for the
// Reconciler tests.
func reconcilerInstance(seed uint64, n int) (g1, g2 *reconcile.Graph, seeds []reconcile.Pair) {
	r := reconcile.NewRand(seed)
	g := reconcile.GeneratePA(r, n, 8)
	g1, g2 = reconcile.IndependentCopies(r, g, 0.8, 0.8)
	seeds = reconcile.Seeds(r, reconcile.IdentityPairs(n), 0.15)
	return g1, g2, seeds
}

// Constructing with no options must run with exactly DefaultOptions.
func TestNewDefaultsEqualDefaultOptions(t *testing.T) {
	g1, g2, _ := reconcilerInstance(1, 50)
	rec, err := reconcile.New(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Options(), reconcile.DefaultOptions(); got != want {
		t.Fatalf("Options() = %+v, want DefaultOptions %+v", got, want)
	}
}

// Every functional option must land on the corresponding Options field.
func TestFunctionalOptionsSetFields(t *testing.T) {
	g1, g2, _ := reconcilerInstance(2, 50)
	rec, err := reconcile.New(g1, g2,
		reconcile.WithThreshold(3),
		reconcile.WithIterations(4),
		reconcile.WithScoring(reconcile.ScoreAdamicAdar),
		reconcile.WithTieBreak(reconcile.TieLowestID),
		reconcile.WithWorkers(5),
		reconcile.WithMargin(2),
		reconcile.WithBucketing(false),
		reconcile.WithMinBucketExp(0),
		reconcile.WithMaxDegree(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := reconcile.Options{
		Threshold:        3,
		Iterations:       4,
		Scoring:          reconcile.ScoreAdamicAdar,
		Ties:             reconcile.TieLowestID,
		Workers:          5,
		MinMargin:        2,
		DisableBucketing: true,
		MinBucketExp:     0,
		MaxDegree:        64,
	}
	if got := rec.Options(); got != want {
		t.Fatalf("Options() = %+v, want %+v", got, want)
	}

	// WithOptions bridges a legacy struct; later options refine it.
	legacy := reconcile.DefaultOptions()
	legacy.Threshold = 7
	rec, err = reconcile.New(g1, g2,
		reconcile.WithOptions(legacy),
		reconcile.WithIterations(9))
	if err != nil {
		t.Fatal(err)
	}
	legacy.Iterations = 9
	if got := rec.Options(); got != legacy {
		t.Fatalf("Options() = %+v, want %+v", got, legacy)
	}
}

func TestNewValidation(t *testing.T) {
	g1, g2, seeds := reconcilerInstance(3, 50)
	if _, err := reconcile.New(nil, g2); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := reconcile.New(g1, g2, reconcile.WithThreshold(0)); err == nil {
		t.Error("zero threshold accepted")
	}
	bad := append([]reconcile.Pair{}, seeds...)
	bad = append(bad, reconcile.Pair{Left: 0, Right: 9999})
	if _, err := reconcile.New(g1, g2, reconcile.WithSeeds(bad)); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

// A deprecated Options struct given through WithOptions must produce
// results byte-identical to the same configuration given as individual
// With options, for the default and for a customized configuration.
func TestDeprecatedWrapperEquivalence(t *testing.T) {
	g1, g2, seeds := reconcilerInstance(4, 600)
	cases := []struct {
		name    string
		opts    reconcile.Options
		newOpts []reconcile.Option
	}{
		{
			name:    "defaults",
			opts:    reconcile.DefaultOptions(),
			newOpts: nil,
		},
		{
			name: "customized",
			opts: func() reconcile.Options {
				o := reconcile.DefaultOptions()
				o.Threshold = 3
				o.Iterations = 1
				o.Workers = 1
				o.Ties = reconcile.TieLowestID
				o.Scoring = reconcile.ScoreAdamicAdar
				return o
			}(),
			newOpts: []reconcile.Option{
				reconcile.WithThreshold(3),
				reconcile.WithIterations(1),
				reconcile.WithWorkers(1),
				reconcile.WithTieBreak(reconcile.TieLowestID),
				reconcile.WithScoring(reconcile.ScoreAdamicAdar),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy := runBatch(t, g1, g2, reconcile.WithOptions(tc.opts), reconcile.WithSeeds(seeds))
			fresh := runBatch(t, g1, g2, append([]reconcile.Option{reconcile.WithSeeds(seeds)}, tc.newOpts...)...)
			if !reflect.DeepEqual(legacy, fresh) {
				t.Fatalf("results differ:\nstruct  %d pairs, %d phases\nWith    %d pairs, %d phases",
					len(legacy.Pairs), len(legacy.Phases), len(fresh.Pairs), len(fresh.Phases))
			}
			if len(fresh.NewPairs) == 0 {
				t.Fatal("instance found nothing; equivalence is vacuous")
			}
		})
	}
}

// An already-cancelled context returns promptly with the seeds-only partial
// Result; cancelling from inside the progress hook stops at the next bucket
// boundary, and the Reconciler stays usable and catches up afterwards.
func TestRunCancellation(t *testing.T) {
	g1, g2, seeds := reconcilerInstance(5, 600)

	// Pre-cancelled: no bucket runs at all.
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rec.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Pairs) != len(seeds) || len(res.Phases) != 0 {
		t.Fatalf("partial result: %d pairs, %d phases; want seeds only", len(res.Pairs), len(res.Phases))
	}

	// Mid-run: the progress hook cancels after the first bucket pass.
	events := 0
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	rec2, err := reconcile.New(g1, g2,
		reconcile.WithSeeds(seeds),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			events++
			cancel2()
		}))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := rec2.Run(ctx2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if events != 1 || len(partial.Phases) != 1 {
		t.Fatalf("run continued past the cancelled boundary: %d events, %d phases", events, len(partial.Phases))
	}

	// The instance is still valid: finishing the run reaches the same link
	// set as an uninterrupted batch (the algorithm is monotone).
	full := runBatch(t, g1, g2, reconcile.WithSeeds(seeds))
	resumed, err := rec2.RunUntilStable(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Pairs) < len(full.Pairs) {
		t.Fatalf("resumed run found %d links, batch %d", len(resumed.Pairs), len(full.Pairs))
	}
}

// AddSeeds between runs: duplicates are no-ops, conflicts are errors, and
// ingested links expand on the next run.
func TestReconcilerAddSeeds(t *testing.T) {
	g1, g2, seeds := reconcilerInstance(6, 600)
	half := len(seeds) / 2

	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds[:half]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	before := rec.Len()

	// Exact duplicate of a known seed is ignored.
	if err := rec.AddSeeds(seeds[:1]); err != nil {
		t.Fatalf("duplicate seed rejected: %v", err)
	}
	if rec.Len() != before {
		t.Fatalf("duplicate seed changed the link count: %d -> %d", before, rec.Len())
	}
	// A seed conflicting with an existing link is an error.
	conflict := reconcile.Pair{Left: seeds[0].Left, Right: seeds[1].Right}
	if err := rec.AddSeeds([]reconcile.Pair{conflict}); err == nil {
		t.Fatal("conflicting seed accepted")
	}

	// Ingest the second half (skipping conflicts with discovered links) and
	// catch up to at least 90% of the one-shot run, as the Session did.
	for _, s := range seeds[half:] {
		_ = rec.AddSeeds([]reconcile.Pair{s})
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	batch := runBatch(t, g1, g2, reconcile.WithSeeds(seeds))
	if rec.Len() < len(batch.Pairs)*90/100 {
		t.Fatalf("incremental reconciler found %d links, batch %d", rec.Len(), len(batch.Pairs))
	}
}

// Progress events must agree 1:1 with the Phases recorded in the Result.
func TestWithProgressMatchesPhases(t *testing.T) {
	g1, g2, seeds := reconcilerInstance(7, 400)
	var events []reconcile.PhaseEvent
	rec, err := reconcile.New(g1, g2,
		reconcile.WithSeeds(seeds),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Phases) {
		t.Fatalf("%d events, %d phases", len(events), len(res.Phases))
	}
	for i, e := range events {
		ph := res.Phases[i]
		if e.Iteration != ph.Iteration || e.MinDegree != ph.MinDegree ||
			e.Matched != ph.Matched || e.TotalLinks != ph.TotalL {
			t.Fatalf("event %d = %+v disagrees with phase %+v", i, e, ph)
		}
		if e.Bucket < 1 || e.Bucket > e.Buckets {
			t.Fatalf("event %d: bucket %d of %d", i, e.Bucket, e.Buckets)
		}
	}
}

// TestResultViewsStayFixed pins the contract of every Result a Reconciler
// hands out: Pairs, NewPairs and Phases are read-only views of the
// append-only link log and the phase window. A Result taken from Run,
// RunUntilStable, Resume, Result or a progress hook mid-run still reads as
// it did when taken after later ingests grow the matching past it and later
// sweeps slide the phase window past it, and a caller's append to its
// slices reallocates instead of reaching the Reconciler.
func TestResultViewsStayFixed(t *testing.T) {
	// A sparse instance, so that many true links stay to be ingested.
	r := reconcile.NewRand(8)
	g1, g2 := reconcile.IndependentCopies(r, reconcile.GeneratePA(r, 2000, 3), 0.5, 0.5)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(2000), 0.05)

	type held struct {
		from            string
		res             *reconcile.Result
		pairs, newPairs []reconcile.Pair // copies made when res was taken
		phases          []reconcile.PhaseStat
	}
	var taken []held
	hold := func(from string, res *reconcile.Result) {
		taken = append(taken, held{from, res, slices.Clone(res.Pairs), slices.Clone(res.NewPairs), slices.Clone(res.Phases)})
	}
	// ingest adds up to 20 true links (the copies share node IDs) whose
	// endpoints are both still unlinked, so every ingest grows the matching.
	next := 0
	ingest := func(rec *reconcile.Reconciler) {
		t.Helper()
		usedL, usedR := map[reconcile.NodeID]bool{}, map[reconcile.NodeID]bool{}
		for _, p := range rec.Result().Pairs {
			usedL[p.Left], usedR[p.Right] = true, true
		}
		var fresh []reconcile.Pair
		for ; next < g1.NumNodes() && len(fresh) < 20; next++ {
			if v := reconcile.NodeID(next); !usedL[v] && !usedR[v] {
				fresh = append(fresh, reconcile.Pair{Left: v, Right: v})
			}
		}
		if len(fresh) == 0 {
			t.Fatal("no unlinked node left to ingest")
		}
		if err := rec.AddSeeds(fresh); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rec *reconcile.Reconciler
	hooked := false
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds),
		reconcile.WithProgress(func(e reconcile.PhaseEvent) {
			// The first bucket that links something, mid-sweep.
			if !hooked && e.Matched > 0 && e.Bucket < e.Buckets {
				hooked = true
				hold("progress hook", rec.Result())
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: err = %v, want the hook's cancel", err)
	}
	hold("Run", res)
	if res, err = rec.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	hold("Resume", res)
	ingest(rec)
	if res, err = rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	hold("RunUntilStable", res)
	ingest(rec)
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	hold("Result", rec.Result())
	last := rec.Len()
	for i := 0; i < 3; i++ {
		ingest(rec)
		if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() <= last {
		t.Fatalf("later ingests left the matching at %d links; the views are not tested past their length", last)
	}
	// Slide the phase window past every held one: the session drops whole
	// sweeps from its front and keeps appending behind them.
	newest := 0
	for _, h := range taken {
		newest = max(newest, h.phases[len(h.phases)-1].Iteration)
	}
	for rec.Result().Phases[0].Iteration <= newest {
		if _, err := rec.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	for _, h := range taken {
		if !slices.Equal(h.res.Pairs, h.pairs) || !slices.Equal(h.res.NewPairs, h.newPairs) {
			t.Fatalf("%s: Result changed after the matching grew from %d to %d links", h.from, len(h.pairs), rec.Len())
		}
		if !slices.Equal(h.res.Phases, h.phases) {
			t.Fatalf("%s: Phases changed after the window slid past sweep %d", h.from, newest)
		}
		if cap(h.res.Phases) != len(h.res.Phases) {
			t.Fatalf("%s: Phases has spare capacity (%d/%d), so an append would write into the window",
				h.from, len(h.res.Phases), cap(h.res.Phases))
		}
		if !slices.Equal(h.res.NewPairs, h.res.Pairs[h.res.Seeds:]) {
			t.Fatalf("%s: NewPairs is not Pairs[Seeds:]", h.from)
		}
		if cap(h.res.Pairs) != len(h.res.Pairs) || cap(h.res.NewPairs) != len(h.res.NewPairs) {
			t.Fatalf("%s: views have spare capacity (Pairs %d/%d, NewPairs %d/%d), so an append would write into the log",
				h.from, len(h.res.Pairs), cap(h.res.Pairs), len(h.res.NewPairs), cap(h.res.NewPairs))
		}
	}

	// A caller's append to the current views must reach neither the next
	// Result nor the state.
	cur := rec.Result()
	want, wantPhases := slices.Clone(cur.Pairs), slices.Clone(cur.Phases)
	var before bytes.Buffer
	if err := rec.SnapshotState(&before); err != nil {
		t.Fatal(err)
	}
	stray := reconcile.Pair{Left: 1<<32 - 2, Right: 1<<32 - 2}
	strayPhase := reconcile.PhaseStat{Iteration: -1}
	_ = append(cur.Pairs, stray)
	_ = append(cur.NewPairs, stray)
	_ = append(cur.Phases, strayPhase)
	for _, h := range taken {
		_ = append(h.res.Pairs, stray)
		_ = append(h.res.NewPairs, stray)
		_ = append(h.res.Phases, strayPhase)
	}
	again := rec.Result()
	if !slices.Equal(again.Pairs, want) || !slices.Equal(again.NewPairs, want[again.Seeds:]) ||
		!slices.Equal(again.Phases, wantPhases) {
		t.Fatal("appending to a Result's slices changed the next Result")
	}
	var after bytes.Buffer
	if err := rec.SnapshotState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("appending to a Result's slices changed the SnapshotState bytes")
	}
	// The next sweep appends to the window; the stray entries must not
	// show in it.
	if _, err := rec.RunUntilStable(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(rec.Result().Phases, strayPhase) {
		t.Fatal("appending to a Result's Phases reached the window")
	}
}

// TestConvergedRunCopiesNoLinks pins that a sweep of a converged Reconciler
// and the Results it hands out allocate neither in proportion to the link
// log nor to the phase window: Run, RunUntilStable and Result return views
// of both instead of copies. It is an exact count, so it holds on any
// hardware.
func TestConvergedRunCopiesNoLinks(t *testing.T) {
	inst := makeInstance(10000, 10)
	rec, err := reconcile.New(inst.g1, inst.g2, reconcile.WithSeeds(inst.seeds))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rec.RunUntilStable(ctx, 10); err != nil {
		t.Fatal(err)
	}
	// The least of three readings was 352 bytes at -cpu 1,2,4,8 and under
	// -race: the two Result headers and the sweep's bucket schedules; the
	// bound adds one 32-byte size class. A sweep that slides the phase
	// window reallocates it now and then, which the least of three leaves
	// out; a copy of the window (45 entries of 32 bytes here, per Result)
	// or of the link log does not fit.
	const bound = 384
	if pairLog := uint64(rec.Len()) * uint64(unsafe.Sizeof(reconcile.Pair{})); pairLog < 4*bound {
		t.Fatalf("the %d-byte pair log is too small to tell a pair copy from the phase log (bound %d)", pairLog, bound)
	}
	var least uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := rec.RunUntilStable(ctx, 1)
		again := rec.Result()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pairs) != rec.Len() || len(again.Pairs) != rec.Len() {
			t.Fatalf("Results hold %d and %d links, the Reconciler %d", len(res.Pairs), len(again.Pairs), rec.Len())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; try == 0 || grew < least {
			least = grew
		}
	}
	if least > bound {
		t.Fatalf("a converged sweep and two Results allocated %d bytes, want at most %d whatever the %d links", least, bound, rec.Len())
	}
}
