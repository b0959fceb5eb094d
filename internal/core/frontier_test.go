package core

import (
	"context"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"github.com/sociograph/reconcile/internal/graph"
)

func TestFrontierMatchesNaive(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g1, g2, seeds := testInstance(seed, 120)
		opts := pathFrontier.on(DefaultOptions())
		opts.Threshold = 2
		res, err := Reconcile(context.Background(), g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveReconcile(t, g1, g2, seeds, opts)
		if !pairsEqual(res.Pairs, want) {
			t.Fatalf("seed %d: engine %d pairs, naive %d pairs", seed, len(res.Pairs), len(want))
		}
	}
}

// TestFrontierMatchesSequential pins the frontier across the whole option
// surface: for random instances and every combination of tie policy,
// scoring, bucketing, margin and threshold, the frontier path must produce
// the exact pair sequence and phase statistics of the single-worker full
// scan.
func TestFrontierMatchesSequential(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g1, g2, seeds := testInstance(seed, 300)
		for _, ties := range []TieBreak{TieReject, TieLowestID} {
			for _, scoring := range []Scoring{ScoreWitnessCount, ScoreAdamicAdar} {
				for _, nobuck := range []bool{false, true} {
					opts := DefaultOptions()
					opts.Threshold = 1 + int(seed%3)
					opts.MinMargin = int(seed % 2)
					opts.Ties = ties
					opts.Scoring = scoring
					opts.DisableBucketing = nobuck
					opts = pathSequential.on(opts)
					seq, err := Reconcile(context.Background(), g1, g2, seeds, opts)
					if err != nil {
						return false
					}
					for _, workers := range []int{0, 1, 3} {
						opts = pathFrontier.on(opts)
						opts.Workers = workers
						fr, err := Reconcile(context.Background(), g1, g2, seeds, opts)
						if err != nil {
							return false
						}
						if !resultsIdentical(seq, fr) {
							t.Logf("mismatch: seed=%d ties=%v scoring=%v nobuck=%v workers=%d",
								seed, ties, scoring, nobuck, workers)
							return false
						}
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 6})
	if err != nil {
		t.Error(err)
	}
}

// resultsIdentical requires bit-identical results: same pairs in the same
// discovery order, the same per-bucket phase statistics (the retained
// window), and the same cumulative totals.
func resultsIdentical(a, b *Result) bool {
	if len(a.Pairs) != len(b.Pairs) || len(a.Phases) != len(b.Phases) || a.Seeds != b.Seeds ||
		a.Totals != b.Totals {
		return false
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return false
		}
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			return false
		}
	}
	return true
}

// TestFrontierIncrementalMatchesSequential drives the same multi-run
// schedule — run, ingest late seeds, run again, run to convergence — on both
// paths and requires identical state at the end. This is the production
// Session workflow the frontier's persistent caches must survive.
func TestFrontierIncrementalMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{3, 9, 27} {
		g1, g2, seeds := testInstance(seed, 400)
		half := len(seeds) / 2
		run := func(p testPath) *Result {
			s, err := NewSession(g1, g2, seeds[:half], p.on(DefaultOptions()))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(context.Background(), 1)
			// A link discovered in the first run may conflict with a late
			// seed; the error and the partial seed application must be
			// identical across paths, so it is data, not a failure.
			if err := s.AddSeeds(seeds[half:]); err != nil {
				t.Logf("%s: AddSeeds: %v", p.name, err)
			}
			s.Run(context.Background(), 1)
			s.RunUntilStable(context.Background(), 4)
			return s.Result()
		}
		seq := run(pathSequential)
		fr := run(pathFrontier)
		if !resultsIdentical(seq, fr) {
			t.Fatalf("seed %d: incremental schedule diverged: seq %d pairs, frontier %d pairs",
				seed, len(seq.Pairs), len(fr.Pairs))
		}
	}
}

// TestFrontierCancelPartialResult cancels a frontier run at every bucket
// boundary in turn and checks that each partial Result is a valid prefix of
// the full run: the same leading pairs (monotonicity — links are never
// retracted), injective, and every discovered link has at least Threshold
// similarity witnesses under the partial matching itself (witness counts
// only grow with the matching, so clearing T at commit time implies clearing
// it under any later matching).
func TestFrontierCancelPartialResult(t *testing.T) {
	g1, g2, seeds := testInstance(5, 400)
	opts := pathFrontier.on(DefaultOptions())

	full, err := Reconcile(context.Background(), g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	totalBuckets := len(full.Phases)
	if totalBuckets < 4 {
		t.Fatalf("instance too small to cancel mid-run: %d buckets", totalBuckets)
	}

	for stop := 1; stop < totalBuckets; stop++ {
		ctx, cancel := context.WithCancel(context.Background())
		buckets := 0
		s, err := NewSession(g1, g2, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.SetProgress(func(e PhaseEvent) {
			buckets++
			if buckets == stop {
				cancel()
			}
		})
		_, err = s.Run(ctx, opts.Iterations)
		res := s.Result()
		cancel()
		if err != context.Canceled {
			t.Fatalf("stop=%d: err = %v, want context.Canceled", stop, err)
		}
		if len(res.Phases) != stop {
			t.Fatalf("stop=%d: ran %d buckets", stop, len(res.Phases))
		}

		// Prefix of the full run, pair for pair.
		if len(res.Pairs) > len(full.Pairs) {
			t.Fatalf("stop=%d: partial has %d pairs, full only %d", stop, len(res.Pairs), len(full.Pairs))
		}
		for i, p := range res.Pairs {
			if full.Pairs[i] != p {
				t.Fatalf("stop=%d: pair %d is %v, full run has %v — not a prefix", stop, i, p, full.Pairs[i])
			}
		}

		// Injective, and discoveries clear the threshold under the partial
		// matching.
		m, err := NewMatching(g1.NumNodes(), g2.NumNodes(), res.Pairs)
		if err != nil {
			t.Fatalf("stop=%d: partial result not injective: %v", stop, err)
		}
		if err := m.validateInjective(); err != nil {
			t.Fatalf("stop=%d: %v", stop, err)
		}
		for _, p := range res.Pairs[res.Seeds:] {
			if s := SimilarityWitnesses(g1, g2, m, p.Left, p.Right); s < opts.Threshold {
				t.Fatalf("stop=%d: discovered pair %v has %d witnesses < T=%d", stop, p, s, opts.Threshold)
			}
		}
	}
}

// TestFrontierSkipsCleanNodes pins the scheduling claim itself: once a sweep
// commits nothing, every cache is clean and further sweeps re-score nothing,
// where the full engines would rescan both node sets every pass.
func TestFrontierSkipsCleanNodes(t *testing.T) {
	g1, g2, seeds := testInstance(13, 600)
	opts := pathFrontier.on(DefaultOptions())
	s, err := NewSession(g1, g2, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilStable(context.Background(), 10)
	afterStable := s.fr.rescored
	live := 0
	for _, w := range s.fr.live {
		live += bits.OnesCount64(w)
	}
	scanned := s.fr.scanned

	// The stable sweep found nothing, so no node was invalidated.
	s.Run(context.Background(), 1)
	if got := s.fr.rescored; got != afterStable {
		t.Fatalf("converged sweep re-scored %d nodes, want 0", got-afterStable)
	}
	// Its commit scans read only live rows — at most what the live sets held
	// when it began — where a scan of every row reads n1 per bucket.
	got := s.fr.scanned - scanned
	if got > int64(live) {
		t.Fatalf("converged sweep's commit scans read %d rows, the live sets held %d", got, live)
	}
	if perRow := int64(g1.NumNodes()) * int64(len(s.fr.levels)); got*4 > perRow {
		t.Fatalf("converged sweep's commit scans read %d rows, a quarter of the %d a scan of every row reads", got, perRow)
	}
	t.Logf("converged sweep read %d rows (%d live); a scan of every row reads %d", got, live, int64(g1.NumNodes())*int64(len(s.fr.levels)))

	// Sanity-bound the total scheduling work: a full engine scores up to
	// (n1+n2) nodes per bucket pass; the frontier's lifetime total should
	// stay well under the full engines' per-sweep cost times the sweep count.
	passes := len(s.Result().Phases)
	fullWork := int64(g1.NumNodes()+g2.NumNodes()) * int64(passes)
	if s.fr.rescored*2 > fullWork {
		t.Fatalf("frontier re-scored %d nodes over %d passes; full engines would score %d — no scheduling win",
			s.fr.rescored, passes, fullWork)
	}
}

// checkLiveRows requires the frontier's live-row bitsets to agree with its
// cache: every unmatched left node has its bit set at level j exactly when
// its row at level j proposes someone. Matched nodes are exempt; their bits
// may lag until the commit scan meets them.
func checkLiveRows(t *testing.T, s *Session, where string) {
	t.Helper()
	f := s.fr
	nLevels := len(f.levels)
	for v := 0; v < s.g1.NumNodes(); v++ {
		if s.m.left[v] != NoMatch {
			continue
		}
		for j := 0; j < nLevels; j++ {
			set := f.live[j*f.words+v/64]&(1<<(v%64)) != 0
			if row := f.left.cache[v*nLevels+j]; set != (row.score != 0) {
				t.Fatalf("%s: left node %d level %d: live bit %v, row %+v", where, v, j, set, row)
			}
		}
	}
}

// TestFrontierLiveRowInvariant checks the live-row bitsets after every
// frontier bucket and every AddSeeds into a session that holds them: from
// New, after a restore at a sweep boundary, and after a mid-sweep restore,
// at one and four workers, unbucketed, under a MaxDegree override, and
// across the hybrid handoff. A restored session holds no frontier state
// until its first bucket builds it (TestRunStateLifetime), so there the
// AddSeeds only extends the matching and the check comes at that bucket.
func TestFrontierLiveRowInvariant(t *testing.T) {
	g1, g2, seeds := testInstance(17, 2500)
	configs := []struct {
		name string
		set  func(*Options)
	}{
		{"workers1", func(o *Options) { o.Workers = 1 }},
		{"workers4", func(o *Options) { o.Workers = 4 }},
		{"unbucketed", func(o *Options) { o.DisableBucketing = true }},
		{"maxdegree8", func(o *Options) { o.MaxDegree = 8; o.MinBucketExp = 0 }},
		{"hybrid", func(o *Options) { o.pin = pinNone }},
	}
	ctx := context.Background()
	for _, cfg := range configs {
		opts := pathFrontier.on(DefaultOptions())
		cfg.set(&opts)
		t.Run(cfg.name, func(t *testing.T) {
			checked := 0
			hook := func(s *Session, phase string) func(PhaseEvent) {
				return func(ev PhaseEvent) {
					if s.fr != nil {
						checked++
						checkLiveRows(t, s, fmt.Sprintf("%s sweep %d bucket %d", phase, ev.Iteration, ev.Bucket))
					}
				}
			}
			ingest := func(s *Session, phase string) {
				t.Helper()
				extra := unmatchedIdentity(s, 20)
				if len(extra) == 0 {
					t.Fatal("no unmatched identity pairs left to add")
				}
				if err := s.AddSeeds(extra); err != nil {
					t.Fatal(err)
				}
				switch {
				case s.fr != nil:
					checkLiveRows(t, s, phase+" AddSeeds")
				case s.lc != nil:
					t.Fatalf("%s: no frontier state after convergence", phase)
				}
				if _, err := s.RunUntilStable(ctx, 10); err != nil {
					t.Fatal(err)
				}
			}

			s, err := NewSession(g1, g2, seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			s.SetProgress(hook(s, "new"))
			if _, err := s.RunUntilStable(ctx, 10); err != nil {
				t.Fatal(err)
			}
			converged := s.Sweeps()
			ingest(s, "new")

			// A restore at a sweep boundary builds its frontier state at its
			// first bucket: empty live sets and an all-dirty worklist.
			r, err := RestoreSession(g1, g2, s.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			requireNoRunState(t, r, "restored")
			r.SetProgress(hook(r, "restored"))
			ingest(r, "restored")

			// A restore inside the sweep after convergence, where the hybrid
			// is past its handoff (the unbucketed schedule has no mid-sweep
			// point; it restores at the next boundary).
			nb := len(opts.BucketSchedule(g1, g2))
			mid := runToBoundary(t, g1, g2, seeds, opts, converged+2, converged*nb+(nb+1)/2)
			r, err = RestoreSession(g1, g2, mid.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			if opts.pin == pinNone && !r.FrontierActive() {
				t.Fatal("mid-sweep restore is not in the frontier regime")
			}
			requireNoRunState(t, r, "mid-sweep")
			r.SetProgress(hook(r, "mid-sweep"))
			finishSchedule(t, r, converged+2)
			ingest(r, "mid-sweep")
			if checked == 0 {
				t.Fatal("no frontier bucket was checked")
			}
		})
	}
}

// TestFrontierAddSeedsReactivates checks that seed ingestion after
// convergence re-opens exactly the neighborhoods of the new links: the next
// run re-scores something, discovers whatever the full scan would,
// and goes idle again.
func TestFrontierAddSeedsReactivates(t *testing.T) {
	g1, g2, seeds := testInstance(21, 500)
	if len(seeds) < 8 {
		t.Fatal("instance has too few seeds")
	}
	late := seeds[len(seeds)-4:]
	early := seeds[:len(seeds)-4]

	o := pathFrontier.on(DefaultOptions())
	s, err := NewSession(g1, g2, early, o)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntilStable(context.Background(), 10)
	idle := s.fr.rescored
	s.Run(context.Background(), 1)
	if s.fr.rescored != idle {
		t.Fatal("converged session not idle")
	}

	// Keep only late seeds that do not collide with links the first phase
	// already discovered, so at least one genuinely new link is ingested.
	fresh := late[:0:0]
	for _, p := range late {
		if s.m.LeftMatch(p.Left) == NoMatch && s.m.RightMatch(p.Right) == NoMatch {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("all late seeds collide with discovered links; pick another instance seed")
	}
	late = fresh
	if err := s.AddSeeds(late); err != nil {
		t.Fatal(err)
	}
	s.RunUntilStable(context.Background(), 10)
	if s.fr.rescored == idle {
		t.Fatal("AddSeeds did not re-open the frontier")
	}

	// Same final state as the single-worker full scan driven through the same
	// schedule.
	oSeq := o
	oSeq = pathSequential.on(oSeq)
	sq, err := NewSession(g1, g2, early, oSeq)
	if err != nil {
		t.Fatal(err)
	}
	sq.RunUntilStable(context.Background(), 10)
	sq.Run(context.Background(), 1)
	if err := sq.AddSeeds(late); err != nil {
		t.Fatal(err)
	}
	sq.RunUntilStable(context.Background(), 10)
	if !pairsEqual(s.Result().Pairs, sq.Result().Pairs) {
		t.Fatalf("post-AddSeeds states diverge: frontier %d pairs, sequential %d",
			s.Len(), sq.Len())
	}
}

// TestFrontierValidateAccepts pins that every path's options validate.
func TestFrontierValidateAccepts(t *testing.T) {
	for _, p := range testPaths {
		if err := p.on(DefaultOptions()).Validate(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
	}
}

// TestFrontierEmptyAndTinyGraphs exercises degenerate shapes the worklists
// must survive: empty sides, no seeds, single nodes.
func TestFrontierEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	one := graph.FromEdges(1, nil)
	o := pathFrontier.on(DefaultOptions())
	for _, tc := range []struct {
		name   string
		g1, g2 *graph.Graph
	}{
		{"both empty", empty, empty},
		{"left empty", empty, one},
		{"right empty", one, empty},
		{"singletons", one, one},
	} {
		res, err := Reconcile(context.Background(), tc.g1, tc.g2, nil, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Pairs) != 0 {
			t.Fatalf("%s: found %d pairs in trivial instance", tc.name, len(res.Pairs))
		}
	}
}
