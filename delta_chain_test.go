package reconcile_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/sociograph/reconcile"
)

// chainRanges are the range counts the chain suites run over: the
// one-record chain every small job writes, and a ranged chain with tails.
var chainRanges = []int{1, 4}

// chainCheckpoint is one checkpoint of a victim run: its range records
// (full state records or deltas, head first) plus the monolithic state
// snapshot of the same moment, for the bit-identity comparison.
type chainCheckpoint struct {
	full       bool
	records    [][]byte
	monolithic []byte
}

// writeChain checkpoints a victim run at every bucket boundary with a
// Checkpointer of the given range count — one full, then deltas — and
// returns the chain.
func writeChain(t *testing.T, g1, g2 *reconcile.Graph, ranges int, opts []reconcile.Option) []chainCheckpoint {
	t.Helper()
	var chain []chainCheckpoint
	ckpt := reconcile.NewCheckpointer(ranges)
	var victim *reconcile.Reconciler
	victim, err := reconcile.New(g1, g2, append(opts,
		reconcile.WithProgress(func(reconcile.PhaseEvent) {
			ck, err := ckpt.Prepare(victim, len(chain) == 0)
			if errors.Is(err, reconcile.ErrFullRequired) {
				// The hybrid handoff just landed; re-anchor the chain.
				ck, err = ckpt.Prepare(victim, true)
			}
			if err != nil {
				t.Errorf("prepare checkpoint %d: %v", len(chain), err)
				return
			}
			rec := chainCheckpoint{full: ck.Full(), records: make([][]byte, ck.Ranges())}
			for j := range rec.records {
				var buf bytes.Buffer
				if err := ck.Encode(j, &buf); err != nil {
					t.Errorf("encode range %d of checkpoint %d: %v", j, len(chain), err)
					return
				}
				rec.records[j] = buf.Bytes()
			}
			ckpt.Commit(ck)
			var mono bytes.Buffer
			if err := victim.SnapshotState(&mono); err != nil {
				t.Errorf("monolithic checkpoint: %v", err)
				return
			}
			rec.monolithic = mono.Bytes()
			chain = append(chain, rec)
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return chain
}

// readRanges decodes one full checkpoint's range records.
func readRanges(t *testing.T, c chainCheckpoint) []*reconcile.SessionState {
	t.Helper()
	parts := make([]*reconcile.SessionState, len(c.records))
	for j, raw := range c.records {
		var err error
		if parts[j], err = reconcile.ReadSessionState(bytes.NewReader(raw)); err != nil {
			t.Fatalf("read range %d: %v", j, err)
		}
	}
	return parts
}

// readDeltas decodes one delta checkpoint's range records.
func readDeltas(t *testing.T, c chainCheckpoint) []*reconcile.StateDelta {
	t.Helper()
	deltas := make([]*reconcile.StateDelta, len(c.records))
	for j, raw := range c.records {
		var err error
		if deltas[j], err = reconcile.ReadStateDelta(bytes.NewReader(raw)); err != nil {
			t.Fatalf("read delta range %d: %v", j, err)
		}
	}
	return deltas
}

// replayRanges reconstructs the range states at chain[cut] from bytes
// alone: decode the last full's range records, then apply each later
// checkpoint's range deltas all or nothing.
func replayRanges(t *testing.T, chain []chainCheckpoint, cut int) []*reconcile.SessionState {
	t.Helper()
	base := cut
	for base > 0 && !chain[base].full {
		base--
	}
	parts := readRanges(t, chain[base])
	for i := base + 1; i <= cut; i++ {
		var err error
		if parts, err = reconcile.ApplyRanges(parts, readDeltas(t, chain[i])); err != nil {
			t.Fatalf("cut %d: apply checkpoint %d: %v", cut, i, err)
		}
	}
	return parts
}

// replayChain is replayRanges merged once, at the end of the chain.
func replayChain(t *testing.T, chain []chainCheckpoint, cut int) *reconcile.SessionState {
	t.Helper()
	st, err := reconcile.MergeRanges(replayRanges(t, chain, cut))
	if err != nil {
		t.Fatalf("cut %d: merge: %v", cut, err)
	}
	return st
}

// TestDeltaChainResumeEquivalence extends the resume-equivalence guarantee
// to checkpoint chains, on all four engines: a run checkpointed as
// (full + per-bucket deltas) one record per checkpoint, cut at any
// checkpoint, replayed and resumed, finishes bit-identically to the run
// that was never interrupted — and the replayed state is byte-identical to
// the monolithic snapshot taken at the same boundary, so restore-from-chain
// and restore-from-snapshot are the same operation. The hybrid row runs a
// schedule long enough to cross its regime handoff, whose checkpoint is not
// delta-expressible: the chain must re-anchor with a full there
// (ErrFullRequired) and keep replaying.
func TestDeltaChainResumeEquivalence(t *testing.T) {
	chainResumeSuite(t, 1)
}

// TestRangedChainResumeEquivalence is the same suite over four node
// ranges: each checkpoint is a head and three tails, replayed range by
// range and merged once, and it must restore exactly what the one-record
// chain restores.
func TestRangedChainResumeEquivalence(t *testing.T) {
	chainResumeSuite(t, 4)
}

// chainResumeSuite runs chainResumeEquivalence on every engine over chains
// of the given range count.
func chainResumeSuite(t *testing.T, ranges int) {
	g1, g2, seeds := snapshotInstance(t)
	for _, engine := range []reconcile.Engine{reconcile.EngineFrontier, reconcile.EngineParallel, reconcile.EngineSequential, reconcile.EngineHybrid} {
		t.Run(engine.String(), func(t *testing.T) {
			iterations := 3
			if engine == reconcile.EngineHybrid {
				iterations = 8 // commits decay to zero and the handoff fires mid-chain
			}
			opts := []reconcile.Option{
				reconcile.WithSeeds(seeds),
				reconcile.WithEngine(engine),
				reconcile.WithIterations(iterations),
			}
			ref, err := reconcile.New(g1, g2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(want.NewPairs) == 0 {
				t.Fatal("reference run found nothing; instance too weak")
			}
			chainResumeEquivalence(t, g1, g2, engine, ranges, opts, want)
		})
	}
}

func chainResumeEquivalence(t *testing.T, g1, g2 *reconcile.Graph, engine reconcile.Engine, ranges int, opts []reconcile.Option, want *reconcile.Result) {
	chain := writeChain(t, g1, g2, ranges, opts)
	if len(chain) != len(want.Phases) {
		t.Fatalf("victim checkpointed %d times, want one per phase (%d)", len(chain), len(want.Phases))
	}
	for i, c := range chain {
		if len(c.records) != ranges {
			t.Fatalf("checkpoint %d has %d range records, want %d", i, len(c.records), ranges)
		}
	}
	// The hybrid chain must actually contain the re-anchoring full —
	// otherwise the schedule never crossed the handoff and the row proves
	// nothing extra.
	anchored := false
	for _, c := range chain[1:] {
		anchored = anchored || c.full
	}
	if engine == reconcile.EngineHybrid && !anchored {
		t.Fatal("hybrid chain has no mid-chain full; the handoff never fired")
	}

	for _, cut := range []int{0, 1, len(chain) / 2, len(chain) - 1} {
		// "New process": replay from the last full at or before the cut,
		// from bytes alone.
		restored, err := reconcile.RestoreSessionState(g1, g2, replayChain(t, chain, cut))
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		// Bit-identity of the replayed state: re-snapshotting it yields the
		// exact bytes of the monolithic snapshot taken at the same boundary.
		var again bytes.Buffer
		if err := restored.SnapshotState(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), chain[cut].monolithic) {
			t.Fatalf("cut %d: replayed state differs from the monolithic snapshot", cut)
		}
		// And the resumed run finishes bit-identically.
		got, err := restored.Resume(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut %d: chain-restored run diverged: %d pairs / %d phases, want %d / %d",
				cut, len(got.Pairs), len(got.Phases), len(want.Pairs), len(want.Phases))
		}
	}

	// A delta checkpoint applied out of order is refused, not replayed
	// wrongly.
	if len(chain) > 2 && !chain[1].full && !chain[2].full {
		if _, err := reconcile.ApplyRanges(readRanges(t, chain[0]), readDeltas(t, chain[2])); err == nil {
			t.Fatal("delta checkpoint 2 applied directly onto the full (gap undetected)")
		}
	}
	// Tails of one checkpoint do not merge under another checkpoint's
	// head: a mixed checkpoint is refused.
	if last := len(chain) - 1; ranges > 1 && last > 0 {
		parts := readRanges(t, chain[0])
		parts[0] = replayRanges(t, chain, last)[0]
		if _, err := reconcile.MergeRanges(parts); err == nil {
			t.Fatal("merged checkpoint-0 tails under the final head (mixed checkpoint undetected)")
		}
	}
}

// TestCheckpointerFullRequired pins the Checkpointer's contract on a
// one-range chain: a fresh checkpointer demands a full first, a committed
// full makes deltas possible, Reset demands a full again, and the zero
// value writes one range.
func TestCheckpointerFullRequired(t *testing.T) {
	checkpointerContract(t, 1)
	var zero reconcile.Checkpointer
	if got := zero.Ranges(); got != 1 {
		t.Fatalf("zero Checkpointer ranges: %d, want 1", got)
	}
}

// TestRangedCheckpointerContract pins the same contract over four ranges,
// and the edges of the range count: it is clamped and fixed, and
// StateRangeCount scales with graph size under its cap.
func TestRangedCheckpointerContract(t *testing.T) {
	checkpointerContract(t, 4)
	if got := reconcile.NewCheckpointer(0).Ranges(); got != 1 {
		t.Fatalf("ranges clamp low: %d, want 1", got)
	}
	if got := reconcile.NewCheckpointer(10_000).Ranges(); got != reconcile.MaxStateRanges {
		t.Fatalf("ranges clamp high: %d, want %d", got, reconcile.MaxStateRanges)
	}
	for _, tc := range []struct{ n1, n2, target, want int }{
		{600, 600, 0, 1},       // disabled
		{600, 600, 1 << 20, 1}, // small job, one range
		{600, 600, 400, 3},
		{1 << 20, 1 << 20, 1, reconcile.MaxStateRanges}, // capped
	} {
		if got := reconcile.StateRangeCount(tc.n1, tc.n2, tc.target); got != tc.want {
			t.Fatalf("StateRangeCount(%d, %d, %d) = %d, want %d", tc.n1, tc.n2, tc.target, got, tc.want)
		}
	}
}

// checkpointerContract walks a Checkpointer of the given range count
// through full-first, delta-after-commit and Reset.
func checkpointerContract(t *testing.T, ranges int) {
	t.Helper()
	g1, g2, seeds := snapshotInstance(t)
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(seeds))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := reconcile.NewCheckpointer(ranges)
	if _, err := ckpt.Prepare(rec, false); !errors.Is(err, reconcile.ErrFullRequired) {
		t.Fatalf("R=%d: delta without a base: err = %v, want ErrFullRequired", ranges, err)
	}
	ck, err := ckpt.Prepare(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Full() || ck.Ranges() != ranges {
		t.Fatalf("R=%d: full checkpoint: Full=%v Ranges=%d", ranges, ck.Full(), ck.Ranges())
	}
	if err := ck.Encode(ranges, &bytes.Buffer{}); err == nil {
		t.Fatalf("R=%d: encoded a range past the last", ranges)
	}
	ckpt.Commit(ck)
	if ck, err = ckpt.Prepare(rec, false); err != nil {
		t.Fatalf("R=%d: delta after a committed full: %v", ranges, err)
	}
	if ck.Full() || ck.Ranges() != ranges {
		t.Fatalf("R=%d: delta checkpoint: Full=%v Ranges=%d", ranges, ck.Full(), ck.Ranges())
	}
	ckpt.Reset()
	if _, err := ckpt.Prepare(rec, false); !errors.Is(err, reconcile.ErrFullRequired) {
		t.Fatalf("R=%d: delta after Reset: err = %v, want ErrFullRequired", ranges, err)
	}
}

// TestDeltaCheckpointSizeRatio pins the delta chain's economics on the
// incremental benchmark workload (a converged 10k-node frontier session
// ingesting 20 fresh seeds and re-sweeping): the per-sweep delta checkpoint
// must be at least 5x smaller than the full state snapshot it replaces.
func TestDeltaCheckpointSizeRatio(t *testing.T) {
	r := reconcile.NewRand(99)
	g := reconcile.GeneratePA(r, 10000, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.5, 0.5)
	seeds := reconcile.Seeds(r, reconcile.IdentityPairs(10000), 0.10)
	hold := 20
	early, late := seeds[:len(seeds)-hold], seeds[len(seeds)-hold:]

	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(early))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	matchedL := map[reconcile.NodeID]bool{}
	matchedR := map[reconcile.NodeID]bool{}
	for _, p := range rec.Result().Pairs {
		matchedL[p.Left] = true
		matchedR[p.Right] = true
	}
	var fresh []reconcile.Pair
	for _, p := range late {
		if !matchedL[p.Left] && !matchedR[p.Right] {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("no fresh seeds survive; instance too saturated")
	}

	var ckpt reconcile.Checkpointer
	full, err := ckpt.Prepare(rec, true)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Commit(full)
	if err := rec.AddSeeds(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RunUntilStable(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	ck, err := ckpt.Prepare(rec, false)
	if err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := ck.Encode(0, &delta); err != nil {
		t.Fatal(err)
	}
	var fullAfter bytes.Buffer
	if err := rec.SnapshotState(&fullAfter); err != nil {
		t.Fatal(err)
	}
	if delta.Len() == 0 || fullAfter.Len() == 0 {
		t.Fatal("empty checkpoint bytes")
	}
	if ratio := float64(fullAfter.Len()) / float64(delta.Len()); ratio < 5 {
		t.Fatalf("delta checkpoint only %.1fx smaller than full (%d vs %d bytes), want >= 5x",
			ratio, delta.Len(), fullAfter.Len())
	} else {
		t.Logf("delta %d bytes vs full %d bytes: %.0fx smaller", delta.Len(), fullAfter.Len(), ratio)
	}
}
