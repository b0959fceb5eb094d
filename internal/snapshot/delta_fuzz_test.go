package snapshot

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// FuzzDeltaRoundTrip drives the delta codec over random checkpoint pairs —
// random graphs × option combinations, a base exported at one random bucket
// boundary and a target at a later one (with an optional incremental seed in
// between) — and pins, per input:
//
//   - decode(encode(d)) == d, on values and (canonically) on bytes;
//   - ApplyDelta(base, decode(encode(d))) reproduces the target state
//     exactly, so restore from (full + deltas) equals restore from a
//     monolithic snapshot;
//   - applying the delta onto the wrong base errors;
//   - corrupting or truncating the stream at seed-derived positions returns
//     an error — never a panic.
//
// Run the smoke corpus with the normal test suite, or explore with
//
//	go test -fuzz=FuzzDeltaRoundTrip -fuzztime=20s ./internal/snapshot
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint16(0), uint8(0), uint8(2))
	f.Add(uint64(2), uint16(140), uint16(0x35), uint8(1), uint8(4))
	f.Add(uint64(3), uint16(250), uint16(0x1ff), uint8(3), uint8(1))
	f.Add(uint64(77), uint16(180), uint16(0x0aa), uint8(0), uint8(7))
	f.Add(uint64(1234), uint16(90), uint16(0x155), uint8(5), uint8(3))
	f.Add(uint64(5), uint16(120), uint16(0x304), uint8(3), uint8(4)) // the frontier path

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, cfg uint16, stopRaw uint8, gapRaw uint8) {
		// Derive a small instance the way FuzzSnapshotRoundTrip does.
		n := 20 + int(nRaw)%230
		r := xrand.New(seed)
		g := gen.PreferentialAttachment(r, n, 3+int(seed%3))
		g1, g2 := sampling.IndependentCopies(r, g, 0.6, 0.8)
		seeds := sampling.Seeds(r, graph.IdentityPairs(n), 0.15)

		opts := core.DefaultOptions()
		opts.Threshold = 1 + int(cfg&0x3)
		opts.Iterations = 1 + int((cfg>>2)&0x1)
		opts.MinMargin = int((cfg >> 3) & 0x1)
		opts.MinBucketExp = int((cfg >> 4) & 0x1)
		opts.DisableBucketing = cfg&0x20 != 0
		if cfg&0x40 != 0 {
			opts.Ties = core.TieLowestID
		}
		if cfg&0x80 != 0 {
			opts.Scoring = core.ScoreAdamicAdar
		}
		// 0 is the default (hybrid), 1 sequential, 2 parallel, 3 frontier.
		path := pathNames[((cfg>>8)+3)%4]

		s := newOnPath(t, path, g1, g2, seeds, opts)
		totalBuckets := opts.Iterations * len(opts.BucketSchedule(g1, g2))
		stop := int(stopRaw) % (totalBuckets + 1) // base checkpoint position
		gap := 1 + int(gapRaw)%(totalBuckets+1)   // buckets between base and target
		var base, target *core.SessionState
		buckets := 0
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.SetProgress(func(core.PhaseEvent) {
			buckets++
			if buckets == stop {
				base = s.ExportState()
			}
			if buckets == stop+gap {
				cancel()
			}
		})
		if stop == 0 {
			base = s.ExportState()
		}
		s.Run(ctx, opts.Iterations+1)
		s.SetProgress(nil)
		if base == nil {
			base = s.ExportState() // run ended before the stop position
		}
		// An incremental seed between checkpoints, when one is free.
		if cfg&0x10 != 0 {
			for v := 0; v < n; v++ {
				p := graph.Pair{Left: graph.NodeID(v), Right: graph.NodeID(v)}
				if s.AddSeeds([]graph.Pair{p}) == nil {
					break
				}
			}
		}
		target = s.ExportState()

		d, err := core.DiffStates(base, target)
		if errors.Is(err, core.ErrNotDiffable) && base.HybridFrontier != target.HybridFrontier {
			// The hybrid regime handoff landed between the checkpoints; the
			// checkpointer takes a full snapshot there instead of a delta.
			return
		}
		if err != nil {
			t.Fatalf("diff: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, d); err != nil {
			t.Fatalf("encode: %v", err)
		}
		data := buf.Bytes()

		rd, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !deltaEqual(d, rd) {
			t.Fatal("decode(encode(delta)) != delta")
		}
		var again bytes.Buffer
		if err := WriteDelta(&again, rd); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(data, again.Bytes()) {
			t.Fatal("delta encoding is not canonical: re-encoded bytes differ")
		}

		replayed, err := core.ApplyDelta(base, rd)
		if err != nil {
			t.Fatalf("apply decoded delta: %v", err)
		}
		if !stateEqual(target, replayed) {
			t.Fatal("decoded delta replays to a different state")
		}
		if _, err := core.RestoreSession(g1, g2, replayed); err != nil {
			t.Fatalf("restore of replayed state: %v", err)
		}
		// The wrong base is refused (unless base and target share a position,
		// i.e. the delta is empty and the bases are interchangeable).
		if target.Sweeps != base.Sweeps || target.NextBucket != base.NextBucket ||
			len(target.Pairs) != len(base.Pairs) || len(target.Phases) != len(base.Phases) {
			if _, err := core.ApplyDelta(target, rd); err == nil {
				t.Fatal("delta applied onto the wrong base")
			}
		}

		// Corruption and truncation at seed-derived positions must error,
		// never panic.
		cut := int(seed) % len(data)
		if _, err := ReadDelta(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		for delta := uint64(0); delta < 3; delta++ {
			pos := int((seed/7 + delta*2654435761) % uint64(len(data)))
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << (seed % 8)
			if mut[pos] == data[pos] {
				mut[pos] ^= 1
			}
			if _, err := ReadDelta(bytes.NewReader(mut)); err == nil {
				t.Fatalf("byte flip at %d accepted", pos)
			}
		}
	})
}
