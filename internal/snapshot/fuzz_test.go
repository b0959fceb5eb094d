package snapshot

import (
	"bytes"
	"context"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/gen"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/sampling"
	"github.com/sociograph/reconcile/internal/xrand"
)

// FuzzSnapshotRoundTrip drives the codec over random sessions — random
// graphs × option combinations × partial runs stopped at a random bucket
// boundary — and pins, per input:
//
//   - decode(encode(s)) == s, both as values (deep equality of graphs and
//     state) and as bytes (the encoding is canonical, so re-encoding the
//     decoded value is byte-identical);
//   - the restored session finishes bit-identically to the original;
//   - corrupting or truncating the stream at a seed-derived position
//     returns an error — never a panic, never a silently-wrong snapshot.
//
// Run the smoke corpus with the normal test suite, or explore with
//
//	go test -fuzz=FuzzSnapshotRoundTrip -fuzztime=20s ./internal/snapshot
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint16(0), uint8(0))
	f.Add(uint64(2), uint16(140), uint16(0x35), uint8(3))
	f.Add(uint64(3), uint16(250), uint16(0x1ff), uint8(7))
	f.Add(uint64(77), uint16(180), uint16(0x0aa), uint8(1))
	f.Add(uint64(1234), uint16(90), uint16(0x155), uint8(12))
	f.Add(uint64(5), uint16(120), uint16(0x304), uint8(6)) // the frontier path

	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, cfg uint16, stopRaw uint8) {
		// Derive a small instance the way FuzzEngineEquivalence does: PA
		// parent, independent edge-sampled copies, Bernoulli seed reveal.
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
		stop := int(stopRaw) % (totalBuckets + 1) // 0 = snapshot before any bucket
		if stop > 0 {
			ctx, cancel := context.WithCancel(context.Background())
			buckets := 0
			s.SetProgress(func(core.PhaseEvent) {
				buckets++
				if buckets == stop {
					cancel()
				}
			})
			s.Run(ctx, opts.Iterations)
			s.SetProgress(nil)
			cancel()
		}
		st := s.ExportState()

		var buf bytes.Buffer
		if err := Write(&buf, g1, g2, st); err != nil {
			t.Fatalf("encode: %v", err)
		}
		data := buf.Bytes()

		rg1, rg2, rst, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if err := rg1.Validate(); err != nil {
			t.Fatalf("decoded g1: %v", err)
		}
		if err := rg2.Validate(); err != nil {
			t.Fatalf("decoded g2: %v", err)
		}
		if !stateEqual(st, rst) {
			t.Fatal("decode(encode(state)) != state")
		}
		var again bytes.Buffer
		if err := Write(&again, rg1, rg2, rst); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(data, again.Bytes()) {
			t.Fatal("encoding is not canonical: re-encoded bytes differ")
		}

		// The restored session must finish bit-identically to the original.
		restored, err := core.RestoreSession(rg1, rg2, rst)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		finish := func(s *core.Session) *core.Result {
			s.Run(context.Background(), opts.Iterations-s.Sweeps())
			return s.Result()
		}
		want, got := finish(s), finish(restored)
		if len(want.Pairs) != len(got.Pairs) || len(want.Phases) != len(got.Phases) {
			t.Fatalf("restored run diverged: %d pairs / %d phases, want %d / %d",
				len(got.Pairs), len(got.Phases), len(want.Pairs), len(want.Phases))
		}
		for i := range want.Pairs {
			if want.Pairs[i] != got.Pairs[i] {
				t.Fatalf("restored run diverged at pair %d: %v vs %v", i, got.Pairs[i], want.Pairs[i])
			}
		}
		for i := range want.Phases {
			if want.Phases[i] != got.Phases[i] {
				t.Fatalf("restored run diverged at phase %d", i)
			}
		}

		// Corruption and truncation at seed-derived positions must error,
		// never panic. A CRC trailer guards the whole stream, so any flip is
		// detectable; flips in length fields additionally exercise the
		// bounded-allocation paths.
		cut := int(seed) % len(data)
		if _, _, _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		for delta := uint64(0); delta < 3; delta++ {
			pos := int((seed/7 + delta*2654435761) % uint64(len(data)))
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << (seed % 8)
			if mut[pos] == data[pos] {
				mut[pos] ^= 1
			}
			if _, _, _, err := Read(bytes.NewReader(mut)); err == nil {
				t.Fatalf("byte flip at %d accepted", pos)
			}
		}
	})
}
