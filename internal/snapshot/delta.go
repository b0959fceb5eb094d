package snapshot

import (
	"fmt"
	"io"

	"github.com/sociograph/reconcile/internal/core"
)

// Delta records share the stream framing of every other snapshot kind —
// magic, version, kind byte, CRC32 trailer — and the same canonicality and
// defensive-decode rules: one byte stream per value, allocations bounded by
// bytes actually read, and corrupt or truncated input errors out, never
// panics. A delta is O(links and phases added since the last checkpoint) on
// the wire, which is what makes per-sweep checkpoints cheap at paper scale;
// core.ApplyDelta replays it onto the base state bit-identically. Like a
// state payload, a delta payload ends with the frontier flag (see Version):
// always 0 when written, a legacy cache-edit section skipped when 1.

// WriteDelta writes a delta record (core.DiffStates output) as a framed
// stream.
func WriteDelta(w io.Writer, d *core.StateDelta) error {
	return write(w, kindDelta, func(ew *writer) error { return encodeDelta(ew, d) })
}

// ReadDelta reads a delta record written by WriteDelta.
func ReadDelta(r io.Reader) (*core.StateDelta, error) {
	var d *core.StateDelta
	err := read(r, kindDelta, func(er *reader, v uint64) error {
		var derr error
		d, derr = decodeDelta(er, v)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// deltaPositions flattens the scalar position fields into wire order, shared
// by encode and decode so the two cannot drift.
func deltaPositions(d *core.StateDelta) []struct {
	v    *int
	what string
} {
	return []struct {
		v    *int
		what string
	}{
		{&d.BasePairs, "base pair count"},
		{&d.BasePhases, "base phase count"},
		{&d.BaseSweeps, "base sweep count"},
		{&d.BaseNextBucket, "base bucket position"},
		{&d.Sweeps, "sweep count"},
		{&d.NextBucket, "bucket position"},
	}
}

// deltaWindowFields flattens the version-2 phase-window scalars into wire
// order, shared by encode and decode so the two cannot drift.
func deltaWindowFields(d *core.StateDelta) []struct {
	v    *int
	what string
} {
	return []struct {
		v    *int
		what string
	}{
		{&d.BasePhasesDropped, "base evicted phase count"},
		{&d.PhasesDropped, "evicted phase count"},
		{&d.DroppedMatched, "evicted match count"},
	}
}

func encodeDelta(w *writer, d *core.StateDelta) error {
	for _, f := range deltaPositions(d) {
		if err := w.uint(*f.v, f.what); err != nil {
			return err
		}
	}
	for _, f := range deltaWindowFields(d) {
		if err := w.uint(*f.v, f.what); err != nil {
			return err
		}
	}
	hybrid := byte(0)
	if d.HybridFrontier {
		hybrid = 1
	}
	if err := w.byte(hybrid); err != nil {
		return err
	}
	if err := w.uint(len(d.NewPairs), "new pair count"); err != nil {
		return err
	}
	if err := writeU32s(w, 2*len(d.NewPairs), func(i int) uint32 {
		if i%2 == 0 {
			return uint32(d.NewPairs[i/2].Left)
		}
		return uint32(d.NewPairs[i/2].Right)
	}); err != nil {
		return err
	}
	if err := w.uint(len(d.NewPhases), "new phase count"); err != nil {
		return err
	}
	for _, ph := range d.NewPhases {
		for _, f := range []struct {
			v    int
			what string
		}{
			{ph.Iteration, "phase iteration"},
			{ph.MinDegree, "phase min degree"},
			{ph.Matched, "phase matched"},
			{ph.TotalL, "phase total"},
		} {
			if err := w.uint(f.v, f.what); err != nil {
				return err
			}
		}
	}

	return w.byte(0) // the frontier flag: no legacy frontier section
}

func decodeDelta(r *reader, version uint64) (*core.StateDelta, error) {
	d := &core.StateDelta{}
	for _, f := range deltaPositions(d) {
		v, err := r.uint(f.what)
		if err != nil {
			return nil, err
		}
		*f.v = v
	}
	if version >= 2 {
		// Version 1 predates the bounded phase log and the hybrid engine;
		// see decodeState.
		for _, f := range deltaWindowFields(d) {
			v, err := r.uint(f.what)
			if err != nil {
				return nil, err
			}
			*f.v = v
		}
		hybrid, err := r.byte("delta hybrid regime flag")
		if err != nil {
			return nil, err
		}
		if hybrid > 1 {
			return nil, fmt.Errorf("snapshot: decode delta hybrid regime flag: bad value %d", hybrid)
		}
		d.HybridFrontier = hybrid == 1
	}
	nPairs, err := r.uint("new pair count")
	if err != nil {
		return nil, err
	}
	if d.NewPairs, err = readPairs(r, uint64(nPairs), "new pairs"); err != nil {
		return nil, err
	}
	nPhases, err := r.uint("new phase count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPhases; i++ {
		var ph core.PhaseStat
		for _, f := range []struct {
			dst  *int
			what string
		}{
			{&ph.Iteration, "phase iteration"},
			{&ph.MinDegree, "phase min degree"},
			{&ph.Matched, "phase matched"},
			{&ph.TotalL, "phase total"},
		} {
			if *f.dst, err = r.uint(f.what); err != nil {
				return nil, err
			}
		}
		d.NewPhases = append(d.NewPhases, ph)
	}

	if err := skipFrontier(r, "delta frontier", true); err != nil {
		return nil, err
	}
	return d, nil
}
