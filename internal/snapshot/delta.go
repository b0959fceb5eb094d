package snapshot

import (
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
// state payload, a delta payload ends with the frontier flag, always 0
// (see Version).

// WriteDelta writes a delta record (core.DiffStates output) as a framed
// stream.
func WriteDelta(w io.Writer, d *core.StateDelta) error {
	return write(w, kindDelta, func(ew *writer) error { return encodeDelta(ew, d) })
}

// ReadDelta reads a delta record written by WriteDelta.
func ReadDelta(r io.Reader) (*core.StateDelta, error) {
	var d *core.StateDelta
	err := read(r, kindDelta, func(er *reader) error {
		var derr error
		d, derr = decodeDelta(er)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// deltaFields lists the delta's scalar fields in wire order: the base
// fingerprint, the new schedule position and the phase window's offsets.
func deltaFields(d *core.StateDelta) []field {
	return []field{
		{&d.BasePairs, "base pair count"},
		{&d.BasePhases, "base phase count"},
		{&d.BaseSweeps, "base sweep count"},
		{&d.BaseNextBucket, "base bucket position"},
		{&d.Sweeps, "sweep count"},
		{&d.NextBucket, "bucket position"},
		{&d.BasePhasesDropped, "base evicted phase count"},
		{&d.PhasesDropped, "evicted phase count"},
		{&d.DroppedMatched, "evicted match count"},
	}
}

func encodeDelta(w *writer, d *core.StateDelta) error {
	if err := writeFields(w, deltaFields(d)...); err != nil {
		return err
	}
	if err := w.flag(d.HybridFrontier); err != nil {
		return err
	}
	if err := writePairs(w, d.NewPairs, "new pair count"); err != nil {
		return err
	}
	if err := writePhases(w, d.NewPhases, "new phase count"); err != nil {
		return err
	}
	return w.byte(0) // the frontier flag (see Version)
}

func decodeDelta(r *reader) (*core.StateDelta, error) {
	d := &core.StateDelta{}
	if err := readFields(r, deltaFields(d)...); err != nil {
		return nil, err
	}
	var err error
	if d.HybridFrontier, err = r.flag("delta hybrid regime flag"); err != nil {
		return nil, err
	}
	if d.NewPairs, err = readPairs(r, "new pair count"); err != nil {
		return nil, err
	}
	if d.NewPhases, err = readPhases(r, "new phase count"); err != nil {
		return nil, err
	}
	if err := r.endPayload("delta frontier flag"); err != nil {
		return nil, err
	}
	return d, nil
}
