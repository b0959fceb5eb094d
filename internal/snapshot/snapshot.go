// Package snapshot is the versioned binary codec for durable reconciliation
// state: CSR graphs, the matching with its seed boundary, the bucket-schedule
// position, the phase log and the regime bit. Engine caches are not
// state: restore rebuilds them from the matching.
//
// Every stream is framed the same way:
//
//	magic "RSNP" | uvarint version | kind byte | payload | CRC32-IEEE trailer
//
// where the trailer covers everything before it. Four kinds exist: a full
// snapshot (both graphs followed by the session state), a single graph, a
// state-only snapshot (for stores that write the immutable graphs once and
// checkpoint only the mutable state), and a delta record (the changes since
// a prior state checkpoint — see delta.go — for stores that checkpoint every
// sweep and amortize full snapshots). A checkpoint chain is one such state
// or delta record per checkpoint. The encoding is canonical — one byte
// stream per value — so decode∘encode is the identity on bytes as well as
// on values, which the round-trip fuzz suite pins. The decoders read only
// what the encoders write: the current Version, with the fixed values the
// layout keeps (see engineSlot and the frontier flag).
//
// Decoding is defensive end to end: all lengths are re-derived or
// cross-checked, allocations grow only as payload bytes actually arrive (a
// forged length fails at the truncated read, it does not pre-allocate), and
// corrupt, truncated, or version-skewed input returns an error — never a
// panic. Semantic invariants of the state itself (injectivity, schedule
// consistency) are checked one layer up by core.RestoreSession.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/graph"
)

// Version is the snapshot format version, the one the encoders write and
// the only one the decoders read: a stream of any other version is refused.
// Bump it when the payload layout changes.
//
// Version 2 state and delta payloads carry the regime flag and the bounded
// phase log's evicted totals (phases dropped, matches dropped), and end
// with a frontier flag byte that is always 0. The flag once opened a
// section holding the frontier engine's proposal cache; restore rebuilds
// that from the matching, so a set flag is refused as corrupt.
const Version = 2

var magic = [4]byte{'R', 'S', 'N', 'P'}

// Stream kinds.
const (
	kindFull  byte = 1 // g1, g2, session state
	kindGraph byte = 2 // a single graph
	kindState byte = 3 // session state only
	kindDelta byte = 4 // a delta record against a prior state checkpoint
	// Kind 5 is reserved: it framed a retired range-manifest record, and
	// reusing it would let such a file decode as something else.
)

var errBadMagic = errors.New("snapshot: bad magic (not a snapshot stream)")

// Write writes a full snapshot: both graphs and the session state.
func Write(w io.Writer, g1, g2 *graph.Graph, st *core.SessionState) error {
	return write(w, kindFull, func(ew *writer) error {
		if err := graph.EncodeBinary(ew, g1); err != nil {
			return err
		}
		if err := graph.EncodeBinary(ew, g2); err != nil {
			return err
		}
		return encodeState(ew, st)
	})
}

// Read reads a full snapshot.
func Read(r io.Reader) (g1, g2 *graph.Graph, st *core.SessionState, err error) {
	err = read(r, kindFull, func(er *reader) error {
		if g1, err = graph.DecodeBinary(er); err != nil {
			return err
		}
		if g2, err = graph.DecodeBinary(er); err != nil {
			return err
		}
		st, err = decodeState(er)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return g1, g2, st, nil
}

// WriteGraph writes a single framed graph.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	return write(w, kindGraph, func(ew *writer) error { return graph.EncodeBinary(ew, g) })
}

// ReadGraph reads a single framed graph.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	var g *graph.Graph
	err := read(r, kindGraph, func(er *reader) error {
		var derr error
		g, derr = graph.DecodeBinary(er)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// WriteState writes a state-only snapshot (the graphs live elsewhere).
func WriteState(w io.Writer, st *core.SessionState) error {
	return write(w, kindState, func(ew *writer) error { return encodeState(ew, st) })
}

// ReadState reads a state-only snapshot.
func ReadState(r io.Reader) (*core.SessionState, error) {
	var st *core.SessionState
	err := read(r, kindState, func(er *reader) error {
		var derr error
		st, derr = decodeState(er)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// writer frames a payload: everything written through it is buffered and
// CRC-summed; close writes the trailer.
type writer struct {
	bw  *bufio.Writer
	crc hash.Hash32
}

func (w *writer) Write(p []byte) (int, error) {
	n, err := w.bw.Write(p)
	w.crc.Write(p[:n])
	return n, err
}

func (w *writer) byte(b byte) error {
	_, err := w.Write([]byte{b})
	return err
}

// flag writes a bool as a 0 or 1 byte.
func (w *writer) flag(set bool) error {
	if set {
		return w.byte(1)
	}
	return w.byte(0)
}

func (w *writer) uvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	_, err := w.Write(buf[:binary.PutUvarint(buf[:], v)])
	return err
}

// uint validates a non-negative int and writes it as a uvarint.
func (w *writer) uint(v int, what string) error {
	if v < 0 {
		return fmt.Errorf("snapshot: encode: negative %s %d", what, v)
	}
	return w.uvarint(uint64(v))
}

func write(w io.Writer, kind byte, payload func(*writer) error) error {
	ew := &writer{bw: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	if _, err := ew.Write(magic[:]); err != nil {
		return err
	}
	if err := ew.uvarint(Version); err != nil {
		return err
	}
	if err := ew.byte(kind); err != nil {
		return err
	}
	if err := payload(ew); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], ew.crc.Sum32())
	if _, err := ew.bw.Write(trailer[:]); err != nil { // not CRC-summed
		return err
	}
	return ew.bw.Flush()
}

// reader mirrors writer: all payload reads go through the CRC; verify checks
// the trailer against the sum.
type reader struct {
	br  *bufio.Reader
	crc hash.Hash32
}

func (r *reader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc.Write(p[:n])
	return n, err
}

func (r *reader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.crc.Write([]byte{b})
	}
	return b, err
}

// full is io.ReadFull with EOF mapped to ErrUnexpectedEOF: inside a payload,
// running out of bytes is always a truncation.
func (r *reader) full(p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

func (r *reader) byte(what string) (byte, error) {
	b, err := r.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("snapshot: decode %s: %w", what, err)
	}
	return b, nil
}

// flag reads a byte written by writer.flag: 0 or 1.
func (r *reader) flag(what string) (bool, error) {
	b, err := r.byte(what)
	if err == nil && b > 1 {
		err = fmt.Errorf("snapshot: decode %s: bad value %d", what, b)
	}
	return b == 1, err
}

// endPayload reads the frontier flag that ends a state or delta payload,
// which must be 0 (see Version).
func (r *reader) endPayload(what string) error {
	b, err := r.byte(what)
	if err == nil && b != 0 {
		err = fmt.Errorf("snapshot: decode %s: bad value %d", what, b)
	}
	return err
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("snapshot: decode %s: %w", what, err)
	}
	return v, nil
}

// uint reads a uvarint that must fit a non-negative int.
func (r *reader) uint(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64/2 {
		return 0, fmt.Errorf("snapshot: decode %s: value %d out of range", what, v)
	}
	return int(v), nil
}

func read(r io.Reader, kind byte, payload func(*reader) error) error {
	er := &reader{br: bufio.NewReader(r), crc: crc32.NewIEEE()}
	var m [4]byte
	if err := er.full(m[:]); err != nil {
		return fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if m != magic {
		return errBadMagic
	}
	v, err := er.uvarint("version")
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", v, Version)
	}
	k, err := er.byte("kind")
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("snapshot: stream kind %d, want %d", k, kind)
	}
	if err := payload(er); err != nil {
		return err
	}
	sum := er.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(er.br, trailer[:]); err != nil { // not CRC-summed
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x): corrupt snapshot", got, sum)
	}
	return nil
}

// chunkU32 is how many uint32 values the codec moves per bulk Read/Write.
const chunkU32 = 16 * 1024

// writePairs writes a pair count, then each pair as two little-endian
// uint32s.
func writePairs(w *writer, pairs []graph.Pair, what string) error {
	if err := w.uint(len(pairs), what); err != nil {
		return err
	}
	buf := make([]byte, 0, 4*chunkU32)
	for _, p := range pairs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Left))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Right))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// readPairs reads what writePairs wrote straight into the slice it
// returns. The slice grows one chunk at a time as the chunk's bytes
// arrive, so a forged count fails at the truncated read instead of
// allocating it.
func readPairs(r *reader, what string) ([]graph.Pair, error) {
	count, err := r.uint(what)
	if err != nil {
		return nil, err
	}
	chunk := chunkU32 / 2
	if count < chunk {
		chunk = count // a short list reads through a short buffer
	}
	var out []graph.Pair
	buf := make([]byte, 8*chunk)
	for left := count; left > 0; {
		c := min(left, chunk)
		b := buf[:8*c]
		if err := r.full(b); err != nil {
			return nil, fmt.Errorf("snapshot: decode %s: %w", what, err)
		}
		out = slices.Grow(out, c)
		for i := 0; i < len(b); i += 8 {
			out = append(out, graph.Pair{
				Left:  graph.NodeID(binary.LittleEndian.Uint32(b[i:])),
				Right: graph.NodeID(binary.LittleEndian.Uint32(b[i+4:])),
			})
		}
		left -= c
	}
	return out, nil
}

// field is one int-valued wire field and its name in errors. Field lists
// are shared by encode and decode so the two cannot drift.
type field struct {
	v    *int
	what string
}

func writeFields(w *writer, fields ...field) error {
	for _, f := range fields {
		if err := w.uint(*f.v, f.what); err != nil {
			return err
		}
	}
	return nil
}

func readFields(r *reader, fields ...field) error {
	for _, f := range fields {
		v, err := r.uint(f.what)
		if err != nil {
			return err
		}
		*f.v = v
	}
	return nil
}

// phaseNames names a phase entry's fields in wire order: iteration, min
// degree, matched, total.
var phaseNames = [4]string{"phase iteration", "phase min degree", "phase matched", "phase total"}

// writePhases writes a phase count, then each entry's fields.
func writePhases(w *writer, phases []core.PhaseStat, what string) error {
	if err := w.uint(len(phases), what); err != nil {
		return err
	}
	for _, ph := range phases {
		for i, v := range [...]int{ph.Iteration, ph.MinDegree, ph.Matched, ph.TotalL} {
			if err := w.uint(v, phaseNames[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readPhases reads what writePhases wrote; the slice grows as entries
// arrive.
func readPhases(r *reader, what string) ([]core.PhaseStat, error) {
	n, err := r.uint(what)
	if err != nil {
		return nil, err
	}
	var out []core.PhaseStat
	for i := 0; i < n; i++ {
		var v [4]int
		for j := range v {
			if v[j], err = r.uint(phaseNames[j]); err != nil {
				return nil, err
			}
		}
		out = append(out, core.PhaseStat{Iteration: v[0], MinDegree: v[1], Matched: v[2], TotalL: v[3]})
	}
	return out, nil
}

// The options carry an engine slot from when the engine was a user choice.
// The slot stays in the layout, so records stay byte-identical, and always
// holds engineSlot, the value the default engine wrote; any other value is
// refused as corrupt.
const engineSlot = 3

// optionFields lists the Options in wire order. engine is the engine slot.
func optionFields(o *core.Options, engine *int) []field {
	return []field{
		{&o.Threshold, "threshold"},
		{&o.Iterations, "iterations"},
		{&o.MinBucketExp, "min bucket exp"},
		{&o.MaxDegree, "max degree"},
		{engine, "engine"},
		{&o.Workers, "workers"},
		{(*int)(&o.Ties), "tie policy"},
		{(*int)(&o.Scoring), "scoring"},
		{&o.MinMargin, "min margin"},
	}
}

// encodeState writes the session-state payload.
func encodeState(w *writer, st *core.SessionState) error {
	engine := engineSlot
	if err := writeFields(w, optionFields(&st.Opts, &engine)...); err != nil {
		return err
	}
	if err := w.flag(st.Opts.DisableBucketing); err != nil {
		return err
	}
	if err := writeFields(w, field{&st.N1, "n1"}, field{&st.N2, "n2"}); err != nil {
		return err
	}
	if err := writePairs(w, st.Pairs, "pair count"); err != nil {
		return err
	}
	if err := writeFields(w, stateSchedule(st)...); err != nil {
		return err
	}
	if err := w.flag(st.HybridFrontier); err != nil {
		return err
	}
	if err := writeFields(w, stateWindow(st)...); err != nil {
		return err
	}
	if err := writePhases(w, st.Phases, "phase count"); err != nil {
		return err
	}
	return w.byte(0) // the frontier flag (see Version)
}

// stateSchedule and stateWindow list, in wire order, the state's scalars
// that follow the pairs and the regime flag.
func stateSchedule(st *core.SessionState) []field {
	return []field{
		{&st.Seeds, "seed count"},
		{&st.Sweeps, "sweep count"},
		{&st.NextBucket, "bucket position"},
	}
}

func stateWindow(st *core.SessionState) []field {
	return []field{
		{&st.PhasesDropped, "evicted phase count"},
		{&st.DroppedMatched, "evicted match count"},
	}
}

// decodeState reads the session-state payload. Structural bounds are
// checked here; core.RestoreSession re-checks every semantic invariant
// against the graphs before the state is used.
func decodeState(r *reader) (*core.SessionState, error) {
	st := &core.SessionState{}
	var engine int
	if err := readFields(r, optionFields(&st.Opts, &engine)...); err != nil {
		return nil, err
	}
	if engine != engineSlot {
		return nil, fmt.Errorf("snapshot: decode engine: bad value %d", engine)
	}
	var err error
	if st.Opts.DisableBucketing, err = r.flag("bucketing flag"); err != nil {
		return nil, err
	}
	if err := readFields(r, field{&st.N1, "n1"}, field{&st.N2, "n2"}); err != nil {
		return nil, err
	}
	if st.Pairs, err = readPairs(r, "pair count"); err != nil {
		return nil, err
	}
	if err := readFields(r, stateSchedule(st)...); err != nil {
		return nil, err
	}
	if st.HybridFrontier, err = r.flag("hybrid regime flag"); err != nil {
		return nil, err
	}
	if err := readFields(r, stateWindow(st)...); err != nil {
		return nil, err
	}
	if st.Phases, err = readPhases(r, "phase count"); err != nil {
		return nil, err
	}
	if err := r.endPayload("frontier flag"); err != nil {
		return nil, err
	}
	return st, nil
}
