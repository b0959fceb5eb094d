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
// or delta record per checkpoint. The encoding is canonical — one byte stream per value — so decode∘encode is
// the identity on bytes as well as on values for every stream this encoder
// writes, which the round-trip fuzz suite pins (a legacy frontier section,
// see Version, is dropped on decode).
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

// Version is the current snapshot format version. Decoders reject newer
// versions (forward compatibility is explicit: bump this when the payload
// layout changes, and teach Read the old layouts).
//
// Version history:
//
//	1 — initial layout (PR 3), delta records (PR 4).
//	2 — state and delta payloads gained the hybrid-engine regime flag and
//	    the bounded phase log's evicted totals (phases dropped, matches
//	    dropped). Version-1 streams decode with those fields zero — exactly
//	    the state every pre-hybrid session was in.
//
// Both versions end a state or delta payload with a frontier flag byte.
// Earlier writers set it to 1 and appended the frontier engine's proposal
// cache and worklists (or their edits); writers now always write 0, and
// decoders read such a legacy section through the checksum and drop it
// (skipFrontier), since restore rebuilds that state from the matching. So
// this build reads records written with the section, and builds that wrote
// it read records written without it.
const Version = 2

// oldestReadable is the oldest format version Read still understands.
const oldestReadable = 1

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
	err = read(r, kindFull, func(er *reader, v uint64) error {
		if g1, err = graph.DecodeBinary(er); err != nil {
			return err
		}
		if g2, err = graph.DecodeBinary(er); err != nil {
			return err
		}
		st, err = decodeState(er, v)
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
	err := read(r, kindGraph, func(er *reader, _ uint64) error {
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
	err := read(r, kindState, func(er *reader, v uint64) error {
		var derr error
		st, derr = decodeState(er, v)
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

func read(r io.Reader, kind byte, payload func(*reader, uint64) error) error {
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
	if v < oldestReadable || v > Version {
		return fmt.Errorf("snapshot: unsupported format version %d (this build reads %d through %d)", v, oldestReadable, Version)
	}
	k, err := er.byte("kind")
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("snapshot: stream kind %d, want %d", k, kind)
	}
	if err := payload(er, v); err != nil {
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

// writeU32s writes values produced by at as little-endian uint32s.
func writeU32s(w *writer, n int, at func(int) uint32) error {
	buf := make([]byte, 0, 4*chunkU32)
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, at(i))
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

// readPairs reads count pairs, two little-endian uint32s each, straight
// into the slice it returns. The slice grows one chunk at a time as the
// chunk's bytes arrive, so a forged count fails at the truncated read
// instead of allocating it.
func readPairs(r *reader, count uint64, what string) ([]graph.Pair, error) {
	if count > math.MaxInt64/8 {
		return nil, fmt.Errorf("snapshot: decode %s: length %d out of range", what, count)
	}
	var out []graph.Pair
	buf := make([]byte, 8*min(int(count), chunkU32/2))
	for left := int(count); left > 0; {
		c := min(left, chunkU32/2)
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

// skipU32s reads count uint32s through the checksum and drops them. The
// copy moves one bounded buffer at a time, so a forged count fails at the
// truncated read instead of allocating it.
func skipU32s(r *reader, count uint64, what string) error {
	if count > math.MaxInt64/4 {
		return fmt.Errorf("snapshot: decode %s: length %d out of range", what, count)
	}
	if _, err := io.CopyN(io.Discard, r, int64(4*count)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("snapshot: decode %s: %w", what, err)
	}
	return nil
}

// The options carry an engine slot from when the engine was a user choice.
// The slot stays in the layout and is always written as engineSlot, the
// value the default engine wrote, so records stay byte-identical. On decode,
// values below engineSlot come from records an engine pinned by the user
// wrote (0 parallel, 1 sequential, 2 frontier). They restore as the one
// engine in the full-scan regime, which such a record always holds: a set
// regime bit under one of them is refused as corrupt, as is any value above
// engineSlot.
const engineSlot = 3

// optionFields flattens the Options struct into its wire order, shared by
// encode and decode so the two cannot drift. engine is the engine slot.
func optionFields(o *core.Options, engine *int) []struct {
	v    *int
	what string
} {
	return []struct {
		v    *int
		what string
	}{
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
	o := st.Opts
	engine := engineSlot
	for _, f := range optionFields(&o, &engine) {
		if err := w.uint(*f.v, f.what); err != nil {
			return err
		}
	}
	disabled := byte(0)
	if o.DisableBucketing {
		disabled = 1
	}
	if err := w.byte(disabled); err != nil {
		return err
	}

	if err := w.uint(st.N1, "n1"); err != nil {
		return err
	}
	if err := w.uint(st.N2, "n2"); err != nil {
		return err
	}
	if err := w.uint(len(st.Pairs), "pair count"); err != nil {
		return err
	}
	if err := writeU32s(w, 2*len(st.Pairs), func(i int) uint32 {
		if i%2 == 0 {
			return uint32(st.Pairs[i/2].Left)
		}
		return uint32(st.Pairs[i/2].Right)
	}); err != nil {
		return err
	}
	if err := w.uint(st.Seeds, "seed count"); err != nil {
		return err
	}
	if err := w.uint(st.Sweeps, "sweep count"); err != nil {
		return err
	}
	if err := w.uint(st.NextBucket, "bucket position"); err != nil {
		return err
	}
	hybrid := byte(0)
	if st.HybridFrontier {
		hybrid = 1
	}
	if err := w.byte(hybrid); err != nil {
		return err
	}
	if err := w.uint(st.PhasesDropped, "evicted phase count"); err != nil {
		return err
	}
	if err := w.uint(st.DroppedMatched, "evicted match count"); err != nil {
		return err
	}

	if err := w.uint(len(st.Phases), "phase count"); err != nil {
		return err
	}
	for _, ph := range st.Phases {
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

// decodeState reads the session-state payload of the given format version.
// Structural bounds are checked here; core.RestoreSession re-checks every
// semantic invariant against the graphs before the state is used.
func decodeState(r *reader, version uint64) (*core.SessionState, error) {
	st := &core.SessionState{}
	var engine int
	for _, f := range optionFields(&st.Opts, &engine) {
		v, err := r.uint(f.what)
		if err != nil {
			return nil, err
		}
		*f.v = v
	}
	if engine > engineSlot {
		return nil, fmt.Errorf("snapshot: decode engine: bad value %d", engine)
	}
	disabled, err := r.byte("bucketing flag")
	if err != nil {
		return nil, err
	}
	if disabled > 1 {
		return nil, fmt.Errorf("snapshot: decode bucketing flag: bad value %d", disabled)
	}
	st.Opts.DisableBucketing = disabled == 1

	if st.N1, err = r.uint("n1"); err != nil {
		return nil, err
	}
	if st.N2, err = r.uint("n2"); err != nil {
		return nil, err
	}
	nPairs, err := r.uint("pair count")
	if err != nil {
		return nil, err
	}
	if st.Pairs, err = readPairs(r, uint64(nPairs), "pairs"); err != nil {
		return nil, err
	}
	if st.Seeds, err = r.uint("seed count"); err != nil {
		return nil, err
	}
	if st.Sweeps, err = r.uint("sweep count"); err != nil {
		return nil, err
	}
	if st.NextBucket, err = r.uint("bucket position"); err != nil {
		return nil, err
	}
	if version >= 2 {
		// Version 1 predates the regime handoff and the bounded phase log;
		// its streams decode with these fields zero, which is exactly the
		// state every version-1 session was in.
		hybrid, err := r.byte("hybrid regime flag")
		if err != nil {
			return nil, err
		}
		if hybrid > 1 {
			return nil, fmt.Errorf("snapshot: decode hybrid regime flag: bad value %d", hybrid)
		}
		if hybrid == 1 && engine != engineSlot {
			return nil, fmt.Errorf("snapshot: decode hybrid regime flag: set under pinned engine %d", engine)
		}
		st.HybridFrontier = hybrid == 1
		if st.PhasesDropped, err = r.uint("evicted phase count"); err != nil {
			return nil, err
		}
		if st.DroppedMatched, err = r.uint("evicted match count"); err != nil {
			return nil, err
		}
	}

	nPhases, err := r.uint("phase count")
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
		st.Phases = append(st.Phases, ph)
	}

	if err := skipFrontier(r, "frontier", false); err != nil {
		return nil, err
	}
	return st, nil
}

// skipFrontier reads the frontier flag that ends a state (edits false) or
// delta (edits true) payload and drops the legacy frontier section a 1
// opens: a work counter, then per side a row count, for a delta that many
// gap-encoded edit indices, that many proposal nodes and scores, and a
// worklist. Every length is consumed in bounded chunks through the
// checksum, so a forged one fails at the truncated read instead of
// allocating it.
func skipFrontier(r *reader, what string, edits bool) error {
	flag, err := r.byte(what + " flag")
	if err != nil {
		return err
	}
	switch flag {
	case 0:
		return nil
	case 1:
	default:
		return fmt.Errorf("snapshot: decode %s flag: bad value %d", what, flag)
	}
	if _, err := r.uvarint(what + " work counter"); err != nil {
		return err
	}
	for side := 0; side < 2; side++ {
		rows, err := r.uvarint(what + " row count")
		if err != nil {
			return err
		}
		if edits {
			for i := uint64(0); i < rows; i++ {
				if _, err := r.uvarint(what + " edit index"); err != nil {
					return err
				}
			}
		}
		if err := skipU32s(r, rows, what+" proposals"); err != nil {
			return err
		}
		if err := skipU32s(r, rows, what+" scores"); err != nil {
			return err
		}
		dirty, err := r.uvarint(what + " worklist length")
		if err != nil {
			return err
		}
		if err := skipU32s(r, dirty, what+" worklist"); err != nil {
			return err
		}
	}
	return nil
}
