package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Mappable CSR container ("RGMM"): the graph's two arrays laid out
// fixed-width, little-endian, and naturally aligned, so a page-aligned
// read-only mapping of the file can serve as the in-memory form directly —
// no decode pass, no per-job heap copy, one page-cache copy shared by every
// process that maps it. The legacy varint stream (EncodeBinary) packs the
// adjacency right behind variable-width degrees and therefore cannot be
// viewed in place; this container trades a slightly larger file (fixed-width
// offsets) for zero-copy opens.
//
// Layout (all integers little-endian):
//
//	[0:4]    magic "RGMM"
//	[4:8]    format version (uint32) = 1
//	[8:12]   reserved, must be zero
//	[12:16]  CRC32 (IEEE) over bytes [16:EOF]
//	[16:24]  node count n (uint64)
//	[24:32]  adjacency length (uint64, directed-edge count)
//	[32:40]  max degree (uint64)
//	[40:..]  offsets, (n+1) × int64
//	[..:EOF] adjacency, adjLen × uint32
//
// The file size is exactly determined by the header, the offsets start
// 8-aligned and the adjacency 4-aligned (40 + 8*(n+1) ≡ 0 mod 4), and the
// CRC covers every body byte, so OpenMapped can validate the whole image
// before handing out views. Opening re-checks the same structural
// invariants DecodeBinary does; a mapped graph is interchangeable with a
// decoded one.

// MappableMagic is the 4-byte magic prefix of the mappable container,
// exported so callers can sniff a file or stream and route it to
// OpenMapped/DecodeMappable versus the legacy varint decoder.
const MappableMagic = "RGMM"

const (
	mappedVersion = 1
	mappedHdrSize = 40
	// maxMappedAdj bounds the adjacency-length header field before it
	// enters size arithmetic: 2^38 directed edges (~1 TiB of adjacency) is
	// far past anything the format targets and keeps the exact-size
	// equation free of int64 overflow.
	maxMappedAdj = 1 << 38
)

// EncodeMappable writes g to w in mappable container form. The body is
// generated twice — once through the checksum, once to w — so the encoder
// needs no body-sized buffer.
func EncodeMappable(w io.Writer, g *Graph) error {
	crc := crc32.NewIEEE()
	if err := writeMappableBody(crc, g); err != nil {
		return err
	}
	var pre [16]byte
	copy(pre[0:4], MappableMagic)
	binary.LittleEndian.PutUint32(pre[4:8], mappedVersion)
	binary.LittleEndian.PutUint32(pre[12:16], crc.Sum32())
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	return writeMappableBody(w, g)
}

// writeMappableBody writes bytes [16:EOF] of the container: the three fixed
// counts, the offsets array, then the adjacency.
func writeMappableBody(w io.Writer, g *Graph) error {
	n := g.NumNodes()
	var fix [24]byte
	binary.LittleEndian.PutUint64(fix[0:8], uint64(n))
	binary.LittleEndian.PutUint64(fix[8:16], uint64(len(g.adj)))
	binary.LittleEndian.PutUint64(fix[16:24], uint64(g.MaxDegree()))
	if _, err := w.Write(fix[:]); err != nil {
		return err
	}
	if len(g.offsets) == 0 {
		// Zero-value graph: emit the canonical empty offsets array [0].
		var zero [8]byte
		if _, err := w.Write(zero[:]); err != nil {
			return err
		}
	} else if err := writeInt64s(w, g.offsets); err != nil {
		return err
	}
	return writeIDs(w, g.adj)
}

// writeInt64s writes the slice as little-endian uint64s in bounded chunks.
func writeInt64s(w io.Writer, vals []int64) error {
	buf := make([]byte, 0, 8*chunkIDs)
	for len(vals) > 0 {
		c := len(vals)
		if c > chunkIDs {
			c = chunkIDs
		}
		buf = buf[:0]
		for _, v := range vals[:c] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		vals = vals[c:]
	}
	return nil
}

// parseMappableHeader validates the fixed-size prefix of a complete
// container image: magic, version, reserved field, the CRC over everything
// after the checksum word, and the exact size equation tying the three
// counts to len(data). On success the three counts are safe to use as
// slice bounds into data.
func parseMappableHeader(data []byte) (n int, adjLen int64, maxd int, err error) {
	if len(data) < mappedHdrSize+8 {
		return 0, 0, 0, fmt.Errorf("graph: mapped: %d-byte image shorter than header", len(data))
	}
	if string(data[0:4]) != MappableMagic {
		return 0, 0, 0, fmt.Errorf("graph: mapped: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != mappedVersion {
		return 0, 0, 0, fmt.Errorf("graph: mapped: unsupported version %d", v)
	}
	if r := binary.LittleEndian.Uint32(data[8:12]); r != 0 {
		return 0, 0, 0, fmt.Errorf("graph: mapped: nonzero reserved field %#x", r)
	}
	if sum := crc32.ChecksumIEEE(data[16:]); sum != binary.LittleEndian.Uint32(data[12:16]) {
		return 0, 0, 0, fmt.Errorf("graph: mapped: checksum mismatch")
	}
	nRaw := binary.LittleEndian.Uint64(data[16:24])
	if nRaw > MaxNodes {
		return 0, 0, 0, fmt.Errorf("graph: mapped: node count %d exceeds limit", nRaw)
	}
	adjRaw := binary.LittleEndian.Uint64(data[24:32])
	if adjRaw > maxMappedAdj {
		return 0, 0, 0, fmt.Errorf("graph: mapped: adjacency length %d exceeds limit", adjRaw)
	}
	maxdRaw := binary.LittleEndian.Uint64(data[32:40])
	if maxdRaw > nRaw {
		return 0, 0, 0, fmt.Errorf("graph: mapped: max degree %d exceeds node count %d", maxdRaw, nRaw)
	}
	want := int64(mappedHdrSize) + 8*(int64(nRaw)+1) + 4*int64(adjRaw)
	if int64(len(data)) != want {
		return 0, 0, 0, fmt.Errorf("graph: mapped: %d-byte image, header describes %d", len(data), want)
	}
	return int(nRaw), int64(adjRaw), int(maxdRaw), nil
}

// validateMappable re-checks every structural invariant DecodeBinary
// guarantees — monotone offsets with degree < n, per-node sorted
// duplicate-free in-range adjacency, no self-loops, even directed-edge
// total, and an honest max-degree header — so graphs opened from a mapping
// are safe to use without a separate Validate pass. It never panics on a
// corrupt image: every index it takes is derived from bounds it has already
// established.
func validateMappable(n int, offsets []int64, adj []NodeID, maxd int) error {
	if offsets[0] != 0 {
		return fmt.Errorf("graph: mapped: offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		d := offsets[v+1] - offsets[v]
		if d < 0 || d >= int64(n) {
			return fmt.Errorf("graph: mapped: node %d has degree %d in a %d-node graph", v, d, n)
		}
	}
	if offsets[n] != int64(len(adj)) {
		return fmt.Errorf("graph: mapped: offsets end at %d, adjacency holds %d", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return fmt.Errorf("graph: mapped: odd directed-edge total %d", len(adj))
	}
	got := 0
	for v := 0; v < n; v++ {
		ns := adj[offsets[v]:offsets[v+1]]
		if len(ns) > got {
			got = len(ns)
		}
		for i, w := range ns {
			if int(w) >= n {
				return fmt.Errorf("graph: mapped: node %d has out-of-range neighbor %d", v, w)
			}
			if w == NodeID(v) {
				return fmt.Errorf("graph: mapped: self-loop at node %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: mapped: adjacency of node %d not sorted-unique at pos %d", v, i)
			}
		}
	}
	if got != maxd {
		return fmt.Errorf("graph: mapped: header max degree %d, actual %d", maxd, got)
	}
	return nil
}

// decodeMappableImage decodes a complete container image into heap-backed
// arrays: the byte-order-explicit twin of the mmap views, shared by the
// portable fallback and the streaming decoder. Allocation sizes come from
// the header only after parseMappableHeader has tied them to len(data).
func decodeMappableImage(data []byte) (*Graph, error) {
	n, adjLen, maxd, err := parseMappableHeader(data)
	if err != nil {
		return nil, err
	}
	offsets := make([]int64, n+1)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(data[mappedHdrSize+8*i:]))
	}
	adj := make([]NodeID, adjLen)
	base := mappedHdrSize + 8*(n+1)
	for i := range adj {
		adj[i] = NodeID(binary.LittleEndian.Uint32(data[base+4*i:]))
	}
	if err := validateMappable(n, offsets, adj, maxd); err != nil {
		return nil, err
	}
	return &Graph{offsets: offsets, adj: adj, maxDegree: maxd}, nil
}

// DecodeMappable reads a complete mappable container from r into heap-backed
// arrays — the portable twin of OpenMapped, and the path stream readers take
// after sniffing MappableMagic. The image is buffered as the bytes arrive
// (no allocation is sized by an unverified header field) and validated
// exactly as OpenMapped validates a mapping.
func DecodeMappable(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: mapped: read: %w", err)
	}
	return decodeMappableImage(data)
}
