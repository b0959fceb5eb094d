package graph

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary CSR I/O: the graph's exact in-memory layout — node count, per-node
// degrees, then the adjacency array — encoded as uvarint degrees and
// fixed-width little-endian node IDs. The encoding is canonical (one byte
// stream per graph) and decoding re-checks every structural invariant the
// CSR form relies on, so a decoded graph is safe to use without a separate
// Validate pass. The stream carries no magic number or checksum; framing and
// integrity are the caller's job (internal/snapshot wraps these in a
// versioned, CRC-protected envelope).

// BinaryReader is the reader DecodeBinary needs: uvarints want a ByteReader,
// bulk arrays want io.Reader.
type BinaryReader interface {
	io.Reader
	io.ByteReader
}

// MaxNodes bounds the node counts the graph codecs decode, and so the
// graphs a store can read back, to what NodeID can address.
const MaxNodes = 1 << 31

// chunkIDs is how many NodeIDs the binary codec moves per bulk Read/Write.
const chunkIDs = 16 * 1024

// EncodeBinary writes g to w in binary CSR form.
func EncodeBinary(w io.Writer, g *Graph) error {
	n := g.NumNodes()
	buf := make([]byte, 0, binary.MaxVarintLen64*512)
	buf = binary.AppendUvarint(buf, uint64(n))
	for v := 0; v < n; v++ {
		buf = binary.AppendUvarint(buf, uint64(g.Degree(NodeID(v))))
		if len(buf) >= cap(buf)-binary.MaxVarintLen64 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return writeIDs(w, g.adj)
}

// writeIDs writes the slice as little-endian uint32s in bounded chunks.
func writeIDs(w io.Writer, ids []NodeID) error {
	buf := make([]byte, 0, 4*chunkIDs)
	for len(ids) > 0 {
		c := len(ids)
		if c > chunkIDs {
			c = chunkIDs
		}
		buf = buf[:0]
		for _, id := range ids[:c] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		ids = ids[c:]
	}
	return nil
}

// readUvarint reads a uvarint, mapping a clean EOF at the first byte to
// io.ErrUnexpectedEOF: inside a payload, running out of bytes is always a
// truncation.
func readUvarint(r io.ByteReader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return 0, io.ErrUnexpectedEOF
	}
	return v, err
}

// readIDs reads count little-endian uint32s in bounded chunks, so that a
// forged length fails at the truncated read instead of allocating the forged
// size up front.
func readIDs(r io.Reader, count uint64) ([]NodeID, error) {
	out := []NodeID(nil)
	buf := make([]byte, 4*chunkIDs)
	for count > 0 {
		c := count
		if c > chunkIDs {
			c = chunkIDs
		}
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		for i := uint64(0); i < c; i++ {
			out = append(out, NodeID(binary.LittleEndian.Uint32(b[4*i:])))
		}
		count -= c
	}
	return out, nil
}

// DecodeBinary reads a graph in binary CSR form and re-validates its
// structural invariants: monotone offsets, per-node sorted duplicate-free
// in-range adjacency, no self-loops, an even directed-edge total. Any
// violation, truncation, or overflow returns an error; DecodeBinary never
// panics on corrupt input.
func DecodeBinary(r BinaryReader) (*Graph, error) {
	nRaw, err := readUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("graph: decode: node count: %w", err)
	}
	if nRaw > MaxNodes {
		return nil, fmt.Errorf("graph: decode: node count %d exceeds limit", nRaw)
	}
	n := int(nRaw)
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		d, err := readUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("graph: decode: degree of node %d: %w", v, err)
		}
		if d >= nRaw {
			return nil, fmt.Errorf("graph: decode: node %d has degree %d in a %d-node graph", v, d, n)
		}
		offsets[v+1] = offsets[v] + int64(d)
	}
	total := uint64(offsets[n])
	if total%2 != 0 {
		return nil, fmt.Errorf("graph: decode: odd directed-edge total %d", total)
	}
	adj, err := readIDs(r, total)
	if err != nil {
		return nil, fmt.Errorf("graph: decode: adjacency: %w", err)
	}
	maxd := 0
	for v := 0; v < n; v++ {
		ns := adj[offsets[v]:offsets[v+1]]
		if len(ns) > maxd {
			maxd = len(ns)
		}
		for i, w := range ns {
			if int(w) >= n {
				return nil, fmt.Errorf("graph: decode: node %d has out-of-range neighbor %d", v, w)
			}
			if w == NodeID(v) {
				return nil, fmt.Errorf("graph: decode: self-loop at node %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return nil, fmt.Errorf("graph: decode: adjacency of node %d not sorted-unique at pos %d", v, i)
			}
		}
	}
	return &Graph{offsets: offsets, adj: adj, maxDegree: maxd}, nil
}
