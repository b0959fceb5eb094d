package reconcile

import (
	"bufio"
	"io"
	"os"

	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/snapshot"
)

// Memory-mapped graphs: restore cost for a big job is dominated by
// re-materializing the immutable CSR arrays on the heap, N times for N jobs
// over the same networks. WriteGraphMapped lays the arrays out fixed-width
// and checksummed so OpenGraphMapped can serve them straight from a
// read-only file mapping: opening validates the whole image, then restore
// becomes page-ins, and every process mapping the file shares one
// page-cache copy. A mapped graph is bit-identical to the decoded one and
// flows everywhere a *Graph does; the difference is the explicit Close
// lifetime. On platforms without mmap support (or builds with the
// reconcile_nommap tag) the same API transparently falls back to a
// validated heap copy.

// MmapSupported reports whether this build serves OpenGraphMapped from a
// real file mapping. When false (no syscall.Mmap, unknown byte order, or
// the reconcile_nommap build tag), OpenGraphMapped still works — it decodes
// into a private heap copy with identical semantics.
const MmapSupported = graph.MmapSupported

// ErrGraphClosed is returned by MappedGraph.Acquire once Close has begun.
var ErrGraphClosed = graph.ErrMappedClosed

// MappedGraph is a graph with an explicit lifetime: its arrays may live in
// a read-only file mapping, so the graph (and every slice it hands out) is
// valid only until Close. Readers that can overlap a Close — a job run
// racing a delete — bracket their use with Acquire/Release; Close fails all
// future Acquires, waits for outstanding ones to drain, then unmaps. A
// heap-backed instance (a binary-format file, or !MmapSupported) honors the
// same protocol with nothing to unmap.
type MappedGraph struct {
	m *graph.Mapped
}

// OpenGraphMapped opens a graph file for mapped reading. Files written by
// WriteGraphMapped are served from the mapping (or the heap fallback);
// files written by WriteGraphBinary are decoded onto the heap behind the
// same lifetime API, so one open path reads either format. Corrupt,
// truncated, or structurally invalid files return an error — the whole
// image is validated before any graph is handed out.
func OpenGraphMapped(path string) (*MappedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if peek, err := br.Peek(len(graph.MappableMagic)); err == nil && string(peek) == graph.MappableMagic {
		// Mappable container: reopen through the platform mmap path (it
		// needs the path, not the stream).
		m, err := graph.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		return &MappedGraph{m: m}, nil
	}
	g, err := snapshot.ReadGraph(br)
	if err != nil {
		return nil, err
	}
	return &MappedGraph{m: graph.NewHeapMapped(g)}, nil
}

// WriteGraphMapped writes g in the mappable container format OpenGraphMapped
// serves zero-copy. ReadGraphBinary also reads this format, onto the heap.
func WriteGraphMapped(w io.Writer, g *Graph) error { return graph.EncodeMappable(w, g) }

// Graph returns the mapped graph, or nil once Close has begun. The result
// is valid only until Close; use Acquire/Release to pin it across one.
func (m *MappedGraph) Graph() *Graph { return m.m.Graph() }

// Mapped reports whether this instance is backed by a live file mapping
// (false for heap fallbacks and binary-format files).
func (m *MappedGraph) Mapped() bool { return !m.m.Heap() }

// Acquire pins the mapping and returns its graph; pair every success with
// exactly one Release. After Close has begun it fails with ErrGraphClosed.
func (m *MappedGraph) Acquire() (*Graph, error) { return m.m.Acquire() }

// Release undoes one Acquire.
func (m *MappedGraph) Release() { m.m.Release() }

// Close fails all future Acquires, waits for outstanding ones to drain,
// and unmaps. Idempotent. Tie it to the owning job's purge or the process
// shutdown path — never close a mapping a run may still be scanning
// (Acquire/Release makes that impossible to get wrong: Close waits).
func (m *MappedGraph) Close() error { return m.m.Close() }

// OpenMappings returns the number of graph file mappings this process
// currently holds open: incremented when OpenGraphMapped serves a real
// mapping, decremented by Close. Heap fallbacks are not counted. cmd/serve
// exports it as the reconcile_graph_open_mappings gauge.
func OpenMappings() int { return graph.OpenMappings() }
