package graph

import "slices"

// Builder accumulates undirected edges and produces an immutable Graph.
// Duplicate edges and self-loops may be added freely; Build removes them.
// Builder is not safe for concurrent use.
type Builder struct {
	n    int
	from []NodeID
	to   []NodeID
}

// NewBuilder returns a builder for a graph with n nodes (IDs 0..n-1).
// expectedEdges sizes internal buffers and may be 0.
func NewBuilder(n int, expectedEdges int64) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	if expectedEdges < 0 {
		expectedEdges = 0
	}
	return &Builder{
		n:    n,
		from: make([]NodeID, 0, expectedEdges),
		to:   make([]NodeID, 0, expectedEdges),
	}
}

// NumNodes returns the node count the builder was created with (possibly
// grown by EnsureNode).
func (b *Builder) NumNodes() int { return b.n }

// EnsureNode grows the node space so that id is a valid node.
func (b *Builder) EnsureNode(id NodeID) {
	if int(id) >= b.n {
		b.n = int(id) + 1
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops are accepted and
// silently dropped at Build time, matching the paper's simple-graph model
// (the PA process generates self-loops that the analysis ignores).
func (b *Builder) AddEdge(u, v NodeID) {
	if int(u) >= b.n || int(v) >= b.n {
		panic("graph: AddEdge endpoint out of range; call EnsureNode first")
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
}

// PendingEdges returns the number of (possibly duplicate) edges recorded.
func (b *Builder) PendingEdges() int { return len(b.from) }

// Build constructs the immutable CSR graph: both directions stored, each
// adjacency list sorted with duplicates and self-loops removed. The builder
// may be reused afterwards (its recorded edges are kept).
func (b *Builder) Build() *Graph {
	n := b.n
	// Degree counting pass (both directions, skipping self-loops).
	counts := make([]int64, n+1)
	for i := range b.from {
		u, v := b.from[i], b.to[i]
		if u == v {
			continue
		}
		counts[u+1]++
		counts[v+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	offsets := counts // counts is now the prefix-sum offsets array
	adj := make([]NodeID, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i := range b.from {
		u, v := b.from[i], b.to[i]
		if u == v {
			continue
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	// Sort and dedup each adjacency list in place, then compact.
	newOffsets := make([]int64, n+1)
	write := int64(0)
	maxd := 0
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		ns := adj[lo:hi]
		slices.Sort(ns)
		newOffsets[v] = write
		var prev NodeID
		first := true
		for _, w := range ns {
			if !first && w == prev {
				continue
			}
			adj[write] = w
			write++
			prev = w
			first = false
		}
		if d := int(write - newOffsets[v]); d > maxd {
			maxd = d
		}
	}
	newOffsets[n] = write
	return &Graph{offsets: newOffsets, adj: adj[:write:write], maxDegree: maxd}
}

// FromEdges builds a graph with n nodes from an edge list in one call.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n, int64(len(edges)))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
