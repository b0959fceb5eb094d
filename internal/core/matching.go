package core

import (
	"fmt"

	"github.com/sociograph/reconcile/internal/graph"
)

// NoMatch marks an unlinked node in a Matching's direction arrays.
const NoMatch = ^graph.NodeID(0)

// Matching is the evolving partial injective mapping L between the node sets
// of G1 and G2: seed links plus every identification made so far.
type Matching struct {
	left  []graph.NodeID // left[v1] = v2 or NoMatch
	right []graph.NodeID // right[v2] = v1 or NoMatch
	pairs []graph.Pair   // insertion order, seeds first; append-only (Pairs returns views)
	seeds int            // how many of pairs are seeds
}

// NewMatching builds the initial matching from the seed links. It rejects
// out-of-range nodes and conflicting seeds (a node seeded to two different
// partners); an exact duplicate pair is tolerated and stored once.
func NewMatching(n1, n2 int, seeds []graph.Pair) (*Matching, error) {
	m := &Matching{
		left:  make([]graph.NodeID, n1),
		right: make([]graph.NodeID, n2),
		pairs: make([]graph.Pair, 0, len(seeds)),
	}
	for i := range m.left {
		m.left[i] = NoMatch
	}
	for i := range m.right {
		m.right[i] = NoMatch
	}
	for _, p := range seeds {
		if int(p.Left) >= n1 {
			return nil, fmt.Errorf("core: seed %v: left node out of range (n1=%d)", p, n1)
		}
		if int(p.Right) >= n2 {
			return nil, fmt.Errorf("core: seed %v: right node out of range (n2=%d)", p, n2)
		}
		if cur := m.left[p.Left]; cur != NoMatch {
			if cur == p.Right {
				continue // exact duplicate
			}
			return nil, fmt.Errorf("core: conflicting seeds for left node %d: %d and %d", p.Left, cur, p.Right)
		}
		if cur := m.right[p.Right]; cur != NoMatch {
			return nil, fmt.Errorf("core: conflicting seeds for right node %d: %d and %d", p.Right, cur, p.Left)
		}
		m.add(p)
	}
	m.seeds = len(m.pairs)
	return m, nil
}

func (m *Matching) add(p graph.Pair) {
	m.left[p.Left] = p.Right
	m.right[p.Right] = p.Left
	m.pairs = append(m.pairs, p)
}

// Add links p.Left to p.Right, rejecting out-of-range or already-matched
// endpoints. It is the safe entry point for alternative engines (the
// MapReduce formulation) that drive a Matching from outside this package.
func (m *Matching) Add(p graph.Pair) error {
	if int(p.Left) >= len(m.left) || int(p.Right) >= len(m.right) {
		return fmt.Errorf("core: Add %v: node out of range", p)
	}
	if m.left[p.Left] != NoMatch {
		return fmt.Errorf("core: Add %v: left node already matched to %d", p, m.left[p.Left])
	}
	if m.right[p.Right] != NoMatch {
		return fmt.Errorf("core: Add %v: right node already matched to %d", p, m.right[p.Right])
	}
	m.add(p)
	return nil
}

// LeftMatch returns v1's partner in G2, or NoMatch.
func (m *Matching) LeftMatch(v1 graph.NodeID) graph.NodeID { return m.left[v1] }

// RightMatch returns v2's partner in G1, or NoMatch.
func (m *Matching) RightMatch(v2 graph.NodeID) graph.NodeID { return m.right[v2] }

// Len returns the number of linked pairs, seeds included.
func (m *Matching) Len() int { return len(m.pairs) }

// SeedCount returns how many of the pairs are original seeds.
func (m *Matching) SeedCount() int { return m.seeds }

// Pairs returns all linked pairs in insertion order (seeds first) as a
// read-only view of the append-only log, not a copy. The log's first Len()
// entries are never rewritten, and the view's capacity equals its length,
// so a caller's append reallocates: the view stays valid and unchanged
// while the matching grows. Callers must not write into it; slices.Clone
// gives a slice to own.
func (m *Matching) Pairs() []graph.Pair { return m.pairs[:len(m.pairs):len(m.pairs)] }

// NewPairs returns the discovered pairs (everything after the seeds), a
// read-only view of the log like Pairs.
func (m *Matching) NewPairs() []graph.Pair { return m.pairs[m.seeds:len(m.pairs):len(m.pairs)] }

// validateInjective is a test hook: it checks that left and right arrays
// describe the same injective mapping as pairs.
func (m *Matching) validateInjective() error {
	seenL := map[graph.NodeID]bool{}
	seenR := map[graph.NodeID]bool{}
	for _, p := range m.pairs {
		if seenL[p.Left] || seenR[p.Right] {
			return fmt.Errorf("core: duplicate endpoint in pair %v", p)
		}
		seenL[p.Left] = true
		seenR[p.Right] = true
		if m.left[p.Left] != p.Right || m.right[p.Right] != p.Left {
			return fmt.Errorf("core: arrays disagree with pair %v", p)
		}
	}
	nl, nr := 0, 0
	for _, v := range m.left {
		if v != NoMatch {
			nl++
		}
	}
	for _, v := range m.right {
		if v != NoMatch {
			nr++
		}
	}
	if nl != len(m.pairs) || nr != len(m.pairs) {
		return fmt.Errorf("core: array population %d/%d != pairs %d", nl, nr, len(m.pairs))
	}
	return nil
}
