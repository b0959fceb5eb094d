package core

import (
	"errors"
	"fmt"

	"github.com/sociograph/reconcile/internal/graph"
)

// Per-node-range state sharding: a SessionState splits into R range states,
// each holding a contiguous slice of both node spaces (frontier cache rows)
// and a contiguous chunk of the pair log, so a huge job's checkpoint encode
// parallelizes across ranges the way a fleet parallelizes across jobs. Each
// range is itself a well-formed SessionState, so the existing full/delta
// codec applies per range unchanged. Range 0, the head, also carries what
// must not be split: the bounded phase log and the frontier worklists (whose
// queue order a per-node split would destroy). The R−1 tails repeat the
// head's options, schedule and regime scalars and frontier counter, so a
// merge can prove they belong to the head's checkpoint before concatenating
// them. With R = 1 the head is the state itself.
//
// The split is purely structural: MergeStateRanges(SplitStateRanges(st))
// reproduces st exactly, and the restore guarantee (resume bit-identically)
// is inherited from RestoreSession on the merged state.

// MaxStateRanges caps the range count however large the graphs get: past
// ~64-way parallel encode the fsync path is the bottleneck, and the cap
// bounds what a corrupt job meta can demand.
const MaxStateRanges = 64

// RangeCount returns the number of state ranges for a graph pair:
// ceil((n1+n2)/targetNodes), clamped to [1, MaxStateRanges]. A
// non-positive targetNodes disables sharding (returns 1).
func RangeCount(n1, n2, targetNodes int) int {
	if targetNodes <= 0 || n1 < 0 || n2 < 0 {
		return 1
	}
	total := int64(n1) + int64(n2)
	r := (total + int64(targetNodes) - 1) / int64(targetNodes)
	if r < 1 {
		return 1
	}
	if r > MaxStateRanges {
		return MaxStateRanges
	}
	return int(r)
}

// rangeSpan is a half-open node interval [start, end).
type rangeSpan struct {
	start, end int
}

func (s rangeSpan) len() int { return s.end - s.start }

// rangeSpans cuts 0..n into ranges balanced contiguous spans (sizes differ
// by at most one, larger spans first). The deterministic cut is part of the
// on-disk contract: ranged checkpoints written with one span layout must
// merge under the same layout on recovery.
func rangeSpans(n, ranges int) []rangeSpan {
	spans := make([]rangeSpan, ranges)
	base, rem := n/ranges, n%ranges
	at := 0
	for r := range spans {
		w := base
		if r < rem {
			w++
		}
		spans[r] = rangeSpan{at, at + w}
		at += w
	}
	return spans
}

// clampSeeds is a range's seed count: the part of the global seed prefix
// that falls inside its pair chunk.
func clampSeeds(globalSeeds, chunkStart, chunkLen int) int {
	s := globalSeeds - chunkStart
	if s < 0 {
		return 0
	}
	if s > chunkLen {
		return chunkLen
	}
	return s
}

// frontierLevels derives the cache-rows-per-node count from a snapshot's
// side lengths, verifying the two sides agree.
func frontierLevels(st *SessionState) (int, error) {
	fr := st.Frontier
	if len(fr.Left.ProposalNode) != len(fr.Left.ProposalScore) ||
		len(fr.Right.ProposalNode) != len(fr.Right.ProposalScore) {
		return 0, errors.New("core: range state: frontier node/score lengths disagree")
	}
	nl := -1
	if st.N1 > 0 {
		if len(fr.Left.ProposalNode)%st.N1 != 0 {
			return 0, fmt.Errorf("core: range state: left cache length %d not a multiple of n1=%d", len(fr.Left.ProposalNode), st.N1)
		}
		nl = len(fr.Left.ProposalNode) / st.N1
	} else if len(fr.Left.ProposalNode) != 0 {
		return 0, errors.New("core: range state: left cache nonempty with n1=0")
	}
	if st.N2 > 0 {
		nr := len(fr.Right.ProposalNode) / st.N2
		if len(fr.Right.ProposalNode)%st.N2 != 0 {
			return 0, fmt.Errorf("core: range state: right cache length %d not a multiple of n2=%d", len(fr.Right.ProposalNode), st.N2)
		}
		if nl >= 0 && nr != nl {
			return 0, fmt.Errorf("core: range state: cache levels disagree: left %d, right %d", nl, nr)
		}
		nl = nr
	} else if len(fr.Right.ProposalNode) != 0 {
		return 0, errors.New("core: range state: right cache nonempty with n2=0")
	}
	if nl < 0 {
		nl = 0
	}
	return nl, nil
}

// SplitStateRanges splits st into ranges range states, the head first.
// With ranges == 1 the only range is st itself.
//
// chunkStarts optionally pins where the pair log is cut: chunkStarts[r] is
// the global index where range r's chunk begins (chunkStarts[0] = 0,
// non-decreasing, all ≤ len(st.Pairs); range r owns [chunkStarts[r],
// chunkStarts[r+1]) and the last range runs to the end). A delta chain
// freezes the cut at the base checkpoint's chunk lengths so appended pairs
// land in the last range and every earlier range diffs as a pure prefix;
// nil cuts the log evenly. The returned ranges alias st's slices — encode
// or copy them before st changes.
func SplitStateRanges(st *SessionState, ranges int, chunkStarts []int) ([]*SessionState, error) {
	if st == nil {
		return nil, errors.New("core: range split: nil state")
	}
	if ranges < 1 || ranges > MaxStateRanges {
		return nil, fmt.Errorf("core: range split: range count %d outside [1, %d]", ranges, MaxStateRanges)
	}
	if st.N1 < 0 || st.N2 < 0 {
		return nil, fmt.Errorf("core: range split: negative node count (%d, %d)", st.N1, st.N2)
	}
	total := len(st.Pairs)
	starts := chunkStarts
	if starts == nil {
		starts = make([]int, ranges)
		base, rem := total/ranges, total%ranges
		at := 0
		for r := range starts {
			starts[r] = at
			at += base
			if r < rem {
				at++
			}
		}
	}
	if len(starts) != ranges {
		return nil, fmt.Errorf("core: range split: %d chunk starts for %d ranges", len(starts), ranges)
	}
	for r, s := range starts {
		if s < 0 || s > total || (r > 0 && s < starts[r-1]) || (r == 0 && s != 0) {
			return nil, fmt.Errorf("core: range split: bad chunk start %d at range %d", s, r)
		}
	}
	if ranges == 1 {
		return []*SessionState{st}, nil
	}

	nLevels := 0
	if st.Frontier != nil {
		nl, err := frontierLevels(st)
		if err != nil {
			return nil, err
		}
		nLevels = nl
	}

	spans1 := rangeSpans(st.N1, ranges)
	spans2 := rangeSpans(st.N2, ranges)
	parts := make([]*SessionState, ranges)
	for r := 0; r < ranges; r++ {
		end := total
		if r+1 < ranges {
			end = starts[r+1]
		}
		p := &SessionState{
			Opts:           st.Opts,
			N1:             spans1[r].len(),
			N2:             spans2[r].len(),
			Pairs:          st.Pairs[starts[r]:end],
			Seeds:          clampSeeds(st.Seeds, starts[r], end-starts[r]),
			Sweeps:         st.Sweeps,
			NextBucket:     st.NextBucket,
			PhasesDropped:  st.PhasesDropped,
			DroppedMatched: st.DroppedMatched,
			HybridFrontier: st.HybridFrontier,
		}
		if r == 0 {
			p.Phases = st.Phases
		}
		if st.Frontier != nil {
			p.Frontier = &FrontierSnapshot{
				Left: FrontierSideSnapshot{
					ProposalNode:  st.Frontier.Left.ProposalNode[spans1[r].start*nLevels : spans1[r].end*nLevels],
					ProposalScore: st.Frontier.Left.ProposalScore[spans1[r].start*nLevels : spans1[r].end*nLevels],
				},
				Right: FrontierSideSnapshot{
					ProposalNode:  st.Frontier.Right.ProposalNode[spans2[r].start*nLevels : spans2[r].end*nLevels],
					ProposalScore: st.Frontier.Right.ProposalScore[spans2[r].start*nLevels : spans2[r].end*nLevels],
				},
				Rescored: st.Frontier.Rescored,
			}
			if r == 0 {
				p.Frontier.Left.Dirty = st.Frontier.Left.Dirty
				p.Frontier.Right.Dirty = st.Frontier.Right.Dirty
			}
		}
		parts[r] = p
	}
	return parts, nil
}

// PairChunkStarts returns the chunk cut implied by a set of range states:
// where each range's pair chunk begins in the global log. Feeding it back
// into SplitStateRanges freezes the cut for a delta chain.
func PairChunkStarts(parts []*SessionState) []int {
	starts := make([]int, len(parts))
	at := 0
	for r, p := range parts {
		starts[r] = at
		at += len(p.Pairs)
	}
	return starts
}

// CheckStateRanges proves that parts are the ranges of one checkpoint: the
// node spans match the cut of the spans' totals, every tail repeats the
// head's options, schedule and regime scalars and frontier counter and
// carries neither phases nor worklists, the cache rows agree with the head's
// level count, and the seed counts form one global prefix. A mismatch means
// a torn or mixed checkpoint. Semantic validation of the merged state (pair
// injectivity, schedule position, frontier contents) stays where it always
// was: RestoreSession.
func CheckStateRanges(parts []*SessionState) error {
	if len(parts) < 1 || len(parts) > MaxStateRanges {
		return fmt.Errorf("core: range merge: range count %d outside [1, %d]", len(parts), MaxStateRanges)
	}
	var n1, n2, seeds int
	for r, p := range parts {
		if p == nil {
			return fmt.Errorf("core: range merge: nil range %d", r)
		}
		if p.N1 < 0 || p.N2 < 0 || p.Seeds < 0 {
			return fmt.Errorf("core: range merge: range %d has negative geometry", r)
		}
		n1, n2, seeds = n1+p.N1, n2+p.N2, seeds+p.Seeds
	}
	head := parts[0]
	nLevels := 0
	if head.Frontier != nil {
		var err error
		if nLevels, err = frontierLevels(head); err != nil {
			return err
		}
	}
	spans1 := rangeSpans(n1, len(parts))
	spans2 := rangeSpans(n2, len(parts))
	at := 0
	for r, p := range parts {
		if p.N1 != spans1[r].len() || p.N2 != spans2[r].len() {
			return fmt.Errorf("core: range merge: range %d spans (%d, %d), totals want (%d, %d)",
				r, p.N1, p.N2, spans1[r].len(), spans2[r].len())
		}
		if p.Seeds != clampSeeds(seeds, at, len(p.Pairs)) {
			return fmt.Errorf("core: range merge: range %d seed count %d is not its part of the %d-seed prefix", r, p.Seeds, seeds)
		}
		at += len(p.Pairs)
		if (p.Frontier != nil) != (head.Frontier != nil) {
			return fmt.Errorf("core: range merge: range %d frontier presence diverges from the head", r)
		}
		if p.Frontier != nil {
			if len(p.Frontier.Left.ProposalNode) != p.N1*nLevels ||
				len(p.Frontier.Left.ProposalScore) != p.N1*nLevels ||
				len(p.Frontier.Right.ProposalNode) != p.N2*nLevels ||
				len(p.Frontier.Right.ProposalScore) != p.N2*nLevels {
				return fmt.Errorf("core: range merge: range %d cache rows disagree with %d levels", r, nLevels)
			}
		}
		if r == 0 {
			continue
		}
		if p.Opts != head.Opts {
			return fmt.Errorf("core: range merge: range %d options diverge from the head", r)
		}
		if p.Sweeps != head.Sweeps || p.NextBucket != head.NextBucket ||
			p.PhasesDropped != head.PhasesDropped || p.DroppedMatched != head.DroppedMatched ||
			p.HybridFrontier != head.HybridFrontier {
			return fmt.Errorf("core: range merge: range %d fingerprint diverges from the head", r)
		}
		if len(p.Phases) != 0 {
			return fmt.Errorf("core: range merge: range %d carries %d phase entries; phases live in the head", r, len(p.Phases))
		}
		if p.Frontier != nil {
			if len(p.Frontier.Left.Dirty) != 0 || len(p.Frontier.Right.Dirty) != 0 {
				return fmt.Errorf("core: range merge: range %d carries dirty worklists; worklists live in the head", r)
			}
			if p.Frontier.Rescored != head.Frontier.Rescored {
				return fmt.Errorf("core: range merge: range %d rescored counter diverges from the head", r)
			}
		}
	}
	return nil
}

// MergeStateRanges reassembles a SessionState from its ranges once
// CheckStateRanges proves they belong together. A one-range merge returns
// the head itself, without copying it.
func MergeStateRanges(parts []*SessionState) (*SessionState, error) {
	if err := CheckStateRanges(parts); err != nil {
		return nil, err
	}
	head := parts[0]
	if len(parts) == 1 {
		return head, nil
	}
	out := &SessionState{
		Opts:           head.Opts,
		Sweeps:         head.Sweeps,
		NextBucket:     head.NextBucket,
		Phases:         head.Phases,
		PhasesDropped:  head.PhasesDropped,
		DroppedMatched: head.DroppedMatched,
		HybridFrontier: head.HybridFrontier,
	}
	total, rows1, rows2 := 0, 0, 0
	for _, p := range parts {
		out.N1 += p.N1
		out.N2 += p.N2
		out.Seeds += p.Seeds
		total += len(p.Pairs)
		if p.Frontier != nil {
			rows1 += len(p.Frontier.Left.ProposalNode)
			rows2 += len(p.Frontier.Right.ProposalNode)
		}
	}
	out.Pairs = make([]graph.Pair, 0, total)
	for _, p := range parts {
		out.Pairs = append(out.Pairs, p.Pairs...)
	}
	if head.Frontier != nil {
		fr := &FrontierSnapshot{Rescored: head.Frontier.Rescored}
		fr.Left.ProposalNode = make([]graph.NodeID, 0, rows1)
		fr.Left.ProposalScore = make([]int32, 0, rows1)
		fr.Right.ProposalNode = make([]graph.NodeID, 0, rows2)
		fr.Right.ProposalScore = make([]int32, 0, rows2)
		fr.Left.Dirty = head.Frontier.Left.Dirty
		fr.Right.Dirty = head.Frontier.Right.Dirty
		for _, p := range parts {
			fr.Left.ProposalNode = append(fr.Left.ProposalNode, p.Frontier.Left.ProposalNode...)
			fr.Left.ProposalScore = append(fr.Left.ProposalScore, p.Frontier.Left.ProposalScore...)
			fr.Right.ProposalNode = append(fr.Right.ProposalNode, p.Frontier.Right.ProposalNode...)
			fr.Right.ProposalScore = append(fr.Right.ProposalScore, p.Frontier.Right.ProposalScore...)
		}
		out.Frontier = fr
	}
	return out, nil
}
