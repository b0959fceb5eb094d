package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog keeps the traced runs' spans in memory and writes them once, at
// the end, in Chrome trace format. Spans are recorded by the benchmark
// around its calls into each layer: each names the span that caused it
// (parent), and all spans of one op share the op's id. Ids are handed out
// before a span ends so children, which end first, can name their parent.
// A nil log records nothing.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	nextID  int64
	spans   []span
	dropped int
}

type span struct {
	id, parent, op int64
	lane, name     string
	start, end     time.Time
	args           map[string]any
}

// maxSpans bounds the log's memory; later spans are counted, not kept.
const maxSpans = 200000

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newID returns a fresh span id (0 on a nil log).
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// add records one completed span.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// writeChrome writes the log as Chrome trace_event JSON, one thread lane
// per span lane, loadable in Perfetto or chrome://tracing.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench"}}}
	tids := map[string]int{}
	var lanes []string
	for _, s := range l.spans {
		if _, ok := tids[s.lane]; !ok {
			tids[s.lane] = 0
			lanes = append(lanes, s.lane)
		}
	}
	sort.Strings(lanes)
	for i, lane := range lanes {
		tids[lane] = i + 1
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": lane}})
	}
	spans := append([]span(nil), l.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	for _, s := range spans {
		dur := float64(s.end.Sub(s.start)) / 1e3
		args := map[string]any{"id": s.id, "parent": s.parent, "op": s.op}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.lane, Ph: "X",
			Ts: float64(s.start.Sub(l.epoch)) / 1e3, Dur: &dur, Pid: 1, Tid: tids[s.lane], Args: args})
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"droppedSpans": l.dropped},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
