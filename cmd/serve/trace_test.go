package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/trace"
)

// getTraceView fetches a job's trace timeline.
func getTraceView(t *testing.T, base, id string) traceView {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", base, id))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	return decode[traceView](t, resp)
}

// TestTraceEndpoint runs one stored job to completion and checks both faces
// of GET .../jobs/{id}/trace: the JSON timeline (spans for the sweeps, the
// finish-time checkpoint write, and the scheduler slot wait, with totals
// that account for every span) and the ?format=chrome trace_event form.
func TestTraceEndpoint(t *testing.T) {
	st := newTestStore(t)
	ts := httptest.NewServer(newTestServer(t, st).handler())
	defer ts.Close()

	inst := testInstance(t, 200, 0.3)
	inst.UntilStable = true
	inst.MaxSweeps = 8
	resp := postJSON(t, ts.URL+"/v1/jobs", inst)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := decode[map[string]string](t, resp)["id"]
	if v := waitForJob(t, ts.URL, id); v.Status != statusDone {
		t.Fatalf("job settled as %q", v.Status)
	}

	v := getTraceView(t, ts.URL, id)
	if v.ID != id {
		t.Fatalf("trace id = %q, want %q", v.ID, id)
	}
	if v.Sweep < 1 {
		t.Fatalf("trace sweep = %d, want >= 1", v.Sweep)
	}
	byKind := map[trace.Kind]int{}
	for _, s := range v.Spans {
		if s.End < s.Start {
			t.Fatalf("span %v ends before it starts", s)
		}
		byKind[s.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindSweep, trace.KindCheckpointWrite, trace.KindSlotWait} {
		if byKind[k] == 0 {
			t.Errorf("no %q span recorded; have %v", k, byKind)
		}
	}
	// Totals fold ring + evictions; with nothing evicted they must match
	// the span list exactly.
	for k, n := range byKind {
		if v.Totals[k].Count != int64(n) {
			t.Errorf("totals[%s].count = %d, want %d", k, v.Totals[k].Count, n)
		}
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace?format=chrome", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace?format=chrome: status %d", resp.StatusCode)
	}
	ct := decode[trace.ChromeTrace](t, resp)
	var meta, durations int
	processNamed := false
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name == "process_name" && ev.Args["name"] == id {
				processNamed = true
			}
		case "X":
			durations++
			// Perfetto requires complete events to carry dur, even dur:0
			// (an uncontended slot-wait can legitimately round to zero).
			if ev.Dur == nil {
				t.Errorf("complete event %q has no dur field", ev.Name)
			}
		}
	}
	if !processNamed {
		t.Error("chrome trace has no process_name metadata naming the job")
	}
	if meta == 0 || durations == 0 {
		t.Fatalf("chrome trace has %d metadata and %d duration events, want both > 0", meta, durations)
	}
	if durations != len(v.Spans) {
		t.Errorf("chrome trace has %d duration events, timeline has %d spans", durations, len(v.Spans))
	}

	// Unknown jobs 404 like every other job route.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace of unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceContinuousAcrossRestart is the serve face of the trace-continuity
// promise, per path (one worker, three, the frontier regime from the first
// bucket, the default): a job killed mid-run and rebooted from its
// checkpoint resumes its trace instead of restarting it — one marked resume
// span, boot replay and graph-open spans from the restore, no sweep
// recorded twice, and a timeline that never rewinds. The hybrid case
// additionally pins at most one engine-handoff span across the kill, and
// the frontier case none.
func TestTraceContinuousAcrossRestart(t *testing.T) {
	for _, path := range []string{"sequential", "frontier", "parallel", "hybrid"} {
		t.Run(path, func(t *testing.T) {
			st := newTestStore(t)
			req := testInstance(t, 300, 0.2)
			if workers, ok := map[string]int{"sequential": 1, "parallel": 3}[path]; ok {
				req.Options.Workers = &workers
			}
			g1, g2 := buildGraph(req.G1), buildGraph(req.G2)
			opts, err := buildOptions(req.Options)
			if err != nil {
				t.Fatal(err)
			}

			// The victim: a traced run killed at the third bucket boundary,
			// checkpointed as the progress hook would have left it, meta
			// frozen mid-run — exactly what a crash leaves behind.
			tr := trace.New(trace.Config{})
			var phases []phaseJSON
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ropts := []reconcile.Option{
				reconcile.WithOptions(opts),
				reconcile.WithTracer(tr),
				reconcile.WithProgress(func(e reconcile.PhaseEvent) {
					phases = append(phases, phaseJSON{
						Iteration: e.Iteration, Bucket: e.Bucket, Buckets: e.Buckets,
						MinDegree: e.MinDegree, Matched: e.Matched, Total: e.TotalLinks,
					})
					if len(phases) == 3 {
						cancel()
					}
				}),
			}
			var victim *reconcile.Reconciler
			if path == "frontier" {
				victim = newFrontierStart(t, g1, g2, toPairs(req.Seeds), ropts...)
			} else if victim, err = reconcile.New(g1, g2, append(ropts, reconcile.WithSeeds(toPairs(req.Seeds)))...); err != nil {
				t.Fatal(err)
			}
			if _, err := victim.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("victim err = %v, want cancellation", err)
			}
			js := st.jobStore("job-1")
			if err := js.saveGraphs(g1, g2); err != nil {
				t.Fatal(err)
			}
			meta := jobMeta{
				ID: "job-1", Num: 1, Status: statusRunning,
				Seeds: victim.Result().Seeds, UntilStable: true, MaxSweeps: 12,
				Trace: tr.Export(),
			}
			if err := js.checkpoint(victim, meta); err != nil {
				t.Fatal(err)
			}
			preSpans := len(meta.Trace.Spans)

			ts := httptest.NewServer(newTestServer(t, st).handler())
			defer ts.Close()
			if v := jobPairs(t, ts.URL, "job-1"); v.Status != statusInterrupted {
				t.Fatalf("restored status = %q, want interrupted", v.Status)
			}
			resp := postJSON(t, ts.URL+"/v1/jobs/job-1/resume", nil)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST resume: status %d", resp.StatusCode)
			}
			if done := waitForJob(t, ts.URL, "job-1"); done.Status != statusDone {
				t.Fatalf("resumed job: status %q (%s)", done.Status, done.Error)
			}

			v := getTraceView(t, ts.URL, "job-1")
			if len(v.Spans) <= preSpans {
				t.Fatalf("resumed trace has %d spans, crash left %d — resume recorded nothing",
					len(v.Spans), preSpans)
			}
			counts := map[trace.Kind]int{}
			sweepSeen := map[int]int{}
			lastEnd := int64(-1 << 62)
			for _, s := range v.Spans {
				counts[s.Kind]++
				if s.Kind == trace.KindSweep {
					sweepSeen[s.Sweep]++
				}
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				// Spans are recorded at completion; a restored timeline must
				// never run backwards across the restart.
				if s.End < lastEnd {
					t.Fatalf("timeline rewinds at span %+v (previous end %d)", s, lastEnd)
				}
				lastEnd = s.End
			}
			if counts[trace.KindResume] != 1 {
				t.Fatalf("resume spans = %d, want exactly 1", counts[trace.KindResume])
			}
			if counts[trace.KindSweep] == 0 {
				t.Fatal("no sweep spans after resume")
			}
			for sweep, n := range sweepSeen {
				if n > 1 {
					t.Fatalf("sweep %d recorded %d spans — duplicated across the restart", sweep, n)
				}
			}
			if counts[trace.KindCheckpointReplay] == 0 {
				t.Error("no checkpoint-replay spans from the boot restore")
			}
			if counts[trace.KindGraphOpen] != 2 {
				t.Errorf("graph-open spans = %d, want 2", counts[trace.KindGraphOpen])
			}
			if path == "hybrid" && counts[trace.KindHandoff] > 1 {
				t.Fatalf("hybrid recorded %d handoff spans across the restart, want <= 1", counts[trace.KindHandoff])
			}
			if path == "frontier" && counts[trace.KindHandoff] != 0 {
				t.Fatalf("a run in the frontier regime throughout recorded %d handoff spans", counts[trace.KindHandoff])
			}
		})
	}
}
