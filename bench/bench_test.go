package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickRun runs every workload in both modes at -quick sizes and checks
// the result against BENCHMARK.json: every metric it names is emitted, with
// its unit and a finite value, every run passed its correctness gates, and
// the traced runs show each workload bypassing the layers it should.
func TestQuickRun(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rows := filepath.Join(dir, "rows.jsonl")
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	code := run(context.Background(), []string{"-quick", "-seconds", "0.3", "-root", "..",
		"-out", rows, "-trace-out", filepath.Join(dir, "spans.json")}, stdout)
	if code != 0 {
		out, _ := os.ReadFile(stdout.Name())
		t.Fatalf("bench exited %d:\n%s", code, out)
	}

	got := map[string]map[bool]row{}
	f, err := os.Open(rows)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if got[r.Workload] == nil {
			got[r.Workload] = map[bool]row{}
		}
		got[r.Workload][r.Trace] = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for traced, defs := range map[bool][]struct{ Name, Unit string }{false: spec.EndToEnd, true: spec.PerLayer} {
			r, ok := got[w.Name][traced]
			if !ok {
				t.Errorf("%s trace=%v: no row", w.Name, traced)
				continue
			}
			if r.Attempted == 0 || r.Failed != 0 || len(r.Checks) < 2 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d gates=%v", w.Name, traced, r.Attempted, r.Failed, r.Checks)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(defs))
			}
			for _, k := range []string{"setup_s", "op_p50_ms", "host_speed"} {
				if v := r.Wall[k]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: wall-clock %s = %v, want > 0", w.Name, traced, k, v)
				}
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}

	layer := func(w, name string) float64 { return got[w][true].Metrics[name].Value }
	if v := layer("batch", "core.handoffs"); v != 0 {
		t.Errorf("batch handed off to the frontier %v times; it should stay on full scans", v)
	}
	if v := layer("incremental", "core.frontier_op_frac"); v != 1 {
		t.Errorf("incremental ran %v of its ingests in the frontier regime, want all", v)
	}
	if v := layer("incremental", "core.handoffs"); v != 0 {
		t.Errorf("incremental handed off %v times while measured; set-up should have done it", v)
	}
	if v := layer("incremental", "core.handoff_ms"); v <= 0 {
		t.Errorf("incremental set-up handoff took %v ms; set-up should hand off to the frontier", v)
	}
	for _, name := range []string{"serve.engine.sweeps_per_job", "serve.store.ckpt_writes_per_job", "serve.store.write_bytes_per_job"} {
		if v := layer("recovery", name); v != 0 {
			t.Errorf("recovery %s = %v; boots must not sweep or write", name, v)
		}
	}
	for _, name := range []string{"serve.store.replay_records", "graph.open_count"} {
		if v := layer("recovery", name); v <= 0 {
			t.Errorf("recovery %s = %v, want > 0", name, v)
		}
	}
	for _, name := range []string{"serve.store.ckpt_writes_per_job", "serve.engine.sweeps_per_job"} {
		if v := layer("serve", name); v <= 0 {
			t.Errorf("serve %s = %v, want > 0", name, v)
		}
	}

	spans, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &ct); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		names[strings.Fields(ev.Name)[0]] = true
	}
	for _, want := range []string{"batch.op", "core.Run", "incremental.ingest", "serve.job", "http", "recovery.boot", "sweep", "bucket"} {
		if !names[want] {
			t.Errorf("span log has no %q span", want)
		}
	}
}

// TestDiff checks the regression verdicts of the diff subcommand and that
// its quartiles match Python's statistics.quantiles(values, n=4).
func TestDiff(t *testing.T) {
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50, ops []float64) string {
		var b bytes.Buffer
		for i := range p50 {
			r := row{Workload: "batch", Metrics: map[string]metric{
				"op_p50_ms": {Value: p50[i], Unit: "ms"}, "ops_per_s": {Value: ops[i], Unit: "1/s"}}}
			line, _ := json.Marshal(r)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 99, 100}, []float64{10, 10, 10, 10})
	same := write("b.jsonl", []float64{102, 100, 101, 103}, []float64{10, 9.8, 10, 10.1})
	slow := write("c.jsonl", []float64{120, 121, 119, 122}, []float64{10, 10, 10, 10})
	fewer := write("d.jsonl", []float64{100, 100, 100, 100}, []float64{8, 8.1, 7.9, 8})
	var out bytes.Buffer
	for _, tc := range []struct {
		b    string
		code int
	}{{same, 0}, {slow, 1}, {fewer, 1}} {
		out.Reset()
		if code := runDiff([]string{"-benchmark", spec, base, tc.b}, &out); code != tc.code {
			t.Errorf("diff %s: exit %d, want %d\n%s", filepath.Base(tc.b), code, tc.code, out.String())
		}
	}
}
