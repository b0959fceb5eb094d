package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	best := map[string]float64{}
	parseBenchOutput([]string{
		"goos: linux",
		"BenchmarkReconcileFrontier-8   	      10	 103053633 ns/op	 2469728 B/op",
		"BenchmarkReconcileFrontier-8   	      12	  95000000 ns/op	 2469728 B/op",
		"BenchmarkReconcileFrontier-8   	       9	 110000000 ns/op",
		"BenchmarkReconcileParallel-2   	       1	  24500000 ns/op	 2187264 B/op	    1309 allocs/op",
		"BenchmarkStoreCheckpoint/delta/shards=8 	       1	   9473738 ns/op	        26.00 ckpt_bytes",
		"BenchmarkSnapshotEncodeState 	    1135	   2127301 ns/op	1420.37 MB/s",
		"PASS",
		"ok  	github.com/sociograph/reconcile	1.9s",
	}, best)
	want := map[string]float64{
		"BenchmarkReconcileFrontier":              95000000, // min of three runs
		"BenchmarkReconcileParallel":              24500000, // B/op and allocs/op columns ignored
		"BenchmarkStoreCheckpoint/delta/shards=8": 9473738,  // sub-benchmark names survive
		"BenchmarkSnapshotEncodeState":            2127301,  // no GOMAXPROCS suffix
	}
	if len(best) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(best), len(want), best)
	}
	for name, ns := range want {
		if best[name] != ns {
			t.Errorf("%s: parsed %.0f ns/op, want %.0f", name, best[name], ns)
		}
	}
}

// TestGateEndToEnd runs the built checker against synthetic baselines: a
// passing run, a >tolerance regression, and an unknown benchmark (which must
// not gate).
func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseline := write("BENCH_test.json", `{
	  "note": "synthetic",
	  "benchmarks": [
	    {"name": "BenchmarkA", "ns_per_op": 1000000},
	    {"name": "BenchmarkB/sub=1", "ns_per_op": 500}
	  ]
	}`)

	ok := write("ok.txt", strings.Join([]string{
		"BenchmarkA-4   	     100	 1100000 ns/op", // +10%: inside 25%
		"BenchmarkB/sub=1 	    1000	     480 ns/op",
		"BenchmarkUnknown 	       1	 9999999 ns/op", // no baseline: informational
	}, "\n"))
	if out, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline, ok).CombinedOutput(); err != nil {
		t.Fatalf("passing run failed: %v\n%s", err, out)
	}

	bad := write("bad.txt", strings.Join([]string{
		"BenchmarkA-4   	     100	 1400000 ns/op", // +40%: regression
		"BenchmarkA-4   	     100	 1350000 ns/op", // min still +35%
		"BenchmarkB/sub=1 	    1000	     480 ns/op",
	}, "\n"))
	out, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline, bad).CombinedOutput()
	if err == nil {
		t.Fatalf("regressed run passed:\n%s", out)
	}
	if !strings.Contains(string(out), "BenchmarkA") || !strings.Contains(string(out), "FAIL") {
		t.Fatalf("regression report missing the failing row:\n%s", out)
	}

	// Min-of-count: one good run among noisy ones passes.
	noisy := write("noisy.txt", strings.Join([]string{
		"BenchmarkA   	     100	 9000000 ns/op",
		"BenchmarkA   	     100	 1010000 ns/op",
		"BenchmarkA   	     100	 8000000 ns/op",
	}, "\n"))
	if out, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline, noisy).CombinedOutput(); err != nil {
		t.Fatalf("min-of-count run failed: %v\n%s", err, out)
	}

	// Empty input is an error, not a silent pass.
	empty := write("empty.txt", "PASS\n")
	if _, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline, empty).CombinedOutput(); err == nil {
		t.Fatal("empty bench output passed the gate")
	}

	// Dominance: the default-engine row must stay within tolerance of the
	// best fixed-engine row measured in the same run.
	engines := write("engines.txt", strings.Join([]string{
		"BenchmarkHybrid-4   	     100	 1050000 ns/op", // +5% over best fixed: fine
		"BenchmarkFixedA-4   	     100	 1000000 ns/op",
		"BenchmarkFixedB-4   	     100	 2000000 ns/op",
	}, "\n"))
	rule := "BenchmarkHybrid:BenchmarkFixedA,BenchmarkFixedB"
	if out, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline,
		"-dominance", rule, engines).CombinedOutput(); err != nil {
		t.Fatalf("dominance within tolerance failed: %v\n%s", err, out)
	}

	lost := write("lost.txt", strings.Join([]string{
		"BenchmarkHybrid-4   	     100	 1300000 ns/op", // +30% over best fixed
		"BenchmarkFixedA-4   	     100	 1000000 ns/op",
		"BenchmarkFixedB-4   	     100	 2000000 ns/op",
	}, "\n"))
	out, err = exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline,
		"-dominance", rule, lost).CombinedOutput()
	if err == nil {
		t.Fatalf("default engine losing a workload passed the gate:\n%s", out)
	}
	if !strings.Contains(string(out), "BenchmarkFixedA") {
		t.Fatalf("dominance failure does not name the winning fixed engine:\n%s", out)
	}

	// A rule naming an unmeasured benchmark fails loudly instead of
	// silently weakening the gate.
	if _, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline,
		"-dominance", "BenchmarkHybrid:BenchmarkMissing", engines).CombinedOutput(); err == nil {
		t.Fatal("dominance rule with an unmeasured candidate passed")
	}
	if _, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline,
		"-dominance", "garbage", engines).CombinedOutput(); err == nil {
		t.Fatal("malformed dominance rule accepted")
	}

	// A name two baseline files define is an error naming both files, not
	// a silent override by the later one — even when the later row would
	// pass the run the earlier one fails. Rows without ns_per_op do not
	// gate, so they define nothing.
	stale := write("BENCH_stale.json", `{
	  "benchmarks": [
	    {"name": "BenchmarkA", "ns_per_op": 2000000},
	    {"name": "BenchmarkB/sub=1"}
	  ]
	}`)
	out, err = exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline, "-baseline", stale, bad).CombinedOutput()
	if err == nil {
		t.Fatalf("a name defined by two baseline files passed:\n%s", out)
	}
	for _, want := range []string{"BenchmarkA", "BENCH_test.json", "BENCH_stale.json"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("duplicate-baseline error does not name %s:\n%s", want, out)
		}
	}
	observed := write("BENCH_observed.json", `{"benchmarks": [{"name": "BenchmarkB/sub=1"}]}`)
	if out, err := exec.Command(bin, "-tolerance", "0.25", "-baseline", baseline, "-baseline", observed, ok).CombinedOutput(); err != nil {
		t.Fatalf("an ungated row counted as a second baseline: %v\n%s", err, out)
	}
}
