// Command bench is the repository's end-to-end and per-layer benchmark.
//
// One invocation runs the four workloads (batch, incremental, serve,
// recovery) with tracing off and prints every end-to-end metric, re-runs
// each workload traced and prints the per-layer metrics, checks that every
// output is correct, and exits non-zero if any check fails. The library is
// driven in-process through its public API; cmd/serve is built once, before
// any clock starts, and driven as a subprocess over HTTP. See README.md for
// the metric and workload definitions.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -seed 1 [-workload batch,serve] [-trace 0|1]
//	                  [-seconds 10] [-out runs.jsonl] [-trace-out spans.json]
//	bash bench/run.sh diff set1.jsonl set2.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With a single workload and -trace
// 0 the metrics are the end-to-end set, with -trace 1 the per-layer set;
// otherwise each name carries its workload as a suffix ("op_p50_ms@batch").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload and measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the metrics of single layers, from the traced run. Every
// workload reports all of them; a layer the workload bypasses reads 0, which
// is how the benchmark shows the bypass (batch: no handoff; incremental: no
// full scans; recovery: no sweeps or writes).
var perLayer = []metricDef{
	{"core.new_ms", "ms"},
	{"core.bucket_ms", "ms"},
	{"core.bucket_max_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.buckets_per_op", "count"},
	{"core.sweeps_per_op", "count"},
	{"core.links_per_op", "count"},
	{"core.addseeds_ms", "ms"},
	{"core.rerun_ms", "ms"},
	{"core.handoff_ms", "ms"},
	{"core.handoffs", "count"},
	{"core.frontier_op_frac", "ratio"},
	{"core.op_nproc_p50_ms", "ms"},
	{"core.scaling_speedup", "ratio"},
	{"core.scaling_efficiency", "ratio"},
	{"core.mallocs_per_op", "count"},
	{"core.gc_cycles_per_op", "count"},
	{"core.gc_pause_ms_per_op", "ms"},
	{"graph.generate_s", "s"},
	{"graph.open_ms", "ms"},
	{"graph.open_count", "count"},
	{"serve.store.ckpt_write_ms", "ms"},
	{"serve.store.ckpt_writes_per_job", "count"},
	{"serve.store.write_bytes_per_job", "bytes"},
	{"serve.store.fsync_mean_ms", "ms"},
	{"serve.store.replay_ms", "ms"},
	{"serve.store.replay_records", "count"},
	{"serve.store.disk_bytes", "bytes"},
	{"tenant.slot_wait_ms_per_job", "ms"},
	{"serve.http.submit_ms", "ms"},
	{"serve.http.poll_ms", "ms"},
	{"serve.http.seeds_ms", "ms"},
	{"serve.http.checkpoint_ms", "ms"},
	{"serve.http.cancel_ms", "ms"},
	{"serve.http.resume_ms", "ms"},
	{"serve.http.pairs_ms", "ms"},
	{"serve.http.delete_ms", "ms"},
	{"serve.http.polls_per_job", "count"},
	{"serve.http.429s", "count"},
	{"serve.engine.sweep_ms_per_job", "ms"},
	{"serve.engine.sweeps_per_job", "count"},
	{"serve.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// measureProcs is the GOMAXPROCS of every measured phase, and of the
// servers the benchmark starts. It is 1 because a two-vCPU virtual machine
// (Xeon, 2.1 GHz) does not reliably keep its second vCPU: a two-thread
// calibration loop there alternated between one-thread and two-thread speed
// for seconds at a time, which moved all-core medians of the same inputs by
// 16% from run to run while one-core medians stayed within 4%. The traced
// batch run measures all-core scaling as a per-layer metric.
const measureProcs = 1

// workloads in the order they run. Each takes its inputs from the seed.
var workloads = []struct {
	name string
	run  func(context.Context, *env) (*outcome, error)
}{
	{"batch", runBatch},
	{"incremental", runIncremental},
	{"serve", runServe},
	{"recovery", runRecovery},
}

// env is what a workload run needs to know.
type env struct {
	seed     uint64
	seconds  float64 // length of the measured phase
	traced   bool
	size     sizes
	serveBin string   // built cmd/serve; empty when no workload needs it
	work     string   // scratch directory for data dirs and logs
	spans    *spanLog // nil when untraced
}

// sizes are the instance sizes of every workload.
type sizes struct {
	quick         bool
	setupReps     int           // set-up runs per workload run; setup_s is their median
	batchN        int           // batch: PA nodes
	batchPool     int           // batch: instances
	incN          int           // incremental: PA nodes
	incPool       int           // incremental: instances
	incHold       int           // incremental: seeds held back from set-up and ingested 5 at a time
	smallN        int           // serve: small job PA nodes
	largeN        int           // serve: large job PA nodes (two graphs, so 2·largeN nodes)
	serveVariants int           // serve: instances of each job shape per tenant
	rangeNodes    int           // serve -range-nodes: below 2·largeN, so large jobs checkpoint in 2 ranges
	recSmall      int           // recovery: small jobs in the data dir
	recLarge      int           // recovery: large jobs in the data dir
	pollEvery     time.Duration // serve: client poll interval
}

var fullSizes = sizes{
	setupReps: 3, batchN: 15000, batchPool: 16, incN: 30000, incPool: 6, incHold: 1000,
	smallN: 3000, largeN: 6000, serveVariants: 3, rangeNodes: 8192,
	recSmall: 28, recLarge: 2, pollEvery: 5 * time.Millisecond,
}

var quickSizes = sizes{
	quick: true, setupReps: 2, batchN: 2000, batchPool: 3, incN: 3000, incPool: 2, incHold: 100,
	smallN: 300, largeN: 1200, serveVariants: 1, rangeNodes: 2048,
	recSmall: 4, recLarge: 1, pollEvery: 2 * time.Millisecond,
}

func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// outcome is one workload run's counts, gates and raw metric values.
type outcome struct {
	attempted, failed int
	checks            []string // correctness gates that ran and passed
	values            map[string]float64
	wall              map[string]float64 // end-to-end times unscaled, and the host speed
	info              []string           // human-readable notes (quality, sample counts)
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}, wall: map[string]float64{}} }

// check records a gate that ran and passed.
func (o *outcome) check(name string) {
	if !slices.Contains(o.checks, name) {
		o.checks = append(o.checks, name)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one run of one workload in one mode, as appended to -out.
type row struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Quick      bool               `json:"quick,omitempty"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Host       hostInfo           `json:"host"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Checks     []string           `json:"checks"`
	Metrics    map[string]metric  `json:"metrics"`
	Wall       map[string]float64 `json:"wall"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:], os.Stdout))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// run parses the flags, runs the selected workloads and prints the result;
// it returns the process exit code.
func run(ctx context.Context, args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	var names string
	fs.StringVar(&names, "workload", "batch,incremental,serve,recovery", "comma-separated workloads to run")
	fs.StringVar(&names, "workloads", "batch,incremental,serve,recovery", "alias of -workload")
	seconds := fs.Float64("seconds", 15, "length of each measured phase, in seconds")
	traceMode := fs.Int("trace", -1, "0: end-to-end run only; 1: traced per-layer run only; -1: both")
	out := fs.String("out", "", "append one JSON line per run to this file")
	traceOut := fs.String("trace-out", "", "write the traced runs' span log here (Chrome trace format, opens in Perfetto)")
	quick := fs.Bool("quick", false, "tiny instances, for smoke tests")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode < -1 || *traceMode > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be -1, 0 or 1 and -seconds positive")
		return 2
	}
	var selected []string
	needServe := false
	for _, n := range strings.Split(names, ",") {
		if workloadRun(n) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, n)
		needServe = needServe || n == "serve" || n == "recovery"
	}
	modes := []bool{false, true}
	if *traceMode >= 0 {
		modes = []bool{*traceMode == 1}
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	build := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{seed: *seed, seconds: *seconds, size: fullSizes, work: work}
	if *quick {
		e.size = quickSizes
	}
	if needServe {
		// Built before any clock starts: compiling is not set-up time.
		e.serveBin = filepath.Join(build, "serve")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", e.serveBin, "./cmd/serve")
		cmd.Dir = absRoot
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: building cmd/serve:", err)
			return 1
		}
	}

	host := readHost(absRoot)
	runtime.GOMAXPROCS(measureProcs)
	fmt.Fprintf(stdout, "host: %s | nproc %d | NumCPU %d | GOMAXPROCS %d | %s | commit %s dirty=%v | seed %d\n",
		host.CPU, host.Nproc, host.NumCPU, runtime.GOMAXPROCS(0), host.GoVersion, host.Commit, host.Dirty, *seed)

	// Traced runs always record spans, so the tracing overhead they report
	// does not depend on whether the log is written out.
	spans := newSpanLog()
	single := len(selected) == 1 && len(modes) == 1
	final := map[string]metric{}
	attempted, failed, correct := 0, 0, true
	for _, name := range selected {
		for _, traced := range modes {
			e.traced = traced
			e.spans = nil
			if traced {
				e.spans = spans
			}
			r, err := runOne(ctx, e, name, host)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace=%v): %v\n", name, traced, err)
				correct = false
				continue
			}
			attempted += r.Attempted
			failed += r.Failed
			printRow(stdout, r)
			for k, m := range r.Metrics {
				if !single {
					k += "@" + name
				}
				final[k] = m
			}
			if *out != "" {
				if err := appendRow(*out, r); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					correct = false
				}
			}
		}
	}
	if *traceOut != "" {
		if err := spans.writeChrome(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			correct = false
		}
	}
	if attempted == 0 {
		// Every run attempts something; one that aborted before counting
		// reports its attempt as failed.
		attempted, failed = 1, 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, final})
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadRun(name string) func(context.Context, *env) (*outcome, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// runOne runs one workload in one mode and turns its outcome into a row
// holding exactly the mode's metric set.
func runOne(ctx context.Context, e *env, name string, host hostInfo) (*row, error) {
	o, err := workloadRun(name)(ctx, e)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	r := &row{
		Workload: name, Seed: e.seed, Trace: e.traced, Seconds: e.seconds,
		Quick: e.size.quick, Gomaxprocs: runtime.GOMAXPROCS(0), Host: host,
		Attempted: o.attempted, Failed: o.failed, Checks: o.checks,
		Metrics: map[string]metric{}, Wall: o.wall,
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		if !e.traced && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, s := range o.info {
		fmt.Fprintf(os.Stderr, "  %s: %s\n", name, s)
	}
	return r, nil
}

func printRow(w *os.File, r *row) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s, %s: %d ops attempted, %d failed; gates passed: %s\n",
		r.Workload, mode, r.Attempted, r.Failed, strings.Join(r.Checks, ", "))
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

func appendRow(path string, r *row) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo identifies the machine and code a row was measured on.
type hostInfo struct {
	CPU       string `json:"cpu"`
	Nproc     int    `json:"nproc"`
	NumCPU    int    `json:"numCPU"`
	GoVersion string `json:"goVersion"`
	OS        string `json:"os"`
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
}

func readHost(root string) hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("nproc").Output(); err == nil {
		fmt.Sscan(string(b), &h.Nproc)
	}
	// Only ask git about a checkout that is itself a repository: without
	// .git, git would search the parent directories.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
		if b, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			h.Dirty = len(strings.TrimSpace(string(b))) > 0
		}
	}
	return h
}

// errMismatch marks a failed correctness gate: the run aborts.
var errMismatch = errors.New("correctness gate failed")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}
