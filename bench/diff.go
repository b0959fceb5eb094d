package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the diff reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runDiff compares two sets of runs written by -out, workload by workload:
// for each end-to-end metric it prints both medians, the relative change,
// the bound from BENCHMARK.json and each set's quartile spread. A metric
// whose spread is wider than its bound is unresolved; the exit code is 1
// when any metric worsens by more than its bound.
func runDiff(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench diff [-benchmark BENCHMARK.json] a.jsonl b.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench diff:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench diff: %s: %v\n", *specPath, err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i := range sets {
		if sets[i], err = readSet(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "bench diff:", err)
			return 2
		}
	}
	return printDiff(w, spec, sets[0], sets[1])
}

// readSet loads the untraced rows of a -out file as workload -> metric ->
// values, one value per run.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			set[r.Workload][k] = append(set[r.Workload][k], m.Value)
		}
	}
	return set, sc.Err()
}

func printDiff(w io.Writer, spec benchmarkSpec, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "change", "bound", "spread a", "spread b", "verdict")
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ma[m.Name], mb[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing in one set\n", wl.name, m.Name)
				code = 1
				continue
			}
			medA, medB := median(va), median(vb)
			change := medB/medA - 1
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			if sa > m.Bound || sb > m.Bound {
				verdict = "unresolved"
			}
			if worse > m.Bound {
				verdict += ", WORSE beyond bound"
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-16s %12.5g %12.5g %+7.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				wl.name, m.Name, medA, medB, 100*change, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return code
}

// spread is the distance between the first and third quartiles as a share
// of the median, with quartiles computed like Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}
