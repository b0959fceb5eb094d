// Command benchcheck is the CI benchmark gate: it parses `go test -bench`
// output, takes the best (minimum) ns/op per benchmark across repeated runs,
// and fails when a benchmark with a committed baseline in a BENCH_*.json
// file regressed beyond the tolerance.
//
// Usage:
//
//	benchcheck -tolerance 0.25 -baseline BENCH_store.json [-baseline …] \
//	    [-dominance 'BenchmarkDefault:BenchmarkFixedA,BenchmarkFixedB' …] out1.txt [out2.txt …]
//
// Bench output files are whatever `go test -run '^$' -bench … -count N`
// printed (CI tees them and uploads them as artifacts). Baselines are the
// repository's BENCH_*.json files; only their "benchmarks" arrays are read,
// matching on the "name" field with the GOMAXPROCS suffix ("-8") stripped
// from measured names. A name that two gating rows define — in one file or
// across files — is an error rather than a silent override: every gate has
// exactly one baseline. Benchmarks without a baseline row — or whose row
// carries no ns_per_op, the convention for fsync-bound benchmarks too noisy
// to gate — are reported informationally and do not gate; baseline rows
// that were not measured are ignored (other CI jobs cover them).
//
// The tolerance is deliberately loose (see the note field of each BENCH
// file): baselines are recorded on the maintainer's hardware, CI runners
// differ, and -benchtime 1x is noisy — the gate exists to catch
// order-of-magnitude scheduling regressions the moment they land, not 5%
// drifts, which re-recording on comparable hardware tracks instead.
//
// A -dominance rule 'Default:FixedA,FixedB' additionally asserts that the
// measured Default row is no slower than the best of the fixed rows times
// (1+tolerance). Unlike the baseline gate, this compares rows measured in
// the same run on the same machine, so it holds on any hardware: it is how
// CI pins that the default (hybrid) engine never loses a workload to an
// engine a user could have pinned by hand. Every benchmark a rule names
// must appear in the measured output — a missing row fails the gate rather
// than silently weakening it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineDoc is the slice of a BENCH_*.json file this tool reads.
type baselineDoc struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkReconcileFrontier-8   	      10	 103053633 ns/op	…
//
// The -8 GOMAXPROCS suffix is optional (absent at GOMAXPROCS=1).
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBenchOutput folds result lines into the minimum ns/op per benchmark
// name — with -count N the minimum is the least-noisy estimate of the true
// cost.
func parseBenchOutput(lines []string, best map[string]float64) {
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := best[m[1]]; !ok || ns < cur {
			best[m[1]] = ns
		}
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// dominanceRule asserts that one benchmark (the default engine's row) is no
// slower than the best of a set of alternatives measured in the same run.
type dominanceRule struct {
	def        string
	candidates []string
}

// parseDominance parses 'Default:FixedA,FixedB'.
func parseDominance(spec string) (dominanceRule, error) {
	def, rest, ok := strings.Cut(spec, ":")
	var r dominanceRule
	if !ok || def == "" || rest == "" {
		return r, fmt.Errorf("dominance rule %q: want 'Default:FixedA,FixedB'", spec)
	}
	r.def = def
	for _, c := range strings.Split(rest, ",") {
		if c == "" {
			return r, fmt.Errorf("dominance rule %q: empty candidate name", spec)
		}
		r.candidates = append(r.candidates, c)
	}
	return r, nil
}

// checkDominance applies one rule against the measured results; the returned
// error is the gate failure, if any.
func checkDominance(r dominanceRule, best map[string]float64, tolerance float64) error {
	def, ok := best[r.def]
	if !ok {
		return fmt.Errorf("dominance rule names %s, which was not measured", r.def)
	}
	bestFixed := 0.0
	bestName := ""
	for _, c := range r.candidates {
		ns, ok := best[c]
		if !ok {
			return fmt.Errorf("dominance rule names %s, which was not measured", c)
		}
		if bestName == "" || ns < bestFixed {
			bestFixed, bestName = ns, c
		}
	}
	if def > bestFixed*(1+tolerance) {
		return fmt.Errorf("%s at %.0f ns/op loses to %s at %.0f ns/op by more than %.0f%% — the default engine must not lose a workload to a pinned engine",
			r.def, def, bestName, bestFixed, tolerance*100)
	}
	fmt.Printf("  ok %-55s %14.0f ns/op vs best fixed %s %.0f (%+.1f%%)\n",
		r.def+" (dominance)", def, bestName, bestFixed, (def/bestFixed-1)*100)
	return nil
}

func run() error {
	var baselines, dominances multiFlag
	tolerance := flag.Float64("tolerance", 0.25, "allowed ns/op regression vs the baseline (0.25 = +25%)")
	flag.Var(&baselines, "baseline", "BENCH_*.json baseline file (repeatable)")
	flag.Var(&dominances, "dominance", "'Default:FixedA,FixedB' same-run dominance assertion (repeatable)")
	flag.Parse()
	if len(baselines) == 0 || flag.NArg() == 0 {
		return fmt.Errorf("usage: benchcheck -tolerance 0.25 -baseline BENCH_x.json [...] bench-output.txt [...]")
	}

	baseline := map[string]float64{}
	source := map[string]string{} // the baseline file that defined each name
	for _, path := range baselines {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc baselineDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, b := range doc.Benchmarks {
			if b.NsPerOp <= 0 {
				continue
			}
			if prev, ok := source[b.Name]; ok {
				return fmt.Errorf("%s is defined by both %s and %s; a gated benchmark needs exactly one baseline", b.Name, prev, path)
			}
			baseline[b.Name], source[b.Name] = b.NsPerOp, path
		}
	}

	best := map[string]float64{}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		var lines []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		parseBenchOutput(lines, best)
	}
	if len(best) == 0 {
		return fmt.Errorf("no benchmark result lines found in %s", strings.Join(flag.Args(), ", "))
	}

	failed := 0
	for _, name := range sortedKeys(best) {
		ns := best[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Printf("  ?  %-55s %14.0f ns/op (no baseline)\n", name, ns)
			continue
		}
		limit := base * (1 + *tolerance)
		mark, note := "ok", ""
		if ns > limit {
			mark = "FAIL"
			note = fmt.Sprintf("  exceeds +%.0f%% tolerance", *tolerance*100)
			failed++
		}
		fmt.Printf("%4s %-55s %14.0f ns/op vs baseline %.0f (%+.1f%%)%s\n",
			mark, name, ns, base, (ns/base-1)*100, note)
	}
	for _, spec := range dominances {
		rule, err := parseDominance(spec)
		if err != nil {
			return err
		}
		if err := checkDominance(rule, best, *tolerance); err != nil {
			fmt.Printf("FAIL %s\n", err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark gate(s) failed at the %.0f%% tolerance", failed, *tolerance*100)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}
