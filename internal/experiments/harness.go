// Package experiments reproduces every table and figure of the paper's
// Section 5. Each experiment is a pure function of a Config (seed + scale),
// prints the same rows the paper reports, and returns structured results so
// tests can assert the qualitative claims (perfect precision on synthetic
// copies, the degree-bucketing error reduction, cascade ≥ independent
// deletion, attack robustness, baseline weaknesses).
//
// Experiments run on scaled-down stand-ins by default — the paper's graphs
// reach 121M nodes — with the scale exposed so larger runs reproduce the
// trend lines; see EXPERIMENTS.md for paper-vs-measured numbers.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/sociograph/reconcile/internal/core"
	"github.com/sociograph/reconcile/internal/eval"
	"github.com/sociograph/reconcile/internal/graph"
	"github.com/sociograph/reconcile/internal/xrand"
)

// Config parameterizes a run. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Scale is the stand-in size as a fraction of the paper's dataset size
	// (see datasets.Table1). Experiments note their per-dataset floors.
	Scale float64
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// Workers bounds matcher parallelism (0 = GOMAXPROCS).
	Workers int
	// RMATBase is the smallest RMAT scale for Table 2 (paper: 24; the two
	// larger graphs are base+2 and base+4).
	RMATBase int
}

// DefaultConfig is sized for a laptop run of the full suite in minutes.
func DefaultConfig() Config {
	return Config{Scale: 0.05, Seed: 1, RMATBase: 15}
}

func (c Config) validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("experiments: scale %v outside (0,1]", c.Scale)
	}
	if c.RMATBase < 4 || c.RMATBase > 26 {
		return fmt.Errorf("experiments: RMAT base %d outside [4,26]", c.RMATBase)
	}
	return nil
}

func (c Config) rng(salt uint64) *xrand.Rand {
	return xrand.New(c.Seed*0x9e3779b97f4a7c15 + salt)
}

// Report is an experiment's output: rendered tables plus free-form notes.
type Report struct {
	Name   string
	Tables []*eval.Table
	Notes  []string
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", r.Name)
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner executes one experiment.
type Runner func(Config) (*Report, error)

// Registry maps experiment IDs (as used by cmd/experiments -run) to runners.
var Registry = map[string]Runner{
	"figure2":       Figure2,
	"table2":        Table2,
	"table3fb":      Table3Facebook,
	"table3enron":   Table3Enron,
	"figure3":       Figure3,
	"table4":        Table4,
	"table5dblp":    Table5DBLP,
	"table5gowalla": Table5Gowalla,
	"table5wiki":    Table5Wikipedia,
	"figure4":       Figure4,
	"attack":        Attack,
	"ablation":      Ablation,
	// Extensions beyond the paper's evaluation (Section 3.1 generalizations
	// and design-choice ablations; see extensions.go).
	"ext-noise":     Noise,
	"ext-seednoise": SeedNoise,
	"ext-scoring":   ScoringAblation,
	"ext-theory":    TheoryCheck,
	"ext-active":    ActiveAttackExp,
}

// Names returns the registry keys in sorted order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reconcile runs the core matcher with experiment-standard options.
func reconcile(g1, g2 *graph.Graph, seeds []graph.Pair, threshold int, cfg Config) (*core.Result, error) {
	opts := core.DefaultOptions()
	opts.Threshold = threshold
	opts.Workers = cfg.Workers
	return core.Reconcile(context.Background(), g1, g2, seeds, opts)
}

// percent renders a fraction like "10%".
func percent(l float64) string { return fmt.Sprintf("%.0f%%", l*100) }
