package analysis

import "strings"

// Rule enables one analyzer for a set of packages, with optional
// per-package configuration.
type Rule struct {
	Analyzer string
	// Packages are module-relative package directories ("." is the module
	// root). A trailing "/..." matches the whole subtree.
	Packages []string
	Options  map[string]string
}

// Policy is the table deciding which analyzers run where. It is plain data
// so the golden-fixture tests can aim the same analyzers at fixture
// packages with a policy of their own.
type Policy struct {
	Rules []Rule
}

// matches reports whether pattern covers the module-relative directory.
func matches(pattern, relDir string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return relDir == sub || strings.HasPrefix(relDir, sub+"/")
	}
	return pattern == relDir
}

// analyzersFor returns the analyzers enabled for a package directory, with
// their options.
func (p Policy) analyzersFor(relDir string) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, r := range p.Rules {
		for _, pat := range r.Packages {
			if matches(pat, relDir) {
				out[r.Analyzer] = r.Options
				break
			}
		}
	}
	return out
}

// DefaultPolicy is the production table: which invariant is load-bearing in
// which package. DESIGN.md ("Machine-checked invariants") documents each
// row; changing a row is an architectural decision, not a lint tweak.
func DefaultPolicy() Policy {
	return Policy{Rules: []Rule{
		{
			// Bit-identical output across engines and resumes: no wall
			// clock, no global randomness, no map-iteration-ordered writes
			// in the packages that compute or encode session state.
			// internal/eval rides along because the coming validation API
			// (ROADMAP) turns its metrics into served answers.
			// internal/trace is covered with exactly one sanctioned
			// exception: its default wall clock (wallNanos) carries a
			// //lint:allow determinism directive with the reason on record —
			// every deterministic emitter injects Config.Clock instead, and
			// the analyzer keeps it that way.
			Analyzer: "determinism",
			Packages: []string{"internal/core", "internal/snapshot", "internal/graph", "internal/bitset", "internal/eval", "internal/trace"},
		},
		{
			// The serve layer's restore, listing, and drain order must be
			// reproducible run for run, but a server legitimately reads
			// the clock (timeouts, metrics): map-order discipline only.
			Analyzer: "determinism",
			Packages: []string{"cmd/serve"},
			Options:  map[string]string{"checks": "maprange"},
		},
		{
			// One audited byte path: the snapshot and graph codecs write
			// canonical little-endian bytes through their own helpers, never
			// through gob/json/binary.Write or a big-endian order.
			Analyzer: "canonical-codec",
			Packages: []string{"internal/snapshot", "internal/graph"},
		},
		{
			// Every durable byte in the serve store goes through the
			// temp-file + fsync + rename + dir-fsync sequence.
			Analyzer: "atomic-write",
			Packages: []string{"cmd/serve"},
			Options:  map[string]string{"funcs": "atomicWrite", "dirsync": "syncDir"},
		},
		{
			// Decode and replay paths never panic, never assert without the
			// comma-ok form, and never size an allocation from a
			// wire-controlled integer that nothing has bounded. cmd/serve
			// decodes every job body it is sent and replays its store.
			Analyzer: "no-panic-decode",
			Packages: []string{"internal/snapshot", "internal/graph", "internal/core", ".", "cmd/serve"},
		},
		{
			// The mmap store makes every byte of a mapped file wire input, so
			// internal/graph widens the decode-path name net beyond the
			// generic row above (later rows override earlier ones per
			// analyzer): the open/parse/validate/merge entry points that
			// touch mapped memory are held to the same no-panic,
			// bounded-allocation rules as Decode itself.
			Analyzer: "no-panic-decode",
			Packages: []string{"internal/graph"},
			Options:  map[string]string{"names": "^(Read|read|Decode|decode|Apply|apply|Restore|restore|Unmarshal|unmarshal|Open|open|Merge|merge|parse|validate|view)"},
		},
		{
			// internal/graph writes durable container files (EncodeMappable
			// output) in tests and tools; any file-writing helper it grows
			// must use the same temp+fsync+rename discipline as the store.
			Analyzer: "atomic-write",
			Packages: []string{"internal/graph"},
			Options:  map[string]string{"funcs": "atomicWrite", "dirsync": "syncDir"},
		},
		{
			// Library blocking paths stay cancellable: no
			// context.Background() outside main and tests, ctx parameters
			// actually threaded, blocking exported APIs take a ctx.
			Analyzer: "ctx-propagation",
			Packages: []string{"internal/core", "internal/tenant", "."},
		},
		{
			// Bearer tokens are compared in constant time and never reach
			// formatting or logging. internal/metrics and the load driver
			// joined when GET /metrics landed: metric labels and load-run
			// reports are exactly the kind of side channel a token leaks
			// through. internal/trace joined with the /trace endpoint: span
			// details are served verbatim to clients, so nothing secret may
			// ever be formatted into one.
			Analyzer: "secret-hygiene",
			Packages: []string{"internal/tenant", "cmd/serve", "internal/metrics", "internal/loadgen", "cmd/loadgen", "internal/trace"},
		},
	}}
}
