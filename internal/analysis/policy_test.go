package analysis

import "testing"

func TestPolicyMatches(t *testing.T) {
	cases := []struct {
		pattern, relDir string
		want            bool
	}{
		{"internal/core", "internal/core", true},
		{"internal/core", "internal/core/sub", false},
		{"internal/...", "internal/core", true},
		{"internal/...", "internal", true},
		{"internal/...", "internalx", false},
		{".", ".", true},
		{".", "cmd/serve", false},
	}
	for _, tc := range cases {
		if got := matches(tc.pattern, tc.relDir); got != tc.want {
			t.Errorf("matches(%q, %q) = %v, want %v", tc.pattern, tc.relDir, got, tc.want)
		}
	}
}

func TestDefaultPolicyNamesKnownAnalyzers(t *testing.T) {
	suite := All()
	for _, r := range DefaultPolicy().Rules {
		if suite[r.Analyzer] == nil {
			t.Errorf("policy rule names unknown analyzer %q", r.Analyzer)
		}
		if len(r.Packages) == 0 {
			t.Errorf("policy rule for %q selects no packages", r.Analyzer)
		}
	}
}

// TestPolicyCoversTracePackage pins the observability rows: the span
// recorder stays under the determinism ban (its one wall-clock read lives
// behind a reasoned //lint:allow) and under secret-hygiene (span details are
// served verbatim by the /trace endpoint).
func TestPolicyCoversTracePackage(t *testing.T) {
	got := DefaultPolicy().analyzersFor("internal/trace")
	for _, a := range []string{"determinism", "secret-hygiene"} {
		if _, ok := got[a]; !ok {
			t.Errorf("internal/trace not covered by the %q rule", a)
		}
	}
}

// TestPolicyCoversServeDecode pins the serve layer's decode paths (the
// job-body parser, the store's replay) under the no-panic-decode rule.
func TestPolicyCoversServeDecode(t *testing.T) {
	if _, ok := DefaultPolicy().analyzersFor("cmd/serve")["no-panic-decode"]; !ok {
		t.Error("cmd/serve not covered by the \"no-panic-decode\" rule")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/core/engine.go", Line: 37, Analyzer: "ctx-propagation", Message: "context.Background in library code"}
	want := "internal/core/engine.go:37: [ctx-propagation] context.Background in library code"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
