package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sociograph/reconcile"
	"github.com/sociograph/reconcile/internal/loadgen"
	"github.com/sociograph/reconcile/internal/tenant"
)

// referenceDecode is the encoding/json path decodeJob falls back to.
func referenceDecode(body []byte) (jobRequest, error) {
	var req jobRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// requireOnePass fails unless the one-pass parser takes body and yields
// exactly what encoding/json yields.
func requireOnePass(t *testing.T, name string, body []byte) {
	t.Helper()
	got, ok := decodeCanonical(body)
	if !ok {
		t.Fatalf("%s: the one-pass parser declined a canonical body: %.200s", name, body)
	}
	want, err := referenceDecode(body)
	if err != nil {
		t.Fatalf("%s: encoding/json refused the body: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: one-pass result differs from encoding/json's", name)
	}
}

// TestDecodeJobCanonicalBodies requires the one-pass parser to take the
// body of every client in this repository, so the fast path cannot be lost
// to an encoder change without a failing test.
func TestDecodeJobCanonicalBodies(t *testing.T) {
	req := testInstance(t, 300, 0.2)

	// The Go client shape: json.Marshal of the server's own request type,
	// with and without options.
	for _, opts := range []optionsSpec{{}, {Threshold: new(int), Bucketing: new(bool)}} {
		r := req
		r.Options = opts
		r.UntilStable, r.MaxSweeps = true, 8
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		requireOnePass(t, "json.Marshal(jobRequest)", body)
	}

	// bench/serve.go's jobBody: a map, so the keys come out sorted.
	type benchGraph struct {
		Nodes int      `json:"nodes"`
		Edges [][2]int `json:"edges"`
	}
	wire := func(g graphSpec) benchGraph {
		out := benchGraph{Nodes: g.Nodes, Edges: make([][2]int, len(g.Edges))}
		for i, e := range g.Edges {
			out.Edges[i] = e
		}
		return out
	}
	seeds := make([][2]int, len(req.Seeds))
	for i, p := range req.Seeds {
		seeds[i] = p
	}
	body, err := json.Marshal(map[string]any{
		"g1": wire(req.G1), "g2": wire(req.G2), "seeds": seeds,
		"untilStable": true, "maxSweeps": 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireOnePass(t, "bench jobBody", body)

	// README's indented curl example, read from the README itself.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, example, ok := strings.Cut(string(readme), "localhost:8080/v1/jobs -d '")
	if example, _, ok = strings.Cut(example, "'"); !ok {
		t.Fatal("README's job submission example not found")
	}
	requireOnePass(t, "README example", []byte(example))

	// internal/loadgen's request type, captured off the wire.
	for i, body := range loadgenBodies(t) {
		requireOnePass(t, fmt.Sprintf("loadgen body %d", i), body)
	}
}

// loadgenBodies runs a small loadgen scenario against an in-memory server
// and returns the job bodies it submitted.
func loadgenBodies(t *testing.T) [][]byte {
	t.Helper()
	s := newMTServer(t, nil, serverConfig{registry: tenant.NewRegistry()})
	var mu sync.Mutex
	var bodies [][]byte
	h := s.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: ts.URL, Client: ts.Client(), Scenario: "batch",
		Tenants: 1, JobsPerTenant: 2, Workers: 1, Seed: 5,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	for _, f := range rep.Failures {
		t.Errorf("loadgen failure: %s", f)
	}
	if len(bodies) == 0 {
		t.Fatal("loadgen submitted no job")
	}
	return bodies
}

// FuzzDecodeJobRequest checks the one-pass parser against encoding/json:
// for every input it either declines or yields exactly the request the
// encoding/json path yields, and it never panics. Both paths apply the
// pair rule, so a malformed pair must make both refuse.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{"g1":{"nodes":3,"edges":[[0,1],[1,2]]},"g2":{"nodes":3,"edges":[[0,2]]},"seeds":[[0,0]],"options":{"threshold":1},"untilStable":true,"maxSweeps":4}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeCanonical(body)
		want, err := referenceDecode(body)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("one-pass parser took a body encoding/json refuses (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("one-pass result %+v differs from encoding/json's %+v for %q", got, want, body)
		}
	})
}

// TestPairRule pins the pair rule on both decode paths: a pair is exactly
// two integers, and the ends keep their wire values for the range checks.
func TestPairRule(t *testing.T) {
	for _, bad := range []string{`[2]`, `[1,2,7]`, `[]`, `null`, `[1.0,2]`, `[1e0,2]`, `["1",2]`, `[null,1]`, `[1,99999999999999999999]`, `{}`} {
		body := []byte(`{"seeds":[` + bad + `]}`)
		if _, ok := decodeCanonical(body); ok {
			t.Errorf("one-pass parser took seed %s", bad)
		}
		if _, err := decodeJob(body); err == nil {
			t.Errorf("decodeJob took seed %s", bad)
		}
	}
	for _, body := range []string{`{"seeds":[[4294967297, 1]]}`, `{"seeds":[[4294967297,1]], "x":0}`} {
		req, err := decodeJob([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := []pairSpec{{4294967297, 1}}; !reflect.DeepEqual(req.Seeds, want) {
			t.Fatalf("%s: seeds %v, want the wire values %v", body, req.Seeds, want)
		}
		if err := checkSeeds(req.Seeds, 10, 10); err == nil {
			t.Fatalf("%s: checkSeeds took a seed past the node count", body)
		}
	}
	if err := checkGraph(graphSpec{Nodes: 4, Edges: []pairSpec{{4294967297, 1}}}); err == nil {
		t.Fatal("checkGraph took an edge past the node count")
	}
}

// BenchmarkDecodeJob decodes a serve-benchmark-shaped job body (PA n =
// 3,000, m = 10, two copies at 0.5, 10% seeds) both ways.
func BenchmarkDecodeJob(b *testing.B) {
	r := reconcile.NewRand(31)
	world := reconcile.GeneratePA(r, 3000, 10)
	g1, g2 := reconcile.IndependentCopies(r, world, 0.5, 0.5)
	spec := func(g *reconcile.Graph) graphSpec {
		s := graphSpec{Nodes: g.NumNodes()}
		g.Edges(func(e reconcile.Edge) bool {
			s.Edges = append(s.Edges, pairSpec{int(e.U), int(e.V)})
			return true
		})
		return s
	}
	req := jobRequest{G1: spec(g1), G2: spec(g2), UntilStable: true, MaxSweeps: 8}
	for _, p := range reconcile.Seeds(r, reconcile.IdentityPairs(3000), 0.1) {
		req.Seeds = append(req.Seeds, pairSpec{int(p.Left), int(p.Right)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, path := range []struct {
		name   string
		decode func([]byte) (jobRequest, error)
	}{{"one-pass", decodeJob}, {"encoding-json", referenceDecode}} {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := path.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
