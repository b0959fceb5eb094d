package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sociograph/reconcile"
)

// serveProc is one cmd/serve process.
type serveProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServe launches cmd/serve over dataDir at GOMAXPROCS measureProcs,
// with one run slot (so two tenants contend for it) and a range-shard
// target below the large job's node count (so large jobs checkpoint in two
// ranges).
func startServe(e *env, dataDir string, port int) (*serveProc, error) {
	log, err := os.OpenFile(filepath.Join(e.work, "serve.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.serveBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-data-dir", dataDir,
		"-run-slots", "1",
		"-range-nodes", strconv.Itoa(e.size.rangeNodes))
	cmd.Stdout, cmd.Stderr = log, log
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", measureProcs))
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting cmd/serve: %w", err)
	}
	return &serveProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: log}, nil
}

// kill stops the process with SIGKILL and waits until it has ended.
func (s *serveProc) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only if the process already exited; Wait reaps it either way
	_ = s.cmd.Wait()         // "signal: killed" is the expected outcome
	s.log.Close()
}

// awaitHealthy polls /healthz until it answers 200. The server recovers its
// store before it listens, so 200 means recovery is complete.
func (s *serveProc) awaitHealthy(ctx context.Context, c *client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if resp, err := c.get(ctx, "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			log, _ := os.ReadFile(s.log.Name()) // best effort: the log only explains the error
			return fmt.Errorf("cmd/serve at %s not healthy after 60s; its log ends:\n%s", s.base, log[max(0, len(log)-2000):])
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one closed-loop HTTP caller with a single connection. It keeps
// exact client-side latencies per request kind.
type client struct {
	e      *env
	hc     *http.Client
	base   string
	lane   string
	lat    map[string][]float64 // request kind -> latencies, ms
	n429   int
	polls  int
	traced bool  // record spans for the current op
	op     int64 // span id of the current op
}

func newClient(e *env, base, lane string) *client {
	return &client{
		e:    e,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base, lane: lane, lat: map[string][]float64{},
	}
}

// do sends one request and decodes a 2xx JSON answer into out. A 429 is
// back-pressure, not a failure: it is counted and retried.
func (c *client) do(ctx context.Context, kind, method, path string, body []byte, out any) (int, error) {
	backoff := time.Millisecond
	for {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, err
		}
		var decodeErr error
		if resp.StatusCode/100 == 2 && out != nil {
			decodeErr = json.NewDecoder(resp.Body).Decode(out)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		end := time.Now()
		if kind != "" {
			c.lat[kind] = append(c.lat[kind], ms(end.Sub(start)))
		}
		if c.traced {
			c.e.spans.add(span{id: c.e.spans.newID(), parent: c.op, op: c.op, lane: c.lane,
				name: "http " + method + " " + kind, start: start, end: end,
				args: map[string]any{"status": resp.StatusCode}})
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return resp.StatusCode, decodeErr
		}
		c.n429++
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 100*time.Millisecond)
	}
}

// settle polls a job until it leaves "running" and returns its status.
func (c *client) settle(ctx context.Context, path string) (string, error) {
	for {
		var v struct {
			Status string `json:"status"`
		}
		code, err := c.do(ctx, "poll", http.MethodGet, path, nil, &v)
		c.polls++
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("poll %s: status %d", path, code)
		}
		if v.Status != "running" {
			return v.Status, nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(c.e.size.pollEvery):
		}
	}
}

// metricsText is one /metrics scrape, keyed by series ("name{labels}").
type metricsText map[string]float64

// get sends an untimed GET whose body the caller reads and closes.
func (c *client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

func (c *client) scrape(ctx context.Context) (metricsText, error) {
	resp, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := metricsText{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// sum adds up the series of one family whose labels contain match.
func (m metricsText) sum(name, match string) float64 {
	t := 0.0
	for k, v := range m {
		if (strings.HasPrefix(k, name+"{") || k == name) && strings.Contains(k, match) {
			t += v
		}
	}
	return t
}

// spanTotal is a /metrics span histogram's count and seconds for one kind.
func (m metricsText) spanTotal(kind string) (count, secs float64) {
	label := `kind="` + kind + `"`
	return m.sum("reconcile_trace_span_seconds_count", label), m.sum("reconcile_trace_span_seconds_sum", label)
}

// totalAlloc reads the server's cumulative heap allocation in bytes from
// the heap profile's text form (runtime.MemStats.TotalAlloc).
func (c *client) totalAlloc(ctx context.Context) (float64, error) {
	resp, err := c.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no TotalAlloc line")
}

// adminTenant is the slice of GET /v1/admin/tenants the gates read.
type adminTenant struct {
	Name  string `json:"name"`
	Usage struct {
		Jobs            int    `json:"jobs"`
		RunSlots        int    `json:"runSlots"`
		QueuedRuns      int    `json:"queuedRuns"`
		CheckpointBytes int64  `json:"checkpointBytes"`
		WalkedBytes     *int64 `json:"walkedBytes"`
	} `json:"usage"`
}

func (c *client) tenants(ctx context.Context, query string) ([]adminTenant, error) {
	var v struct {
		Tenants []adminTenant `json:"tenants"`
	}
	code, err := c.do(ctx, "", http.MethodGet, "/v1/admin/tenants"+query, nil, &v)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("admin tenants: status %d", code)
	}
	return v.Tenants, err
}

// jobSpec is one served job: its wire request, the operations a client
// performs on it, and the pairs the library computes for them.
type jobSpec struct {
	shape     string
	body      []byte   // POST .../jobs body
	seeds     [][]byte // small-incremental: POST .../seeds bodies, in order
	seedCodes []int    // the status each seed POST must get: 202, or 409 on a conflict
	want      uint64   // expected pair hash
}

const serveMaxSweeps = 8

type wireGraph struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

func toWire(g *reconcile.Graph) wireGraph {
	w := wireGraph{Nodes: g.NumNodes()}
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(reconcile.NodeID(v)) {
			if int(u) > v {
				w.Edges = append(w.Edges, [2]int{v, int(u)})
			}
		}
	}
	return w
}

// jobBody is a POST .../jobs body. Every served job sweeps until stable,
// at most serveMaxSweeps sweeps.
func jobBody(g1, g2 wireGraph, seeds []reconcile.Pair) ([]byte, error) {
	return json.Marshal(map[string]any{
		"g1": g1, "g2": g2, "seeds": wirePairs(seeds),
		"untilStable": true, "maxSweeps": serveMaxSweeps,
	})
}

func wirePairs(ps []reconcile.Pair) [][2]int {
	out := make([][2]int, len(ps))
	for i, p := range ps {
		out[i] = [2]int{int(p.Left), int(p.Right)}
	}
	return out
}

// makeJob generates a job of the given shape and computes its expected
// result with the library, replaying the client's operation sequence: a
// churned job must equal an uninterrupted run, and an incremental job's
// seed batches are applied all-or-nothing, skipping the ones the server
// must refuse with 409.
func makeJob(ctx context.Context, shape string, seed uint64, n int) (*jobSpec, time.Duration, error) {
	start := time.Now()
	in := genInstance(seed, n)
	gen := time.Since(start)
	w1, w2 := toWire(in.g1), toWire(in.g2)
	// The server builds its graphs from the wire edges; so does the reference.
	g1 := reconcile.FromEdges(w1.Nodes, wireEdges(w1))
	g2 := reconcile.FromEdges(w2.Nodes, wireEdges(w2))
	initial, held := in.seeds, []reconcile.Pair(nil)
	if shape == "small-incremental" {
		initial, held = in.seeds[:len(in.seeds)-20], in.seeds[len(in.seeds)-20:]
	}
	body, err := jobBody(w1, w2, initial)
	if err != nil {
		return nil, 0, err
	}
	sp := &jobSpec{shape: shape, body: body}
	rec, err := reconcile.New(g1, g2, reconcile.WithSeeds(initial))
	if err != nil {
		return nil, 0, err
	}
	res, err := rec.RunUntilStable(ctx, serveMaxSweeps)
	if err != nil {
		return nil, 0, err
	}
	for len(held) > 0 {
		batch := held[:10]
		held = held[10:]
		b, err := json.Marshal(map[string]any{"seeds": wirePairs(batch)})
		if err != nil {
			return nil, 0, err
		}
		sp.seeds = append(sp.seeds, b)
		if conflicts(res.Pairs, batch) {
			sp.seedCodes = append(sp.seedCodes, http.StatusConflict)
			continue
		}
		sp.seedCodes = append(sp.seedCodes, http.StatusAccepted)
		if err := rec.AddSeeds(batch); err != nil {
			return nil, 0, err
		}
		if res, err = rec.RunUntilStable(ctx, serveMaxSweeps); err != nil {
			return nil, 0, err
		}
	}
	sp.want = hashPairs(res.Pairs)
	return sp, gen, nil
}

func wireEdges(w wireGraph) []reconcile.Edge {
	out := make([]reconcile.Edge, len(w.Edges))
	for i, e := range w.Edges {
		out[i] = reconcile.Edge{U: reconcile.NodeID(e[0]), V: reconcile.NodeID(e[1])}
	}
	return out
}

// conflicts reports whether any seed of batch links a node that the
// matching, or an earlier seed of the batch, links elsewhere — the case the
// server refuses whole with 409.
func conflicts(pairs, batch []reconcile.Pair) bool {
	left := map[reconcile.NodeID]reconcile.NodeID{}
	right := map[reconcile.NodeID]bool{}
	for _, p := range pairs {
		left[p.Left] = p.Right
		right[p.Right] = true
	}
	for _, p := range batch {
		if r, ok := left[p.Left]; ok {
			if r == p.Right {
				continue
			}
			return true
		}
		if right[p.Right] {
			return true
		}
		left[p.Left] = p.Right
		right[p.Right] = true
	}
	return false
}

// serveShapes is each serve client's job cycle.
var serveShapes = []string{"small-batch", "small-incremental", "small-churn", "large-batch"}

// jobTotals accumulates the server-side span totals of traced jobs, read
// from each job's /trace before it is deleted.
type jobTotals struct {
	jobs                                   int
	clientMs                               float64
	slotWait, sweep, ckptWrite, seedIngest float64 // ms
	sweeps, ckptWrites                     float64
}

func (t *jobTotals) add(o jobTotals) {
	t.jobs += o.jobs
	t.clientMs += o.clientMs
	t.slotWait += o.slotWait
	t.sweep += o.sweep
	t.ckptWrite += o.ckptWrite
	t.seedIngest += o.seedIngest
	t.sweeps += o.sweeps
	t.ckptWrites += o.ckptWrites
}

// job drives one job through its shape's lifecycle, then verifies and
// deletes it. It returns the job's latency (submit to seeing the terminal
// status) and whether the op failed; the error is reserved for a
// correctness mismatch or cancellation, which abort the run.
func (c *client) job(ctx context.Context, tenant string, sp *jobSpec, tt *jobTotals) (time.Duration, bool, error) {
	base := "/v1/tenants/" + tenant + "/jobs"
	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	code, err := c.do(ctx, "submit", http.MethodPost, base, sp.body, &created)
	if err != nil || code != http.StatusAccepted {
		return 0, true, ctx.Err()
	}
	path := base + "/" + created.ID
	ok, err := c.lifecycle(ctx, path, sp)
	lat := time.Since(start)
	if err != nil {
		return 0, true, err
	}
	if ok {
		var v struct {
			Pairs [][2]int `json:"pairs"`
		}
		code, err := c.do(ctx, "pairs", http.MethodGet, path+"?pairs=1", nil, &v)
		if err != nil || code != http.StatusOK {
			ok = false
		} else if h := hashWirePairs(v.Pairs); h != sp.want {
			return 0, true, mismatch("served %s job %s: pair hash %x, library %x", sp.shape, path, h, sp.want)
		}
	}
	if ok && c.traced {
		var tv struct {
			Totals map[string]struct {
				Count int64 `json:"count"`
				Nanos int64 `json:"nanos"`
			} `json:"totals"`
		}
		if code, err := c.do(ctx, "", http.MethodGet, path+"/trace", nil, &tv); err == nil && code == http.StatusOK {
			tt.add(jobTotals{
				jobs: 1, clientMs: ms(lat),
				slotWait: float64(tv.Totals["slot-wait"].Nanos) / 1e6, sweep: float64(tv.Totals["sweep"].Nanos) / 1e6,
				ckptWrite: float64(tv.Totals["checkpoint-write"].Nanos) / 1e6, seedIngest: float64(tv.Totals["seed-ingest"].Nanos) / 1e6,
				sweeps: float64(tv.Totals["sweep"].Count), ckptWrites: float64(tv.Totals["checkpoint-write"].Count),
			})
		}
	}
	if code, err := c.do(ctx, "delete", http.MethodDelete, path, nil, nil); err != nil || code != http.StatusOK {
		ok = false
	}
	return lat, !ok, ctx.Err()
}

// lifecycle runs a submitted job to its terminal status; false means the
// server answered something the op does not allow.
func (c *client) lifecycle(ctx context.Context, path string, sp *jobSpec) (bool, error) {
	done := func() (bool, error) {
		st, err := c.settle(ctx, path)
		if err != nil {
			return false, ctx.Err()
		}
		return st == "done", nil
	}
	switch sp.shape {
	case "small-incremental":
		if ok, err := done(); !ok {
			return false, err
		}
		for i, body := range sp.seeds {
			code, err := c.do(ctx, "seeds", http.MethodPost, path+"/seeds", body, nil)
			if err != nil {
				return false, ctx.Err()
			}
			if code != sp.seedCodes[i] {
				return false, mismatch("served incremental job %s seed batch %d: status %d, library expects %d", path, i, code, sp.seedCodes[i])
			}
			if code == http.StatusAccepted {
				if ok, err := done(); !ok {
					return false, err
				}
			}
		}
		return true, nil
	case "small-churn":
		// Checkpoint and cancel race the run; whichever state the job lands
		// in, resume must finish it with the uninterrupted result.
		if code, err := c.do(ctx, "checkpoint", http.MethodPost, path+"/checkpoint", nil, nil); err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
			return false, ctx.Err()
		}
		if code, err := c.do(ctx, "cancel", http.MethodPost, path+"/cancel", nil, nil); err != nil || code != http.StatusAccepted {
			return false, ctx.Err()
		}
		st, err := c.settle(ctx, path)
		if err != nil {
			return false, ctx.Err()
		}
		if st == "cancelled" {
			if code, err := c.do(ctx, "resume", http.MethodPost, path+"/resume", nil, nil); err != nil || code != http.StatusAccepted {
				return false, ctx.Err()
			}
			return done()
		}
		return st == "done", nil
	default:
		return done()
	}
}

// runServe measures the served system end to end: two tenants, each with
// one closed-loop client cycling through four job shapes, sharing one run
// slot. Set-up boots the server on a fresh data dir, registers the tenants,
// and generates every job with its library result.
func runServe(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	tenants := []string{"t0", "t1"}
	var srv *serveProc
	var dataDir string
	defer func() {
		srv.kill()
		os.RemoveAll(dataDir)
	}()
	var specs [][]*jobSpec // per tenant: every shape of variant 0, then of variant 1, ...
	var genSecs []float64
	err := timedSetup(o, e.size.setupReps, func(rep int) error {
		srv.kill()
		os.RemoveAll(dataDir)
		port, err := freePort()
		if err != nil {
			return err
		}
		if dataDir, err = os.MkdirTemp(e.work, "serve-"); err != nil {
			return err
		}
		if srv, err = startServe(e, dataDir, port); err != nil {
			return err
		}
		admin := newClient(e, srv.base, "serve/admin")
		defer admin.hc.CloseIdleConnections()
		if err := srv.awaitHealthy(ctx, admin); err != nil {
			return err
		}
		for _, t := range tenants {
			body, _ := json.Marshal(map[string]string{"name": t})
			if code, err := admin.do(ctx, "", http.MethodPut, "/v1/admin/tenants/"+t, body, nil); err != nil || code != http.StatusOK {
				return fmt.Errorf("registering tenant %s: status %d, %v", t, code, err)
			}
		}
		var gen time.Duration
		var cur [][]*jobSpec
		for ti := range tenants {
			var row []*jobSpec
			for v := 0; v < e.size.serveVariants; v++ {
				for si, shape := range serveShapes {
					n := e.size.smallN
					if shape == "large-batch" {
						n = e.size.largeN
					}
					sp, d, err := makeJob(ctx, shape, e.seed<<8|uint64(ti<<6|v<<3|si), n)
					if err != nil {
						return err
					}
					gen += d
					if rep > 0 && sp.want != specs[ti][len(row)].want {
						return mismatch("serve set-up rep %d: job %s/%s/%d has another expected result than rep 0", rep, tenants[ti], shape, v)
					}
					row = append(row, sp)
				}
			}
			cur = append(cur, row)
		}
		genSecs = append(genSecs, gen.Seconds())
		specs = cur
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.check("set-up reproducible")
	o.values["graph.generate_s"] = median(genSecs)

	admin := newClient(e, srv.base, "serve/admin")
	var before metricsText
	if e.traced {
		if before, err = admin.scrape(ctx); err != nil {
			return nil, err
		}
	}
	alloc0, err := admin.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	admin.hc.CloseIdleConnections()

	// Two closed-loop clients, one per tenant; traced runs trace every
	// other cycle, so both halves see every job.
	type result struct {
		c        *client
		ops      []opRecord
		traced   []float64
		plain    []float64
		att, bad int
		tt       jobTotals
		err      error
	}
	results := make([]result, len(tenants))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	deadline := e.deadline()
	ph := newPhase()
	stopSampling := ph.clock.sampleInBackground()
	var wg sync.WaitGroup
	for ti, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[ti]
			r.c = newClient(e, srv.base, "serve/"+t)
			defer r.c.hc.CloseIdleConnections()
			// A cycle is one job of every shape, of one variant; every run
			// measures whole cycles, so its job mix is fixed.
			shapes := len(serveShapes)
			for cycle := 0; time.Now().Before(deadline); cycle++ {
				r.c.traced = e.traced && cycle%2 == 0
				v := cycle % e.size.serveVariants
				for _, sp := range specs[ti][v*shapes : (v+1)*shapes] {
					r.c.op = e.spans.newID()
					opStart := time.Now()
					lat, failed, err := r.c.job(runCtx, t, sp, &r.tt)
					r.att++
					if err != nil {
						r.err = err
						cancel()
						return
					}
					if failed {
						r.bad++
						continue
					}
					d := ms(lat)
					r.ops = append(r.ops, opRecord{end: opStart.Add(lat), ms: d})
					if r.c.traced {
						r.traced = append(r.traced, d)
						e.spans.add(span{id: r.c.op, op: r.c.op, lane: r.c.lane, name: "serve.job " + sp.shape,
							start: opStart, end: opStart.Add(lat)})
					} else {
						r.plain = append(r.plain, d)
					}
				}
			}
		}()
	}
	wg.Wait()
	phaseEnd := time.Now()
	stopSampling()
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	o.check("every served job's pairs equal the library's")

	var traced, plain []float64
	httpLat := map[string][]float64{}
	var tt jobTotals
	polls, n429 := 0, 0
	for _, r := range results {
		o.attempted += r.att
		o.failed += r.bad
		ph.ops = append(ph.ops, r.ops...)
		traced = append(traced, r.traced...)
		plain = append(plain, r.plain...)
		tt.add(r.tt)
		polls += r.c.polls
		n429 += r.c.n429
		for k, v := range r.c.lat {
			httpLat[k] = append(httpLat[k], v...)
		}
	}
	done := float64(len(ph.ops))
	alloc1, err := admin.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	// End-of-run invariants: no leaked slots or queued runs, and the
	// store's byte counter equals a fresh walk of the disk.
	ts, err := admin.tenants(ctx, "?verify=bytes")
	if err != nil {
		return nil, err
	}
	disk := 0.0
	for _, t := range ts {
		u := t.Usage
		if u.RunSlots != 0 || u.QueuedRuns != 0 || u.Jobs != 0 || u.WalkedBytes == nil || *u.WalkedBytes != u.CheckpointBytes {
			return nil, mismatch("tenant %s after the run: %d slots held, %d runs queued, %d jobs left, %d tracked vs %v walked bytes",
				t.Name, u.RunSlots, u.QueuedRuns, u.Jobs, u.CheckpointBytes, u.WalkedBytes)
		}
		disk += float64(u.CheckpointBytes)
	}
	o.check("no leaked slots, queued runs or byte drift")
	o.info = append(o.info, fmt.Sprintf("%d jobs, %d polls, %d 429s", len(ph.ops), polls, n429))
	ph.report(o, phaseEnd)
	o.values["alloc_mb_per_op"] = (alloc1 - alloc0) / 1e6 / done
	if !e.traced {
		return o, nil
	}
	after, err := admin.scrape(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(name, match string) float64 { return after.sum(name, match) - before.sum(name, match) }
	for _, k := range []string{"submit", "poll", "seeds", "checkpoint", "cancel", "resume", "pairs", "delete"} {
		o.values["serve.http."+k+"_ms"] = median(httpLat[k])
	}
	o.values["serve.http.polls_per_job"] = float64(polls) / done
	o.values["serve.http.429s"] = float64(n429)
	o.values["tenant.slot_wait_ms_per_job"] = ratio(tt.slotWait, float64(tt.jobs))
	o.values["serve.engine.sweep_ms_per_job"] = ratio(tt.sweep, float64(tt.jobs))
	o.values["serve.engine.sweeps_per_job"] = ratio(tt.sweeps, float64(tt.jobs))
	o.values["serve.store.ckpt_write_ms"] = ratio(tt.ckptWrite, float64(tt.jobs))
	o.values["serve.store.ckpt_writes_per_job"] = ratio(tt.ckptWrites, float64(tt.jobs))
	o.values["serve.store.write_bytes_per_job"] = delta("reconcile_store_write_bytes_total", "") / done
	o.values["serve.store.fsync_mean_ms"] = 1e3 * ratio(delta("reconcile_store_fsync_seconds_sum", ""), delta("reconcile_store_fsync_seconds_count", ""))
	o.values["serve.store.disk_bytes"] = disk
	o.values["serve.unaccounted_frac"] = 1 - ratio(tt.slotWait+tt.sweep+tt.ckptWrite+tt.seedIngest, tt.clientMs)
	if len(plain) > 0 {
		o.values["trace.overhead_frac"] = median(traced)/median(plain) - 1
	}
	return o, nil
}

// recJob is one job of the recovery workload's data dir, as served before
// the first kill.
type recJob struct {
	id    string
	links int
	hash  uint64
}

// runRecovery measures the store's read side: repeated boots of cmd/serve
// over a populated data dir, each followed by SIGKILL. Set-up has a server
// write the jobs, records each job's served pairs, and kills it.
func runRecovery(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	var srv *serveProc
	var dataDir string
	defer func() {
		srv.kill()
		os.RemoveAll(dataDir)
	}()
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	var jobs []recJob
	var genSecs []float64
	err = timedSetup(o, e.size.setupReps, func(rep int) error {
		os.RemoveAll(dataDir)
		var err error
		if dataDir, err = os.MkdirTemp(e.work, "recovery-"); err != nil {
			return err
		}
		if srv, err = startServe(e, dataDir, port); err != nil {
			return err
		}
		defer func() { srv.kill(); srv = nil }()
		c := newClient(e, srv.base, "recovery/setup")
		defer c.hc.CloseIdleConnections()
		if err := srv.awaitHealthy(ctx, c); err != nil {
			return err
		}
		var ids []string
		var gen time.Duration
		for i := 0; i < e.size.recSmall+e.size.recLarge; i++ {
			n := e.size.smallN
			if i >= e.size.recSmall {
				n = e.size.largeN
			}
			start := time.Now()
			in := genInstance(e.seed<<8|uint64(i), n)
			gen += time.Since(start)
			body, err := jobBody(toWire(in.g1), toWire(in.g2), in.seeds)
			if err != nil {
				return err
			}
			var created struct {
				ID string `json:"id"`
			}
			if code, err := c.do(ctx, "", http.MethodPost, "/v1/jobs", body, &created); err != nil || code != http.StatusAccepted {
				return fmt.Errorf("recovery set-up: submitting job %d: status %d, %v", i, code, err)
			}
			ids = append(ids, created.ID)
		}
		genSecs = append(genSecs, gen.Seconds())
		var cur []recJob
		for _, id := range ids {
			if st, err := c.settle(ctx, "/v1/jobs/"+id); err != nil || st != "done" {
				return fmt.Errorf("recovery set-up: job %s ended %q, %v", id, st, err)
			}
			var v struct {
				Links int      `json:"links"`
				Pairs [][2]int `json:"pairs"`
			}
			if code, err := c.do(ctx, "", http.MethodGet, "/v1/jobs/"+id+"?pairs=1", nil, &v); err != nil || code != http.StatusOK {
				return fmt.Errorf("recovery set-up: reading job %s: status %d, %v", id, code, err)
			}
			cur = append(cur, recJob{id: id, links: v.Links, hash: hashWirePairs(v.Pairs)})
		}
		if rep > 0 {
			for i := range cur {
				if cur[i] != jobs[i] {
					return mismatch("recovery set-up rep %d: job %s differs from rep 0", rep, cur[i].id)
				}
			}
		}
		jobs = cur
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.check("set-up reproducible")
	o.values["graph.generate_s"] = median(genSecs)

	c := newClient(e, fmt.Sprintf("http://127.0.0.1:%d", port), "recovery")
	defer c.hc.CloseIdleConnections()
	// boot kills the running server (if any), starts a new one over the
	// data dir, and waits until it is healthy and its admin listing shows
	// every job.
	boot := func() error {
		srv.kill()
		var err error
		if srv, err = startServe(e, dataDir, port); err != nil {
			return err
		}
		c.hc.CloseIdleConnections()
		if err := srv.awaitHealthy(ctx, c); err != nil {
			return err
		}
		ts, err := c.tenants(ctx, "")
		if err != nil {
			return err
		}
		listed := 0
		for _, t := range ts {
			listed += t.Usage.Jobs
		}
		if listed != len(jobs) {
			return mismatch("boot lists %d jobs, the data dir holds %d", listed, len(jobs))
		}
		return nil
	}
	// checkJobs gates a booted server's job table: every job done, with the
	// links it had before the kill.
	checkJobs := func() error {
		var v struct {
			Jobs []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
				Links  int    `json:"links"`
			} `json:"jobs"`
		}
		if code, err := c.do(ctx, "", http.MethodGet, "/v1/jobs", nil, &v); err != nil || code != http.StatusOK {
			return fmt.Errorf("listing jobs: status %d, %v", code, err)
		}
		if len(v.Jobs) != len(jobs) {
			return mismatch("boot lists %d jobs, want %d", len(v.Jobs), len(jobs))
		}
		for i, j := range v.Jobs {
			if j.ID != jobs[i].id || j.Status != "done" || j.Links != jobs[i].links {
				return mismatch("after boot, job %s is %s with %d links; before the kill %s was done with %d",
					j.ID, j.Status, j.Links, jobs[i].id, jobs[i].links)
			}
		}
		return nil
	}
	if err := boot(); err != nil { // warm-up
		return nil, err
	}
	var traced, plain, allocs []float64
	var opens, openSecs, replays, replaySecs, sweeps, ckptWrites, writeBytes, disk float64
	tracedBoots := 0
	ph := newPhase()
	deadline := e.deadline()
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		err := boot()
		t1 := time.Now()
		o.attempted++
		if err != nil {
			if errors.Is(err, errMismatch) || ctx.Err() != nil {
				return nil, err
			}
			o.failed++
			continue
		}
		if err := checkJobs(); err != nil {
			return nil, err
		}
		ph.op(t1, t1.Sub(t0))
		d := ms(t1.Sub(t0))
		a, err := c.totalAlloc(ctx)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, a)
		if !e.traced || i%2 == 1 {
			plain = append(plain, d)
			continue
		}
		traced = append(traced, d)
		tracedBoots++
		m, err := c.scrape(ctx)
		if err != nil {
			return nil, err
		}
		bootOpens, s := m.spanTotal("graph-open")
		opens, openSecs = opens+bootOpens, openSecs+s
		n, s := m.spanTotal("checkpoint-replay")
		replays, replaySecs = replays+n, replaySecs+s
		n, _ = m.spanTotal("sweep")
		sweeps += n
		n, _ = m.spanTotal("checkpoint-write")
		ckptWrites += n
		writeBytes += m.sum("reconcile_store_write_bytes_total", "")
		disk = m.sum("reconcile_store_tenant_bytes", "")
		op := e.spans.newID()
		e.spans.add(span{id: op, op: op, lane: "recovery", name: "recovery.boot", start: t0, end: t1,
			args: map[string]any{"graphOpens": bootOpens, "jobs": len(jobs)}})
	}
	ph.report(o, time.Now())
	o.check("every boot lists every job, done, with its links")
	// The last boot's pairs must equal what the server served before the
	// first kill.
	for _, j := range jobs {
		var v struct {
			Pairs [][2]int `json:"pairs"`
		}
		if code, err := c.do(ctx, "", http.MethodGet, "/v1/jobs/"+j.id+"?pairs=1", nil, &v); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("reading job %s: status %d, %v", j.id, code, err)
		}
		if h := hashWirePairs(v.Pairs); h != j.hash {
			return nil, mismatch("recovered job %s: pair hash %x, before the kill %x", j.id, h, j.hash)
		}
	}
	o.check("recovered pairs equal the pairs served before the kill")
	o.info = append(o.info, fmt.Sprintf("%d boots over %d jobs", len(ph.ops), len(jobs)))
	o.values["alloc_mb_per_op"] = median(allocs) / 1e6
	if !e.traced {
		return o, nil
	}
	b, nj := float64(tracedBoots), float64(tracedBoots*len(jobs))
	o.values["graph.open_ms"] = 1e3 * ratio(openSecs, b)
	o.values["graph.open_count"] = ratio(opens, b)
	o.values["serve.store.replay_ms"] = 1e3 * ratio(replaySecs, b)
	o.values["serve.store.replay_records"] = ratio(replays, b)
	o.values["serve.store.disk_bytes"] = disk
	o.values["serve.engine.sweeps_per_job"] = ratio(sweeps, nj)
	o.values["serve.store.ckpt_writes_per_job"] = ratio(ckptWrites, nj)
	o.values["serve.store.write_bytes_per_job"] = ratio(writeBytes, nj)
	if len(plain) > 0 {
		o.values["trace.overhead_frac"] = median(traced)/median(plain) - 1
	}
	return o, nil
}
