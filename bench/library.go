package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/sociograph/reconcile"
)

// instance is one generated reconciliation instance in the paper's model: a
// preferential-attachment graph (m = 10), two copies that each keep every
// edge with probability 0.5, and 10% of the identity links revealed as seeds.
type instance struct {
	n      int
	g1, g2 *reconcile.Graph
	seeds  []reconcile.Pair
}

func genInstance(seed uint64, n int) instance {
	r := reconcile.NewRand(seed)
	g := reconcile.GeneratePA(r, n, 10)
	g1, g2 := reconcile.IndependentCopies(r, g, 0.5, 0.5)
	return instance{n: n, g1: g1, g2: g2, seeds: reconcile.Seeds(r, reconcile.IdentityPairs(n), 0.10)}
}

// fingerprint hashes the instance, so set-up reps can show they generated
// the same inputs.
func (in instance) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, g := range []*reconcile.Graph{in.g1, in.g2} {
		for v := 0; v < g.NumNodes(); v++ {
			for _, u := range g.Neighbors(reconcile.NodeID(v)) {
				putPair(&b, uint32(v), uint32(u))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64() ^ hashPairs(in.seeds)
}

// expected holds the good/bad counts against the identity truth that seed 1
// gives, per size class and workload. A change that alters them changes
// what the algorithm computes, not how fast.
//
//go:embed expected.json
var expectedJSON []byte

type quality struct {
	Good int `json:"good"`
	Bad  int `json:"bad"`
}

// checkQuality gates the matching of pool instance k: at least 90%
// precision for any seed, and for seed 1 and instance 0 exactly the
// recorded counts.
func checkQuality(e *env, o *outcome, workload string, k int, res *reconcile.Result, n int) error {
	c := reconcile.Evaluate(res.Pairs, res.Seeds, reconcile.IdentityTruth(n))
	if k == 0 {
		o.info = append(o.info, fmt.Sprintf("instance 0: %d links, good %d, bad %d (precision %.4f)", len(res.Pairs), c.Good, c.Bad, c.Precision()))
	}
	if c.Precision() < 0.9 {
		return mismatch("%s instance %d: precision %.4f below 0.9", workload, k, c.Precision())
	}
	if e.seed == 1 && k == 0 {
		var want map[string]map[string]quality
		if err := json.Unmarshal(expectedJSON, &want); err != nil {
			return fmt.Errorf("expected.json: %w", err)
		}
		class := "full"
		if e.size.quick {
			class = "quick"
		}
		q, ok := want[class][workload]
		if !ok {
			return mismatch("%s: no recorded counts for seed 1 (%s sizes); this run gives good %d, bad %d", workload, class, c.Good, c.Bad)
		}
		if q.Good != c.Good || q.Bad != c.Bad {
			return mismatch("%s: good/bad %d/%d, recorded for seed 1: %d/%d", workload, c.Good, c.Bad, q.Good, q.Bad)
		}
		o.check("seed-1 good/bad")
	}
	o.check("precision")
	return nil
}

// probe observes one traced op through the library's public hooks: bucket
// boundaries from WithProgress and spans from a WithTracer recorder. All
// hooks run on the op's own goroutine.
type probe struct {
	e       *env
	lane    string
	op, at  int64            // span ids: the current op, and the call library spans belong to
	created time.Time        // the current recorder's zero
	last    time.Time        // previous bucket boundary
	buckets []float64        // bucket intervals of the current op, ms
	sweeps  int              // sweep spans of the current op
	count   map[string]int   // library spans of every op so far, per kind
	nanos   map[string]int64 // their total duration, per kind
}

func newProbe(e *env, lane string) *probe {
	return &probe{e: e, lane: lane, count: map[string]int{}, nanos: map[string]int64{}}
}

// options installs the probe's hooks on a Reconciler under construction or
// restore, with a fresh span recorder.
func (p *probe) options() []reconcile.Option {
	tr := reconcile.NewTraceRecorder(reconcile.TraceConfig{OnSpan: p.onSpan})
	p.created = time.Now()
	return []reconcile.Option{reconcile.WithProgress(p.onPhase), reconcile.WithTracer(tr)}
}

// begin starts a new op; call is the span id library spans nest under.
func (p *probe) begin(op, call int64) {
	p.op, p.at = op, call
	p.last = time.Now()
	p.buckets = p.buckets[:0]
	p.sweeps = 0
}

func (p *probe) onPhase(reconcile.PhaseEvent) {
	now := time.Now()
	p.buckets = append(p.buckets, ms(now.Sub(p.last)))
	p.last = now
}

func (p *probe) onSpan(sp reconcile.TraceSpan) {
	kind := string(sp.Kind)
	p.count[kind]++
	p.nanos[kind] += sp.End - sp.Start
	if kind == "sweep" {
		p.sweeps++
	}
	name := kind
	if sp.Detail != "" {
		name += " " + sp.Detail
	}
	p.e.spans.add(span{id: p.e.spans.newID(), parent: p.at, op: p.op, lane: p.lane + "/library", name: name,
		start: p.created.Add(time.Duration(sp.Start)), end: p.created.Add(time.Duration(sp.End))})
}

// bucketTotal and bucketMax summarize the current op's bucket intervals.
func (p *probe) bucketTotal() float64 {
	t := 0.0
	for _, b := range p.buckets {
		t += b
	}
	return t
}

func (p *probe) bucketMax() float64 {
	m := 0.0
	for _, b := range p.buckets {
		m = max(m, b)
	}
	return m
}

// genPool generates a workload's instance pool from the seed. Per-run
// statistics over a pool of instances vary far less from seed to seed than
// the cost of any single instance does.
func genPool(seed uint64, n, count int) ([]instance, uint64) {
	pool := make([]instance, count)
	var fp uint64
	for k := range pool {
		pool[k] = genInstance(seed<<8|uint64(k), n)
		fp = fp*31 + pool[k].fingerprint()
	}
	return pool, fp
}

// runBatch measures the paper's one-shot case: New + Run on a cold
// instance, cycling through the pool. Set-up generates the pool and
// reconciles every instance once, which gives the matching every later rep
// on that instance must reproduce.
func runBatch(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	var pool []instance
	var want []uint64
	var fp uint64
	var genSecs []float64
	err := timedSetup(o, e.size.setupReps, func(rep int) error {
		start := time.Now()
		cur, f := genPool(e.seed, e.size.batchN, e.size.batchPool)
		genSecs = append(genSecs, time.Since(start).Seconds())
		if rep > 0 && f != fp {
			return mismatch("batch set-up rep %d generated other inputs than rep 0", rep)
		}
		hashes := make([]uint64, len(cur))
		for k, in := range cur {
			rec, err := reconcile.New(in.g1, in.g2, reconcile.WithSeeds(in.seeds))
			if err != nil {
				return err
			}
			res, err := rec.Run(ctx)
			if err != nil {
				return err
			}
			hashes[k] = hashPairs(res.Pairs)
			if rep > 0 {
				if hashes[k] != want[k] {
					return mismatch("batch set-up rep %d: instance %d pair hash %x, rep 0 %x", rep, k, hashes[k], want[k])
				}
			} else if err := checkQuality(e, o, "batch", k, res, in.n); err != nil {
				return err
			}
		}
		pool, want, fp = cur, hashes, f
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.check("set-up reproducible")
	o.values["graph.generate_s"] = median(genSecs)

	// Traced runs interleave three kinds of rep, each visiting the whole
	// pool: plain at the measured core count (the op_p50_ms baseline), plain
	// at all cores (scaling), and traced at the measured core count
	// (per-layer times, tracing overhead).
	type repKind struct {
		name   string
		procs  int
		traced bool
	}
	nproc := runtime.NumCPU()
	kinds := []repKind{{"plain", measureProcs, false}}
	if e.traced {
		kinds = append(kinds, repKind{"nproc", nproc, false}, repKind{"traced", measureProcs, true})
	}
	lat := map[string][]float64{}
	var newMs, bucketMs, bucketMax, links []float64
	var plainMem memDelta
	p := newProbe(e, "batch")
	runtime.GC()
	ph := newPhase()
	deadline := e.deadline()
	// Every kind runs at least once, however short the measured phase.
	for i := 0; i < len(kinds) || time.Now().Before(deadline); i++ {
		k := kinds[i%len(kinds)]
		ii := i / len(kinds) % len(pool)
		in := pool[ii]
		prev := runtime.GOMAXPROCS(k.procs)
		before := readMem()
		opts := []reconcile.Option{reconcile.WithSeeds(in.seeds)}
		op, newID, runID := e.spans.newID(), e.spans.newID(), e.spans.newID()
		if k.traced {
			opts = append(opts, p.options()...)
			p.begin(op, newID)
		}
		t0 := time.Now()
		rec, err := reconcile.New(in.g1, in.g2, opts...)
		t1 := time.Now()
		var res *reconcile.Result
		if err == nil {
			if k.traced {
				p.begin(op, runID)
			}
			res, err = rec.Run(ctx)
		}
		t2 := time.Now()
		after := readMem()
		runtime.GOMAXPROCS(prev)
		o.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			o.failed++
			continue
		}
		if h := hashPairs(res.Pairs); h != want[ii] {
			return nil, mismatch("batch %s rep %d on instance %d: pair hash %x, set-up gave %x", k.name, i, ii, h, want[ii])
		}
		lat[k.name] = append(lat[k.name], ms(t2.Sub(t0)))
		if k.name == "plain" {
			plainMem.add(before, after)
			ph.op(t2, t2.Sub(t0))
		}
		if k.traced {
			newMs = append(newMs, ms(t1.Sub(t0)))
			bucketMs = append(bucketMs, p.bucketTotal())
			bucketMax = append(bucketMax, p.bucketMax())
			links = append(links, float64(len(res.NewPairs)))
			e.spans.add(span{id: newID, parent: op, op: op, lane: "batch", name: "core.New", start: t0, end: t1})
			e.spans.add(span{id: runID, parent: op, op: op, lane: "batch", name: "core.Run", start: t1, end: t2})
			e.spans.add(span{id: op, op: op, lane: "batch", name: "batch.op", start: t0, end: t2,
				args: map[string]any{"instance": ii, "gomaxprocs": k.procs, "buckets": len(p.buckets)}})
		}
	}
	ph.report(o, time.Now())
	o.check("pair hash equal across reps and core counts")

	plain := lat["plain"]
	o.values["alloc_mb_per_op"] = float64(plainMem.allocBytes) / 1e6 / float64(len(plain))
	o.info = append(o.info, fmt.Sprintf("%d plain reps at %d core(s) over %d instances", len(plain), measureProcs, len(pool)))
	if !e.traced {
		return o, nil
	}
	traced := float64(len(lat["traced"]))
	o.values["core.new_ms"] = median(newMs)
	o.values["core.bucket_ms"] = median(bucketMs)
	o.values["core.bucket_max_ms"] = median(bucketMax)
	o.values["core.sweep_ms"] = ratio(float64(p.nanos["sweep"])/1e6, float64(p.count["sweep"]))
	o.values["core.buckets_per_op"] = ratio(float64(p.count["bucket"]), traced)
	o.values["core.sweeps_per_op"] = ratio(float64(p.count["sweep"]), traced)
	o.values["core.links_per_op"] = median(links)
	o.values["core.handoff_ms"] = ratio(float64(p.nanos["engine-handoff"])/1e6, float64(p.count["engine-handoff"]))
	o.values["core.handoffs"] = float64(p.count["engine-handoff"])
	o.values["core.frontier_op_frac"] = 0 // every rep starts from New, in the parallel regime
	all := median(lat["nproc"])
	o.values["core.op_nproc_p50_ms"] = all
	o.values["core.scaling_speedup"] = ratio(median(plain), all)
	o.values["core.scaling_efficiency"] = ratio(median(plain), all) * float64(measureProcs) / float64(nproc)
	plainMem.perOp(o, len(plain))
	o.values["trace.overhead_frac"] = ratio(median(lat["traced"]), median(plain)) - 1
	return o, nil
}

// incInstance is one incremental instance: its ingest plan, the converged
// state set-up snapshotted, and the trajectory of its first epoch.
type incInstance struct {
	in      instance
	plan    [][]reconcile.Pair
	state   []byte
	links   []int  // links after each ingest of the first epoch
	hash    uint64 // final pair hash of the first complete epoch
	checked bool
}

// runIncremental measures the production steady state: a converged session
// ingesting 5 new trusted links at a time, each followed by
// RunUntilStable(10). Set-up converges every pool instance with its ingest
// plan's seeds held back and snapshots it. The measured phase replays the
// plans in epochs, one instance per epoch, each restored from its snapshot
// (restores are not timed); every epoch must reproduce the first epoch on
// its instance, link count by link count.
func runIncremental(ctx context.Context, e *env) (*outcome, error) {
	const batchSize, maxSweeps = 5, 10
	o := newOutcome()
	var pool []*incInstance
	var fp uint64
	var genSecs []float64
	p := newProbe(e, "incremental")
	var setupNew time.Duration
	err := timedSetup(o, e.size.setupReps, func(rep int) error {
		start := time.Now()
		ins, f := genPool(e.seed, e.size.incN, e.size.incPool)
		genSecs = append(genSecs, time.Since(start).Seconds())
		traced := e.traced && rep == e.size.setupReps-1
		setupNew = 0
		var cur []*incInstance
		for k, in := range ins {
			seeds := make([]reconcile.Pair, len(in.seeds))
			for i, j := range reconcile.NewRand(e.seed<<8 | uint64(k) + 1).Perm(len(in.seeds)) {
				seeds[i] = in.seeds[j]
			}
			hold := min(e.size.incHold, len(seeds)/2)
			c := &incInstance{in: in}
			for i := 0; i+batchSize <= hold; i += batchSize {
				c.plan = append(c.plan, seeds[i:i+batchSize])
			}
			opts := []reconcile.Option{reconcile.WithSeeds(seeds[hold:])}
			op := e.spans.newID()
			if traced {
				opts = append(opts, p.options()...)
				p.begin(op, op)
			}
			t := time.Now()
			rec, err := reconcile.New(in.g1, in.g2, opts...)
			setupNew += time.Since(t)
			if err != nil {
				return err
			}
			if _, err := rec.RunUntilStable(ctx, 50); err != nil {
				return err
			}
			if traced {
				e.spans.add(span{id: op, op: op, lane: "incremental", name: "incremental.converge", start: t, end: time.Now(),
					args: map[string]any{"instance": k}})
			}
			var buf bytes.Buffer
			if err := rec.SnapshotState(&buf); err != nil {
				return err
			}
			c.state = buf.Bytes()
			if rep > 0 && !bytes.Equal(c.state, pool[k].state) {
				return mismatch("incremental set-up rep %d converged instance %d to another state than rep 0", rep, k)
			}
			cur = append(cur, c)
		}
		if rep > 0 && f != fp {
			return mismatch("incremental set-up rep %d generated other inputs than rep 0", rep)
		}
		pool, fp = cur, f
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.check("set-up reproducible")
	o.values["graph.generate_s"] = median(genSecs)
	o.values["core.new_ms"] = ms(setupNew) / float64(len(pool))
	o.values["core.handoff_ms"] = ratio(float64(p.nanos["engine-handoff"])/1e6, float64(p.count["engine-handoff"]))
	setupHandoffs := p.count["engine-handoff"]

	// Traced runs alternate traced and plain epochs, starting traced, so
	// both halves see every instance.
	var plainLat, tracedLat, addMs, rerunMs, bucketMs, bucketMax []float64
	var mem memDelta
	var ph *phase
	var loopEnd time.Time
	frontierOps, conflicts, epochs, buckets, sweeps, links, tracedOps := 0, 0, 0, 0, 0, 0, 0
	runtime.GC()
	deadline := e.deadline()
	for epoch := 0; time.Now().Before(deadline); epoch++ {
		ii := epoch % len(pool)
		c := pool[ii]
		traced := e.traced && epoch/len(pool)%2 == 0
		var opts []reconcile.Option
		if traced {
			opts = p.options()
		}
		rec, err := reconcile.RestoreState(c.in.g1, c.in.g2, bytes.NewReader(c.state), opts...)
		if err != nil {
			return nil, fmt.Errorf("restoring instance %d: %w", ii, err)
		}
		first := c.links == nil
		before := readMem()
		if ph == nil {
			ph = newPhase()
		} else {
			ph.paused = append(ph.paused, [2]time.Time{loopEnd, time.Now()})
		}
		complete := true
		for i, batch := range c.plan {
			if !time.Now().Before(deadline) {
				complete = false
				break
			}
			op, addID, runID := e.spans.newID(), e.spans.newID(), e.spans.newID()
			if rec.FrontierActive() {
				frontierOps++
			}
			if traced {
				p.begin(op, addID)
			}
			linksBefore := rec.Len()
			t0 := time.Now()
			if rec.AddSeeds(batch) != nil {
				// A revealed link that contradicts an inferred one is
				// rejected; the rest of the batch stays. Not a failure.
				conflicts++
			}
			t1 := time.Now()
			if traced {
				p.begin(op, runID)
			}
			_, err := rec.RunUntilStable(ctx, maxSweeps)
			t2 := time.Now()
			o.attempted++
			if err != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if first {
				c.links = append(c.links, rec.Len())
			} else if rec.Len() != c.links[i] {
				return nil, mismatch("incremental instance %d epoch %d ingest %d: %d links, its first epoch had %d",
					ii, epoch, i, rec.Len(), c.links[i])
			}
			if err != nil {
				o.failed++
				continue
			}
			ph.op(t2, t2.Sub(t0))
			d := ms(t2.Sub(t0))
			if !traced {
				plainLat = append(plainLat, d)
				continue
			}
			tracedLat = append(tracedLat, d)
			addMs = append(addMs, ms(t1.Sub(t0)))
			rerunMs = append(rerunMs, ms(t2.Sub(t1)))
			bucketMs = append(bucketMs, p.bucketTotal())
			bucketMax = append(bucketMax, p.bucketMax())
			buckets += len(p.buckets)
			sweeps += p.sweeps
			links += rec.Len() - linksBefore
			tracedOps++
			e.spans.add(span{id: addID, parent: op, op: op, lane: "incremental", name: "core.AddSeeds", start: t0, end: t1})
			e.spans.add(span{id: runID, parent: op, op: op, lane: "incremental", name: "core.RunUntilStable", start: t1, end: t2})
			e.spans.add(span{id: op, op: op, lane: "incremental", name: "incremental.ingest", start: t0, end: t2,
				args: map[string]any{"instance": ii, "epoch": epoch, "ingest": i, "links": rec.Len()}})
		}
		loopEnd = time.Now()
		mem.add(before, readMem())
		if !complete {
			if first {
				c.links = nil // a partial first epoch is no reference
			}
			break
		}
		res := rec.Result()
		h := hashPairs(res.Pairs)
		if !c.checked {
			c.hash, c.checked = h, true
			if err := checkQuality(e, o, "incremental", ii, res, c.in.n); err != nil {
				return nil, err
			}
		} else if h != c.hash {
			return nil, mismatch("incremental instance %d epoch %d: final pair hash %x, its first epoch %x", ii, epoch, h, c.hash)
		}
		epochs++
	}
	if epochs < len(pool) {
		return nil, fmt.Errorf("incremental: %d complete epochs in %gs, fewer than the %d instances; lengthen -seconds",
			epochs, e.seconds, len(pool))
	}
	o.check("every epoch reproduces the first on its instance, ingest by ingest")
	o.info = append(o.info, fmt.Sprintf("%d ingests in %d complete epochs over %d instances, %d conflicting batches",
		o.attempted, epochs, len(pool), conflicts))

	ph.report(o, loopEnd)
	o.values["alloc_mb_per_op"] = float64(mem.allocBytes) / 1e6 / float64(o.attempted)
	if !e.traced {
		return o, nil
	}
	o.values["core.addseeds_ms"] = median(addMs)
	o.values["core.rerun_ms"] = median(rerunMs)
	o.values["core.bucket_ms"] = median(bucketMs)
	o.values["core.bucket_max_ms"] = median(bucketMax)
	o.values["core.sweep_ms"] = ratio(float64(p.nanos["sweep"])/1e6, float64(p.count["sweep"]))
	o.values["core.buckets_per_op"] = ratio(float64(buckets), float64(tracedOps))
	o.values["core.sweeps_per_op"] = ratio(float64(sweeps), float64(tracedOps))
	o.values["core.links_per_op"] = ratio(float64(links), float64(tracedOps))
	o.values["core.handoffs"] = float64(p.count["engine-handoff"] - setupHandoffs)
	o.values["core.frontier_op_frac"] = float64(frontierOps) / float64(o.attempted)
	mem.perOp(o, o.attempted)
	if len(plainLat) > 0 {
		o.values["trace.overhead_frac"] = median(tracedLat)/median(plainLat) - 1
	}
	return o, nil
}
