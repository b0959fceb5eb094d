package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/sociograph/reconcile"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hashPairs fingerprints a matching in its output order.
func hashPairs(ps []reconcile.Pair) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range ps {
		putPair(&b, uint32(p.Left), uint32(p.Right))
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashWirePairs fingerprints a matching in the serve wire format; it equals
// hashPairs of the same pairs.
func hashWirePairs(ps [][2]int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range ps {
		putPair(&b, uint32(p[0]), uint32(p[1]))
		h.Write(b[:])
	}
	return h.Sum64()
}

func putPair(b *[8]byte, l, r uint32) {
	b[0], b[1], b[2], b[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
	b[4], b[5], b[6], b[7] = byte(r), byte(r>>8), byte(r>>16), byte(r>>24)
}

// timedSetup runs set-up reps times and sets setup_s to the median time of
// a rep, each scaled by the host speed sampled while it ran. Each rep does
// the whole set-up again; the closure checks that a later rep reproduces the
// first and releases what an earlier rep held.
func timedSetup(o *outcome, reps int, f func(rep int) error) error {
	var ref, wall []float64
	for i := 0; i < reps; i++ {
		var clock hostClock
		clock.sample()
		stop := clock.sampleInBackground()
		start := time.Now()
		err := f(i)
		end := time.Now()
		stop()
		if err != nil {
			return err
		}
		wall = append(wall, end.Sub(start).Seconds())
		ref = append(ref, end.Sub(start).Seconds()*clock.speed(start, end))
	}
	o.values["setup_s"] = median(ref)
	o.wall["setup_s"] = median(wall)
	return nil
}

// memDelta is the change in the Go runtime's allocation counters over an
// interval of the benchmark process.
type memDelta struct {
	allocBytes, mallocs, gcCycles uint64
	gcPause                       time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d *memDelta) add(before, after runtime.MemStats) {
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.mallocs += after.Mallocs - before.Mallocs
	d.gcCycles += uint64(after.NumGC - before.NumGC)
	d.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// perOp reports the delta's per-layer allocation metrics over n ops.
func (d memDelta) perOp(o *outcome, n int) {
	o.values["core.mallocs_per_op"] = ratio(float64(d.mallocs), float64(n))
	o.values["core.gc_cycles_per_op"] = ratio(float64(d.gcCycles), float64(n))
	o.values["core.gc_pause_ms_per_op"] = ratio(ms(d.gcPause), float64(n))
}

// sliceLen is the length of the stretches a measured phase is cut into; the
// ops that end in a stretch are scaled by the host speed sampled in it.
const sliceLen = time.Second

// phase records the ops of one measured phase.
type phase struct {
	start, end time.Time
	ops        []opRecord
	paused     [][2]time.Time // intervals that are not part of the phase (incremental restores)
	clock      hostClock
}

type opRecord struct {
	end time.Time
	ms  float64
}

func newPhase() *phase {
	p := &phase{}
	p.clock.sample()
	p.start = time.Now()
	return p
}

// op records one completed op, then samples the host speed if one is due.
func (p *phase) op(end time.Time, lat time.Duration) {
	p.ops = append(p.ops, opRecord{end: end, ms: ms(lat)})
	p.clock.maybeSample()
}

// report ends the phase and sets op_p50_ms, op_p90_ms and ops_per_s at the
// reference host speed, and their wall-clock values beside them.
func (p *phase) report(o *outcome, end time.Time) {
	p.end = end
	p.clock.sample()
	n := max(1, int(p.end.Sub(p.start)/sliceLen))
	w := p.end.Sub(p.start) / time.Duration(n)
	speed := make([]float64, n)
	wallSecs, refSecs := 0.0, 0.0
	for s := range speed {
		from := p.start.Add(time.Duration(s) * w)
		to := from.Add(w)
		speed[s] = p.clock.speed(from, to)
		active := w
		for _, iv := range p.paused {
			if lo, hi := maxTime(iv[0], from), minTime(iv[1], to); hi.After(lo) {
				active -= hi.Sub(lo)
			}
		}
		wallSecs += active.Seconds()
		refSecs += active.Seconds() * speed[s]
	}
	var wall, ref []float64
	for _, op := range p.ops {
		s := min(max(int(op.end.Sub(p.start)/w), 0), n-1)
		wall = append(wall, op.ms)
		ref = append(ref, op.ms*speed[s])
	}
	o.values["op_p50_ms"] = median(ref)
	o.values["op_p90_ms"] = quantile(ref, 0.9)
	o.values["ops_per_s"] = float64(len(p.ops)) / refSecs
	o.wall["op_p50_ms"] = median(wall)
	o.wall["op_p90_ms"] = quantile(wall, 0.9)
	o.wall["ops_per_s"] = float64(len(p.ops)) / wallSecs
	o.wall["host_speed"] = p.clock.speed(p.start, p.end.Add(1))
	o.info = append(o.info, fmt.Sprintf("%d ops in %.1fs; wall clock: p50 %.4g ms, p90 %.4g ms, %.4g ops/s; host at %.2f of reference speed",
		len(p.ops), p.end.Sub(p.start).Seconds(), o.wall["op_p50_ms"], o.wall["op_p90_ms"], o.wall["ops_per_s"], o.wall["host_speed"]))
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
