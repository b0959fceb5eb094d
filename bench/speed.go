package main

import (
	"sync"
	"time"
)

// The benchmark shares its machine with other tenants. On a shared
// two-vCPU virtual machine they slowed one core by up to half, for seconds to
// minutes at a time (the hypervisor's steal time stayed near 1%, so the loss
// is contention for the core itself), and the quartile spread of wall-clock
// op_p50_ms across ten seeds reached 20–32%. So every time the benchmark
// reports is scaled to a reference host speed: a fixed CPU kernel is timed
// through each measured phase and set-up rep, and each stretch of time is
// scaled by how fast the kernel ran during it. The wall-clock values are
// printed and recorded beside the scaled ones.
//
// Work the library leaves running in the background between ops (a GC
// cycle still marking, say) slows the kernel samples too, and is therefore
// partly discounted; a median over many samples keeps that small.

// refKernelMs is about the kernel's time between ops on an uncontended core
// of a 2.1 GHz Xeon. Reported times are what that core would have taken.
const refKernelMs = 1.0

// sampleEvery is the kernel's sampling period; one sample costs about a
// millisecond.
const sampleEvery = 100 * time.Millisecond

// The kernel walks two buffers. 512 KiB fits one core's L2 cache, so that
// walk sees contention for the core; 4 MiB does not, so that walk runs from
// the shared L3 cache and sees contention there, which slows the workloads'
// graph scans more than the core alone does. Weighting the two walks 4 to 1
// in steps tracked the workloads' slowdowns best of the mixes tried.
var l2Buf [1 << 16]uint64
var l3Buf [1 << 19]uint64

// kernel does a fixed amount of CPU work, pseudo-random read-modify-write
// walks over l2Buf and l3Buf, and returns its duration. It allocates
// nothing, so it never starts a GC cycle. Only one goroutine runs it at a
// time.
func kernel() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l2Buf[x%uint64(len(l2Buf))] += x
	}
	for i := 0; i < 50_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l3Buf[(x>>17)%uint64(len(l3Buf))] += x
	}
	return time.Since(start)
}

// hostClock holds the kernel samples of one measured phase or set-up rep.
type hostClock struct {
	mu sync.Mutex
	at []time.Time
	ms []float64
}

func (c *hostClock) sample() {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := kernel()
	c.at = append(c.at, time.Now())
	c.ms = append(c.ms, ms(d))
}

// maybeSample samples unless the last sample is younger than sampleEvery.
// Workloads call it between ops, so the kernel never runs inside one.
func (c *hostClock) maybeSample() {
	c.mu.Lock()
	due := len(c.at) == 0 || time.Since(c.at[len(c.at)-1]) >= sampleEvery
	c.mu.Unlock()
	if due {
		c.sample()
	}
}

// sampleInBackground samples every sampleEvery until the returned stop
// function is called; stop returns once sampling has ended. It serves
// set-up and the serve workload, which have no gaps between ops to sample
// in.
func (c *hostClock) sampleInBackground() (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// speed is the host's speed over [from, to) relative to the reference:
// refKernelMs ÷ the median kernel time sampled in the interval, or over the
// whole phase when the interval holds no sample.
func (c *hostClock) speed(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in []float64
	for i, t := range c.at {
		if !t.Before(from) && t.Before(to) {
			in = append(in, c.ms[i])
		}
	}
	if len(in) == 0 {
		in = c.ms
	}
	return refKernelMs / median(in)
}
