package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Host times are reported at the reference speed of the CPU, not as raw
// wall time. On the shared 2-vCPU VM the baseline was recorded on, each
// vCPU flips every few hundred milliseconds between two speeds: floating
// point runs about 1.8x slower while another tenant uses the same physical
// core, and loads from cache barely slow. Over minutes the share of slow
// time moves, and raw host times of the same code moved by up to 57%
// (interquartile spread over ten seeds) from one set of runs to the next.
//
// A speed clock therefore samples two fixed kernels all through the run:
// one evaluates math.Exp, one reads a cache-resident table. Each kernel time
// is divided by that kernel's time on an uncontended core of the baseline
// machine, and a phase's slowdown at time t is taken as
//
//	r(t) = phi·fp(t) + (1−phi)·mem(t),
//
// phi being the share of the phase's work that slows like floating point.
// The reference time of an interval is ∫ dt / r(t): how long the interval
// would have taken on an uncontended core. README.md ("Host times at
// reference speed") has the measurements behind the constants.

// Kernel times on an uncontended core of the baseline machine, in ns.
const (
	fpRefNs  = 11000
	memRefNs = 1400
)

// Floating-point shares of the measured phases.
const (
	// phiCompute covers Step (GMM scoring, cache and device accounting),
	// Open (EM fit) and Checkpoint/Resume (float-heavy JSON).
	phiCompute = 0.75
	// phiSummarize covers Metrics, which mostly sorts retained samples.
	phiSummarize = 0.3
)

// speedPeriod is the speed clock's sampling period. With one P the sampler
// runs when the scheduler preempts the measured goroutine, so samples come
// every 10-20 ms while it computes.
const speedPeriod = 5 * time.Millisecond

// epoch is the origin of every interval.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// interval is one timed call, in nanoseconds since epoch.
type interval struct{ t0, t1 int64 }

func (iv interval) wall() float64 { return float64(iv.t1 - iv.t0) }

// speedSample is one reading of both kernels, each the faster of two back
// to back runs, relative to its reference time.
type speedSample struct {
	at      int64
	fp, mem float64
}

// speedClock samples the kernels in the background until stopped.
type speedClock struct {
	mu      sync.Mutex
	samples []speedSample
	sink    float64 // the kernels' results, kept so the compiler cannot drop them
	stop    chan struct{}
	done    chan struct{}
}

// clock is the process's speed clock while benchmark runs; nil otherwise,
// and then every time is reported as raw wall time.
var clock *speedClock

func startSpeedClock() *speedClock {
	c := &speedClock{stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *speedClock) run() {
	defer close(c.done)
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sample()
		}
	}
}

// sample takes one reading now. The measured goroutine also calls it right
// before and after each timed call, so a call's speed is known at its ends
// and not only from the background samples inside it. A nil clock does
// nothing.
func (c *speedClock) sample() {
	if c == nil {
		return
	}
	fp1, x1 := kernelFP()
	fp2, x2 := kernelFP()
	mem1, y1 := kernelMem()
	mem2, y2 := kernelMem()
	s := speedSample{
		at:  now(),
		fp:  float64(min(fp1, fp2)) / fpRefNs,
		mem: float64(min(mem1, mem2)) / memRefNs,
	}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.sink += x1 + x2 + float64(y1+y2)
	c.mu.Unlock()
}

// shutdown ends sampling and waits for the sampler to exit.
func (c *speedClock) shutdown() {
	close(c.stop)
	<-c.done
}

// axis returns the reference-time axis of the samples so far for phase
// share phi. A nil clock gives the wall-time axis.
func (c *speedClock) axis(phi float64) refAxis {
	if c == nil {
		return refAxis{}
	}
	c.mu.Lock()
	ss := append([]speedSample(nil), c.samples...)
	c.mu.Unlock()
	// A sampler preempted between reading the clock and appending can file
	// its sample after a later one.
	sort.Slice(ss, func(i, j int) bool { return ss[i].at < ss[j].at })
	a := refAxis{at: make([]int64, len(ss)), rate: make([]float64, len(ss)), cum: make([]float64, len(ss))}
	r := make([]float64, len(ss))
	for i, s := range ss {
		a.at[i] = s.at
		r[i] = phi*s.fp + (1-phi)*s.mem
	}
	for i := range ss {
		// The median of each sample and its neighbours drops a reading
		// that an interrupt inflated; a speed change lasts far longer than
		// three samples.
		lo, hi := max(i-1, 0), min(i+1, len(ss)-1)
		a.rate[i] = 1 / median(r[lo:hi+1])
		if i > 0 {
			a.cum[i] = a.cum[i-1] + float64(a.at[i]-a.at[i-1])*a.rate[i-1]
		}
	}
	return a
}

// refAxis maps wall time to reference time. Between samples the speed of
// the earlier sample holds; before the first, the first.
type refAxis struct {
	at   []int64   // sample times, ns since epoch
	rate []float64 // reference ns per wall ns from each sample on
	cum  []float64 // reference time at each sample
}

// ref converts t (ns since epoch) to reference ns.
func (a refAxis) ref(t int64) float64 {
	if len(a.at) == 0 {
		return float64(t)
	}
	k := sort.Search(len(a.at), func(i int) bool { return a.at[i] > t }) - 1
	if k < 0 {
		return a.cum[0] - float64(a.at[0]-t)*a.rate[0]
	}
	return a.cum[k] + float64(t-a.at[k])*a.rate[k]
}

// length is the interval's reference duration in ns.
func (a refAxis) length(iv interval) float64 { return a.ref(iv.t1) - a.ref(iv.t0) }

// kernelTable is kernelMem's table: 1 MiB, resident in L2. It is only read.
var kernelTable = func() []uint32 {
	t := make([]uint32, 1<<18)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

// kernelFP times 1500 math.Exp calls, ~11 µs on an uncontended core, and
// returns their sum.
func kernelFP() (time.Duration, float64) {
	t0 := time.Now()
	x := 0.0
	for i := 0; i < 1500; i++ {
		x += math.Exp(-float64(i&1023) * 1e-3)
	}
	return time.Since(t0), x
}

// kernelMem times 1000 pseudo-random table reads, ~1.4 µs on an
// uncontended core, and returns their sum.
func kernelMem() (time.Duration, uint32) {
	t0 := time.Now()
	var sum uint32
	idx := uint32(1)
	mask := uint32(len(kernelTable) - 1)
	for i := 0; i < 1000; i++ {
		idx = idx*1664525 + 1013904223
		sum += kernelTable[(idx>>8)&mask]
	}
	return time.Since(t0), sum
}
