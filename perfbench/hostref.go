package main

import (
	"runtime"
	"time"
)

// The simulator is memory-bound, and on a shared host its speed follows
// how hard other tenants load the memory system: the same leg can take
// 1.5x longer for minutes at a time. So that two sets of runs made an hour
// apart can be compared, an untraced run times a fixed reference kernel
// between its measured operations and reports its host-time metrics in
// host-normalized seconds: seconds on a host where that kernel takes
// exactly refNominal. The raw figures are printed on the summary lines.

// refNominal is about the reference kernel's median time on the host the
// benchmark was tuned on (2 vCPUs of an Intel Xeon under KVM, quiet
// period). It only fixes the scale of the normalized metrics.
const refNominal = 8500 * time.Microsecond

// refTable is the reference kernel's working set: 8 MiB, more than a
// core's L2 and less than a shared L3, like the simulator's hot state. It
// is written once at start-up, so no timed run pays for its page faults.
var refTable = func() []uint64 {
	t := make([]uint64, 1<<20)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}()

// hostRef times one run of the reference kernel: a million random
// read-modify-writes of refTable. It is called after a stretch of the
// program's own work, which has pushed the table out of the core's cache,
// so the kernel meets the memory system much as the simulator does. A
// garbage collection first stops the program's own background work.
func hostRef() time.Duration {
	runtime.GC()
	x := uint64(1)
	start := time.Now()
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		refTable[x>>44] += x
	}
	return time.Since(start)
}

// refSamples are the reference-kernel times of one run.
type refSamples []time.Duration

func (r *refSamples) sample() { *r = append(*r, hostRef()) }

// medianMS is the run's median kernel time in milliseconds.
func (r refSamples) medianMS() float64 {
	ms := make([]float64, len(r))
	for i, d := range r {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return median(ms)
}

// scale turns raw host seconds of the run into host-normalized seconds:
// multiply a time by it, divide a rate by it.
func (r refSamples) scale() float64 {
	return ratio(float64(refNominal)/float64(time.Millisecond), r.medianMS())
}
