package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is one latency percentile and the sample count it was taken from.
type tail struct {
	Pct   float64 // the percentile, e.g. 99; 100 when OK is false
	Value float64 // the sample at that percentile (nearest rank)
	N     int     // samples in the distribution
	OK    bool    // false when no ladder percentile has minBeyond samples above it
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
// The small slack keeps a rank that is whole in decimal (99.9 % of 10 000)
// from rounding up past it in binary.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailOf picks the highest ladder percentile that still has at least
// minBeyond samples strictly greater than it (at least 20 samples are
// needed). With too few, it reports the largest sample as p100 and OK
// false, so a short distribution never reads better than it is. A failed
// request enters as +Inf, so it lies beyond every percentile: it counts as
// missing any limit.
func tailOf(samples []float64) tail {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: len(s)}
	if len(s) == 0 {
		return t
	}
	for _, p := range tailLadder {
		v := percentile(s, p)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			t.Pct, t.Value, t.OK = p, v, true
			return t
		}
	}
	t.Pct, t.Value = 100, s[len(s)-1]
	return t
}

// p50 is the nearest-rank median of samples (failures included as +Inf).
func p50(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// host is the fingerprint recorded next to every run's numbers: wall-clock
// results are comparable only between runs on the same kind of host.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	LoadBefore string  `json:"loadavg_before"`
	LoadAfter  string  `json:"loadavg_after"`
	RefMS      float64 `json:"ref_kernel_ms,omitempty"` // median over an untraced run
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadBefore: loadavg(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// peakRSS returns the process's resident-set high-water mark in bytes
// (VmHWM), or 0 where /proc does not report it.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// mib converts bytes to MiB.
func mib(b float64) float64 { return b / (1 << 20) }

// heapAlloc returns the cumulative bytes allocated on the heap so far.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
