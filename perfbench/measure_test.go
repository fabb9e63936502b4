package main

import (
	"math"
	"testing"
	"time"
)

// seq returns 1, 2, ..., n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailOf(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name    string
		samples []float64
		ok      bool
		pct     float64
		value   float64
	}{
		{"empty", nil, false, 0, 0},
		// 10 samples: even the median has only 5 above it, so the largest
		// sample stands in as p100.
		{"too few", seq(10), false, 100, 10},
		// 11 samples: p50 is the 6th value, with 5 above; p75... none has 10.
		{"eleven", seq(11), false, 100, 11},
		// 19 samples: p50 is the 10th value, with 9 above.
		{"nineteen", seq(19), false, 100, 19},
		// 20 samples: p50 = 10th value, exactly 10 above it.
		{"twenty", seq(20), true, 50, 10},
		// 1000 samples: p99 = 990th value, 10 above; p99.5 has only 5.
		{"thousand", seq(1000), true, 99, 990},
		// 1100 samples: p99 = 1089th, 11 above; p99.5 = 1095th, 5 above.
		{"eleven hundred", seq(1100), true, 99, 1089},
		// 10000 samples: p99.9 = 9990th value, exactly 10 above.
		{"ten thousand", seq(10000), true, 99.9, 9990},
	}
	for _, c := range cases {
		got := tailOf(c.samples)
		if got.OK != c.ok || got.Pct != c.pct || got.Value != c.value {
			t.Errorf("%s: tailOf = %+v, want ok=%v p%g=%g", c.name, got, c.ok, c.pct, c.value)
		}
		if got.N != len(c.samples) {
			t.Errorf("%s: N = %d, want %d", c.name, got.N, len(c.samples))
		}
	}

	// Ties at the percentile value do not count as beyond it: with 990
	// copies of 1 and 10 of 2, p99 is 1 with exactly ten samples above.
	tied := make([]float64, 0, 1000)
	for i := 0; i < 990; i++ {
		tied = append(tied, 1)
	}
	for i := 0; i < 10; i++ {
		tied = append(tied, 2)
	}
	if got := tailOf(tied); !got.OK || got.Pct != 99 || got.Value != 1 {
		t.Errorf("ties: tailOf = %+v, want p99 = 1", got)
	}
	// With 991 ones and 9 twos, no percentile from p50 up has ten samples
	// strictly above it.
	tied[990] = 1
	if got := tailOf(tied); got.OK {
		t.Errorf("ties, nine above: tailOf = %+v, want no tail", got)
	}

	// Failed requests enter as +Inf and sit beyond every limit: with 20
	// good samples and 20 failures, the tail is the p50 of 40, the last
	// good sample, with the 20 failures beyond it.
	withFailures := append(seq(20), make([]float64, 20)...)
	for i := 20; i < 40; i++ {
		withFailures[i] = inf
	}
	if got := tailOf(withFailures); !got.OK || got.Pct != 50 || got.Value != 20 {
		t.Errorf("failures: tailOf = %+v, want p50 = 20", got)
	}
	// One more failure moves the median onto a failure, which has nothing
	// beyond it, so no tail can be reported.
	if got := tailOf(append(withFailures, inf)); got.OK {
		t.Errorf("majority failed: tailOf = %+v, want no tail", got)
	}
}

func TestTailOfDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	tailOf(in)
	p50(in)
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

func TestMedianAndP50(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %g, want 3", got)
	}
	if got := p50([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("nearest-rank p50 of 4 = %g, want 2", got)
	}
	if got := p50([]float64{1, math.Inf(1), math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("p50 with most requests failed = %g, want +Inf", got)
	}
}

// A run's times scale by the nominal kernel time over the run's median
// kernel time: a host half as fast doubles the kernel time and halves the
// scale.
func TestRefSamplesScale(t *testing.T) {
	quiet := refSamples{17 * time.Millisecond, refNominal, 4 * time.Millisecond}
	if got := quiet.medianMS(); got != 8.5 {
		t.Errorf("medianMS = %g, want 8.5", got)
	}
	if got := quiet.scale(); got != 1 {
		t.Errorf("scale at the nominal kernel time = %g, want 1", got)
	}
	if got := (refSamples{2 * refNominal}).scale(); got != 0.5 {
		t.Errorf("scale on a host half as fast = %g, want 0.5", got)
	}
	if got := (refSamples{}).scale(); got != 0 {
		t.Errorf("scale without samples = %g, want 0", got)
	}
}
