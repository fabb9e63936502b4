package ndpgpu

// One benchmark per table and figure of the paper's evaluation. Each runs
// the corresponding experiment once per iteration (they are macro-benchmarks
// over full simulations; expect seconds to minutes each) and reports
// simulated time and headline speedups as custom metrics.
//
//	go test -bench=. -benchmem
//
// See EXPERIMENTS.md for recorded outputs.

import (
	"io"
	"sync"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/experiments"
	"ndpgpu/internal/sim"
)

// The Figure 9 sweep (90 full simulations) backs four figures; run it once
// and share the result across those benchmarks.
var (
	fig9Once sync.Once
	fig9Res  experiments.Fig9Result
	fig9Err  error
)

func BenchmarkTable1OffloadAnalysis(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(io.Discard, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Config(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard, cfg)
	}
}

func BenchmarkFigure5TargetSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(io.Discard)
		// Invariant the paper reports: the first-HMC policy stays within
		// ~15% of the oracle at every block size.
		for _, p := range res.Points {
			if p.Ratio > 1.16 {
				b.Fatalf("first-HMC policy exceeded the 15%% bound: %.3f at n=%d", p.Ratio, p.N)
			}
		}
	}
}

func BenchmarkFigure7NaiveNDP(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		f7, err := experiments.Figure7(io.Discard, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		base := f7.Rows["STN"]["Baseline"]
		naive := f7.Rows["STN"]["NaiveNDP"]
		b.ReportMetric(naive.Speedup(base), "STN-naive-speedup")
	}
}

func BenchmarkFigure8StallBreakdown(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		f7, err := experiments.Figure7(io.Discard, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Figure8(io.Discard, f7)
	}
}

func benchFig9(b *testing.B) experiments.Fig9Result {
	b.Helper()
	fig9Once.Do(func() {
		fig9Res, fig9Err = experiments.Figure9(io.Discard, config.Default(), 1)
	})
	if fig9Err != nil {
		b.Fatal(fig9Err)
	}
	return fig9Res
}

func BenchmarkFigure9OffloadRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f9 := benchFig9(b)
		base := f9.Rows["KMN"]["Baseline"]
		dyn := f9.Rows["KMN"]["NDP(Dyn)"]
		b.ReportMetric(dyn.Speedup(base), "KMN-dyn-speedup")
	}
}

func BenchmarkFigure10Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f9 := benchFig9(b)
		experiments.Figure10(io.Discard, f9)
	}
}

func BenchmarkFigure11NSUUtilization(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		f9 := benchFig9(b)
		experiments.Figure11(io.Discard, f9, cfg)
	}
}

func BenchmarkInvalOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f9 := benchFig9(b)
		experiments.InvalOverhead(io.Discard, f9)
	}
}

func BenchmarkMoreCompute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.MoreCompute(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNSUFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.NSUFreq(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHardwareOverhead(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		experiments.Overhead(io.Discard, cfg)
	}
}

// BenchmarkSingleRunVADD measures one full simulation of the smallest
// workload under dynamic NDP — the unit of cost behind the figure benches.
func BenchmarkSingleRunVADD(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		r := experiments.RunOne(cfg, "VADD", sim.DynCache, 1)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(float64(r.TimePS)/1e6, "simulated-us")
	}
}

func BenchmarkROCacheAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.ROCacheAblation(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.TopologyAblation(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}
