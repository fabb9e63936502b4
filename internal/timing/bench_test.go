package timing

import "testing"

// sparseTicker models a component that does real work only when simulated
// time crosses a multiple of gap, and is provably idle in between — the
// pattern idle skipping exploits.
type sparseTicker struct {
	gap  PS
	work int64
}

func (s *sparseTicker) Tick(now PS) {
	if now%s.gap == 0 {
		s.work++
	}
}

func (s *sparseTicker) NextWorkAt(now PS) PS {
	if now%s.gap == 0 {
		return now
	}
	return (now/s.gap + 1) * s.gap
}

func benchEngine(b *testing.B, gap PS, skip bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		e.SetIdleSkip(skip)
		for _, mhz := range []int{700, 1250} {
			d := e.AddDomain("core", PeriodFromMHz(mhz))
			d.Attach(&sparseTicker{gap: gap})
		}
		dram := e.AddDomain("dram", 1500)
		dram.Attach(&sparseTicker{gap: gap})
		e.RunUntil(func() bool { return false }, 10_000_000) // 10 simulated µs
	}
}

// BenchmarkEngineIdleSkip measures the engine's edge dispatch with work
// bursts 100 ns apart (sparse — skipping retires long idle stretches in
// O(1)) and 3 ns apart (busy — skipping degenerates to near-dense firing,
// bounding its overhead). The dense variants fire every edge and are the
// reference cost.
func BenchmarkEngineIdleSkip(b *testing.B) {
	for _, c := range []struct {
		name string
		gap  PS
		skip bool
	}{
		{"sparse/skip", 100_000, true},
		{"sparse/dense", 100_000, false},
		{"busy/skip", 3_000, true},
		{"busy/dense", 3_000, false},
	} {
		b.Run(c.name, func(b *testing.B) { benchEngine(b, c.gap, c.skip) })
	}
}
