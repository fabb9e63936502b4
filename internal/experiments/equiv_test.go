package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/metrics"
	"ndpgpu/internal/sim"
)

// TestIdleSkipEquivalence proves the engine's idle skipping and the SMs' and
// NSUs' parking are observationally invisible: for every workload in the
// suite, a run with skipping enabled produces bit-identical results — cycle
// counts, elapsed time, the complete statistics bundle, the energy model
// inputs, and the metrics export — to the dense reference run that fires
// every clock edge, ticks every SM on it and runs every NSU's full walk.
// The workload legs run NDP(Dyn)_Cache on 4 SMs. The NaiveNDP legs run the
// ndp-naive benchmark's workloads on the default 64 SMs, where warps wait
// on NSU credits for millions of attempts and SMs park on those waits; one
// of them samples metrics every 37 cycles, off the epoch grid, where the
// GPU's own cycle count is stale. Under -short only the VADD and STN legs
// of each kind run, plus the 37-cycle leg.
func TestIdleSkipEquivalence(t *testing.T) {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	for _, wl := range Workloads() {
		wl := wl
		if testing.Short() && wl != "VADD" && wl != "STN" {
			continue
		}
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			requireSkipEquivalent(t, cfg, wl, sim.DynCache, 0)
		})
	}
	for _, wl := range []string{"VADD", "STN", "STCL", "MINIFE"} {
		wl := wl
		if testing.Short() && wl != "VADD" && wl != "STN" {
			continue
		}
		t.Run("NaiveNDP/"+wl, func(t *testing.T) {
			t.Parallel()
			requireSkipEquivalent(t, config.Default(), wl, sim.NaiveNDP, 0)
		})
	}
	t.Run("NaiveNDP/VADD/every37", func(t *testing.T) {
		t.Parallel()
		requireSkipEquivalent(t, config.Default(), "VADD", sim.NaiveNDP, 37)
	})
}

// requireSkipEquivalent runs one leg densely and with idle skipping plus the
// engine's wake check, both with the metrics collector sampling every
// interval SM cycles (0: at the epoch), and fails unless the two agree bit
// for bit: elapsed time, the complete statistics bundle, the energy model
// inputs, and the metrics export.
func requireSkipEquivalent(t *testing.T, cfg config.Config, wl string, mode sim.Mode, interval int64) {
	t.Helper()
	var denseMC, skipMC *metrics.Collector
	dense := RunOneWith(cfg, wl, mode, 1, func(m *sim.Machine) {
		m.SetIdleSkip(false)
		denseMC = m.EnableMetrics(interval)
	})
	if dense.Err != nil {
		t.Fatal(dense.Err)
	}
	skip := RunOneWith(cfg, wl, mode, 1, func(m *sim.Machine) {
		m.SetIdleSkip(true)
		// Re-poll every parked component at every fired edge: a missed
		// external re-arm panics at the edge where it would first diverge
		// instead of surfacing as a digest mismatch.
		m.SetWakeCheck(true)
		skipMC = m.EnableMetrics(interval)
	})
	if skip.Err != nil {
		t.Fatal(skip.Err)
	}
	var denseJSON, skipJSON bytes.Buffer
	if err := denseMC.Snapshot().WriteJSON(&denseJSON); err != nil {
		t.Fatal(err)
	}
	if err := skipMC.Snapshot().WriteJSON(&skipJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(denseJSON.Bytes(), skipJSON.Bytes()) {
		t.Errorf("metrics exports diverged (%d vs %d bytes)%s",
			denseJSON.Len(), skipJSON.Len(), seriesDiff(denseMC.Snapshot(), skipMC.Snapshot()))
	}
	if dense.TimePS != skip.TimePS {
		t.Errorf("elapsed time diverged: dense=%d skip=%d ps", dense.TimePS, skip.TimePS)
	}
	if dense.Stats.SMCycles != skip.Stats.SMCycles {
		t.Errorf("SM cycles diverged: dense=%d skip=%d", dense.Stats.SMCycles, skip.Stats.SMCycles)
	}
	if !reflect.DeepEqual(dense.Stats, skip.Stats) {
		t.Errorf("stats diverged:\ndense: %+v\nskip:  %+v", dense.Stats, skip.Stats)
		d, s := dense.Stats.Digest(), skip.Stats.Digest()
		keys := make([]string, 0, len(d))
		for k := range d {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d[k] != s[k] {
				t.Errorf("  %s: dense=%v skip=%v", k, d[k], s[k])
			}
		}
	}
	if dense.Energy != skip.Energy {
		t.Errorf("energy diverged:\ndense: %+v\nskip:  %+v", dense.Energy, skip.Energy)
	}
}

// seriesDiff names the first sample at which each diverging series of two
// metrics runs differs.
func seriesDiff(a, b *metrics.Run) string {
	var out strings.Builder
	if !reflect.DeepEqual(a.TimesPS, b.TimesPS) {
		out.WriteString("\n  sample times differ")
	}
	for i := range min(len(a.Series), len(b.Series)) {
		sa, sb := a.Series[i].Samples, b.Series[i].Samples
		for j := range min(len(sa), len(sb)) {
			if sa[j] != sb[j] {
				fmt.Fprintf(&out, "\n  %s[%d]: dense=%v skip=%v", a.Series[i].Name, j, sa[j], sb[j])
				break
			}
		}
	}
	return out.String()
}

// faultLeg is one input of TestIdleSkipEquivalenceFaultFuzz.
type faultLeg struct {
	name string
	wl   string
	mode sim.Mode
	cfg  config.Config
}

// faultWindowSweep returns the window-sweep legs: for i = 0..15, one
// nsustall on HMC i mod 8 and, separately, one vaultfreeze on HMC i mod 8,
// vault 5i mod 16, each opening at 300 000 + 437 000·i ps for
// 1 000 000 + 250 000·i ps, run on VADD under NaiveNDP and NDP(Dyn). The
// windows land on parked NSUs and stacks at many phases of the run. In leg
// i=6 nsustall under NDP(Dyn) a route lookup at a future hop time asks for
// fault state a few NSU cycles before the stall opens, which must not show
// the stall early to the parked NSU or to a dense one.
func faultWindowSweep(base config.Config) []faultLeg {
	var legs []faultLeg
	for i := 0; i < 16; i++ {
		at := int64(300_000 + 437_000*i)
		dur := int64(1_000_000 + 250_000*i)
		for _, ev := range []config.FaultEvent{
			{Kind: "nsustall", AtPS: at, DurPS: dur, HMC: i % 8},
			{Kind: "vaultfreeze", AtPS: at, DurPS: dur, HMC: i % 8, Vault: 5 * i % 16},
		} {
			cfg := base
			cfg.Fault.Events = []config.FaultEvent{ev}
			for _, mode := range []sim.Mode{sim.NaiveNDP, sim.DynNDP} {
				legs = append(legs, faultLeg{
					name: fmt.Sprintf("sweep/i%d/%s/%s", i, ev.Kind, mode.Name),
					wl:   "VADD", mode: mode, cfg: cfg})
			}
		}
	}
	return legs
}

// faultSeeded returns the seeded random-schedule legs: one to three
// vaultfreeze, nsustall or linkdown events drawn from each seed, run on VADD
// (leg "seedN") and STN (leg "seedN_STN") under NDP(Dyn)_Cache.
func faultSeeded(base config.Config) []faultLeg {
	var legs []faultLeg
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := base
		for n := 1 + rng.Intn(3); n > 0; n-- {
			at := int64(1+rng.Intn(40)) * 250_000 // within every run's active window
			switch rng.Intn(3) {
			case 0:
				cfg.Fault.Events = append(cfg.Fault.Events, config.FaultEvent{
					Kind: "vaultfreeze", AtPS: at, DurPS: int64(2+rng.Intn(10)) * 1_000_000,
					HMC: rng.Intn(cfg.NumHMCs), Vault: rng.Intn(cfg.HMC.NumVaults)})
			case 1:
				cfg.Fault.Events = append(cfg.Fault.Events, config.FaultEvent{
					Kind: "nsustall", AtPS: at, DurPS: int64(2+rng.Intn(10)) * 1_000_000,
					HMC: rng.Intn(cfg.NumHMCs)})
			case 2:
				cfg.Fault.Events = append(cfg.Fault.Events, config.FaultEvent{
					Kind: "linkdown", AtPS: at, DurPS: int64(5+rng.Intn(20)) * 1_000_000,
					HMC: rng.Intn(cfg.NumHMCs), Dim: rng.Intn(3)})
			}
		}
		name := fmt.Sprintf("seed%d", seed)
		legs = append(legs,
			faultLeg{name: name, wl: "VADD", mode: sim.DynCache, cfg: cfg},
			faultLeg{name: name + "_STN", wl: "STN", mode: sim.DynCache, cfg: cfg})
	}
	return legs
}

// TestIdleSkipEquivalenceFaultFuzz extends the equivalence proof to fault
// schedules: frozen vaults, stalled NSUs, and severed links run on the same
// wake wheel as fault-free runs, where an NSU or stack inside one of its own
// fault windows must report work now and never park past a window edge. The
// dense and wake-scheduled runs must be bit-identical, with the wake check
// on. The inputs are the window sweep plus seeded random schedules, all
// deterministic, so a failure reproduces. Under -short only the future-hop
// leg (i6 nsustall), one vault-freeze leg, and seed 8 (a linkdown beside a
// vault freeze) on VADD and STN run.
func TestIdleSkipEquivalenceFaultFuzz(t *testing.T) {
	base := sim.AuditConfig()
	base.Fault = config.FaultConfig{TimeoutCycles: 2000, MaxRetries: 3}
	legs := append(faultWindowSweep(base), faultSeeded(base)...)
	if testing.Short() {
		var short []faultLeg
		for _, l := range legs {
			switch l.name {
			case "sweep/i6/nsustall/NDP(Dyn)", "sweep/i3/vaultfreeze/NDP(Dyn)", "seed8", "seed8_STN":
				short = append(short, l)
			}
		}
		legs = short
	}
	for _, l := range legs {
		l := l
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			requireSkipEquivalent(t, l.cfg, l.wl, l.mode, 0)
		})
	}
}
