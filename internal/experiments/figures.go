package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/stats"
)

// Figure5 reproduces the target-NSU selection study (§4.1.1): normalized
// inter-stack traffic of the first-HMC policy versus the oracle, as the
// number of memory accesses per offload block grows. Accesses are mapped to
// 8 HMCs uniformly at random, as in the paper.
func Figure5(w io.Writer) Fig5Result {
	const hmcs = 8
	const trials = 20000
	rng := rand.New(rand.NewSource(5))
	var res Fig5Result
	fmt.Fprintln(w, "\nFigure 5: normalized off-chip traffic vs #memory accesses per block")
	fmt.Fprintf(w, "%10s %12s %12s %8s\n", "#accesses", "first-HMC", "optimal", "ratio")
	for _, n := range []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64} {
		var first, opt float64
		for t := 0; t < trials; t++ {
			acc := make([]int, n)
			for i := range acc {
				acc[i] = rng.Intn(hmcs)
			}
			fl := core.SelectTarget(acc[:1], hmcs)
			op := core.SelectOptimal(acc, hmcs)
			first += float64(core.RemoteTraffic(acc, fl))
			opt += float64(core.RemoteTraffic(acc, op))
		}
		// Normalize to all-remote traffic (= n accesses each crossing once).
		fN := first / float64(trials) / float64(n)
		oN := opt / float64(trials) / float64(n)
		ratio := 1.0
		if oN > 0 {
			ratio = fN / oN
		}
		res.Points = append(res.Points, Fig5Point{N: n, First: fN, Optimal: oN, Ratio: ratio})
		fmt.Fprintf(w, "%10d %12.4f %12.4f %8.3f\n", n, fN, oN, ratio)
	}
	return res
}

// Fig5Result holds the Figure 5 series.
type Fig5Result struct{ Points []Fig5Point }

// Fig5Point is one x-axis position of Figure 5.
type Fig5Point struct {
	N              int
	First, Optimal float64
	Ratio          float64 // first/optimal; paper: at most ~1.15, converging to 1
}

// Fig7Result carries the Figure 7 and Figure 8 measurements.
type Fig7Result struct {
	Rows map[string]map[string]*Run // workload -> mode -> run
}

// Figure7 compares Baseline, Baseline_MoreCore, and the naive NDP mechanism
// (§6): naive NDP degrades every workload while MoreCore barely helps.
func Figure7(w io.Writer, cfg config.Config, scale int) (Fig7Result, error) {
	var jobs []job
	for _, wl := range Workloads() {
		jobs = append(jobs,
			job{wl, sim.Baseline, cfg},
			job{wl, sim.MoreCore, config.MoreCore(cfg)},
			job{wl, sim.NaiveNDP, cfg},
		)
	}
	runs := runAll(jobs, scale)
	if err := checkErrs(runs); err != nil {
		return Fig7Result{}, err
	}
	res := Fig7Result{Rows: map[string]map[string]*Run{}}
	header(w, "Figure 7: speedup over Baseline (naive NDP)", []string{"MoreCore", "NaiveNDP"})
	var mc, nv []float64
	for _, wl := range Workloads() {
		base := get(runs, wl, "Baseline")
		m := get(runs, wl, "Baseline_MoreCore")
		n := get(runs, wl, "NaiveNDP")
		res.Rows[wl] = map[string]*Run{"Baseline": base, "Baseline_MoreCore": m, "NaiveNDP": n}
		fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", wl, m.Speedup(base), n.Speedup(base))
		mc = append(mc, m.Speedup(base))
		nv = append(nv, n.Speedup(base))
	}
	fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", "GMEAN", geomean(mc), geomean(nv))
	return res, nil
}

// Figure8 prints the no-issue-cycle breakdown (§6) for the Figure 7 runs,
// normalized to the baseline's total no-issue cycles per workload.
func Figure8(w io.Writer, f7 Fig7Result) {
	fmt.Fprintln(w, "\nFigure 8: no-issue cycle breakdown (normalized to Baseline total)")
	fmt.Fprintf(w, "%-8s %-18s %12s %12s %12s %8s\n",
		"", "config", "ExecBusy", "DepStall", "WarpIdle", "total")
	for _, wl := range Workloads() {
		rows := f7.Rows[wl]
		base := rows["Baseline"].Stats.NoIssueTotal()
		if base == 0 {
			base = 1
		}
		for _, mode := range []string{"Baseline", "Baseline_MoreCore", "NaiveNDP"} {
			st := rows[mode].Stats
			fmt.Fprintf(w, "%-8s %-18s %12.3f %12.3f %12.3f %8.3f\n",
				wl, mode,
				float64(st.NoIssue[stats.ExecUnitBusy])/float64(base),
				float64(st.NoIssue[stats.DependencyStall])/float64(base),
				float64(st.NoIssue[stats.WarpIdle])/float64(base),
				float64(st.NoIssueTotal())/float64(base))
		}
	}
}

// Fig9Result carries the static-ratio sweep plus the dynamic mechanisms.
type Fig9Result struct {
	Rows  map[string]map[string]*Run
	Modes []string
}

// Figure9 runs the §7 sweep: static offload ratios 0.2..1.0, the dynamic
// hill-climbing controller, and the cache-locality-aware variant.
func Figure9(w io.Writer, cfg config.Config, scale int) (Fig9Result, error) {
	modes := []sim.Mode{
		sim.Baseline,
		sim.MoreCore,
		sim.StaticNDP(0.2), sim.StaticNDP(0.4), sim.StaticNDP(0.6),
		sim.StaticNDP(0.8), sim.StaticNDP(1.0),
		sim.DynNDP, sim.DynCache,
	}
	var jobs []job
	for _, wl := range Workloads() {
		for _, m := range modes {
			c := cfg
			if m == sim.MoreCore {
				c = config.MoreCore(cfg)
			}
			jobs = append(jobs, job{wl, m, c})
		}
	}
	runs := runAll(jobs, scale)
	if err := checkErrs(runs); err != nil {
		return Fig9Result{}, err
	}
	res := Fig9Result{Rows: map[string]map[string]*Run{}}
	for _, m := range modes {
		res.Modes = append(res.Modes, m.Name)
	}
	cols := res.Modes[1:]
	header(w, "Figure 9: speedup over Baseline (offload-ratio study)", cols)
	sums := make(map[string][]float64)
	for _, wl := range Workloads() {
		res.Rows[wl] = map[string]*Run{}
		base := get(runs, wl, "Baseline")
		res.Rows[wl]["Baseline"] = base
		fmt.Fprintf(w, "%-8s", wl)
		for _, mn := range cols {
			r := get(runs, wl, mn)
			res.Rows[wl][mn] = r
			sp := r.Speedup(base)
			sums[mn] = append(sums[mn], sp)
			fmt.Fprintf(w, "%12.3f", sp)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "GMEAN")
	for _, mn := range cols {
		fmt.Fprintf(w, "%12.3f", geomean(sums[mn]))
	}
	fmt.Fprintln(w)
	return res, nil
}

// Figure10 prints the energy breakdown normalized to the baseline (§7.4)
// using the Figure 9 runs.
func Figure10(w io.Writer, f9 Fig9Result) {
	fmt.Fprintln(w, "\nFigure 10: energy, normalized to Baseline total")
	fmt.Fprintf(w, "%-8s %-18s %8s %8s %8s %8s %8s %8s\n",
		"", "config", "GPU", "NSU", "NoC", "OffChip", "DRAM", "Total")
	for _, wl := range Workloads() {
		rows := f9.Rows[wl]
		base := rows["Baseline"].Energy.Total()
		for _, mode := range []string{"Baseline", "Baseline_MoreCore", "NDP(Dyn)", "NDP(Dyn)_Cache"} {
			r := rows[mode]
			e := r.Energy
			fmt.Fprintf(w, "%-8s %-18s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				wl, mode, e.GPU/base, e.NSU/base, e.IntraHMC/base,
				e.OffChip/base, e.DRAM/base, e.Total()/base)
		}
	}
	// Geomean of total energy for the NDP configs.
	for _, mode := range []string{"Baseline_MoreCore", "NDP(Dyn)", "NDP(Dyn)_Cache"} {
		var vs []float64
		for _, wl := range Workloads() {
			vs = append(vs, f9.Rows[wl][mode].Energy.Total()/f9.Rows[wl]["Baseline"].Energy.Total())
		}
		fmt.Fprintf(w, "%-8s %-18s total GMEAN = %.3f\n", "", mode, geomean(vs))
	}
}

// Figure11 reports NSU I-cache utilization and warp occupancy (§7.5) from
// the NDP(Dyn)_Cache runs.
func Figure11(w io.Writer, f9 Fig9Result, cfg config.Config) {
	fmt.Fprintln(w, "\nFigure 11: NSU I-cache utilization and warp occupancy (NDP(Dyn)_Cache)")
	fmt.Fprintf(w, "%-8s %14s %14s\n", "", "icache-util", "occupancy")
	var us, os []float64
	for _, wl := range Workloads() {
		st := f9.Rows[wl]["NDP(Dyn)_Cache"].Stats
		u := st.ICacheUtilization(cfg.NSU.ICacheBytes)
		o := st.NSUOccupancy(cfg.NSU.NumWarps, cfg.NumHMCs)
		us = append(us, u)
		os = append(os, o)
		fmt.Fprintf(w, "%-8s %13.1f%% %13.1f%%\n", wl, 100*u, 100*o)
	}
	fmt.Fprintf(w, "%-8s %13.1f%% %13.1f%%\n", "AVG", 100*mean(us), 100*mean(os))
}

// InvalOverhead reports the §4.2 cache-invalidation traffic as a fraction
// of GPU off-chip traffic (paper: up to 1.42%, average 0.38%).
func InvalOverhead(w io.Writer, f9 Fig9Result) {
	fmt.Fprintln(w, "\nCache-invalidation traffic overhead (§4.2, NDP(Dyn)_Cache)")
	var vs []float64
	for _, wl := range Workloads() {
		ov := f9.Rows[wl]["NDP(Dyn)_Cache"].Stats.InvalOverhead()
		vs = append(vs, ov)
		fmt.Fprintf(w, "%-8s %7.3f%%\n", wl, 100*ov)
	}
	fmt.Fprintf(w, "%-8s %7.3f%% (max %.3f%%)\n", "AVG", 100*mean(vs), 100*maxOf(vs))
}

// MoreCompute reproduces the §7.3 sensitivity: with 2x the SMs the NDP
// mechanism still wins (paper: +11.6% average).
func MoreCompute(w io.Writer, scale int) error {
	cfg := config.DoubleCompute()
	var jobs []job
	for _, wl := range Workloads() {
		jobs = append(jobs, job{wl, sim.Baseline, cfg}, job{wl, sim.DynCache, cfg})
	}
	runs := runAll(jobs, scale)
	if err := checkErrs(runs); err != nil {
		return err
	}
	header(w, "2x compute units (§7.3): speedup over 128-SM baseline", []string{"Dyn_Cache"})
	var vs []float64
	for _, wl := range Workloads() {
		sp := get(runs, wl, "NDP(Dyn)_Cache").Speedup(get(runs, wl, "Baseline"))
		vs = append(vs, sp)
		fmt.Fprintf(w, "%-8s%12.3f\n", wl, sp)
	}
	fmt.Fprintf(w, "%-8s%12.3f\n", "GMEAN", geomean(vs))
	return nil
}

// NSUFreq reproduces the §7.6 sensitivity: halving the NSU clock to 175 MHz
// keeps most of the benefit (paper: +14.1% average vs +17.9%).
func NSUFreq(w io.Writer, scale int) error {
	full := config.Default()
	half := config.HalfNSUClock()
	var jobs []job
	for _, wl := range Workloads() {
		jobs = append(jobs,
			job{wl, sim.Baseline, full},
			job{wl, sim.DynCache, full},
			job{wl, sim.Mode{Name: "NDP(Dyn)_Cache@175", NDP: true, Dynamic: true, Cache: true}, half},
		)
	}
	runs := runAll(jobs, scale)
	if err := checkErrs(runs); err != nil {
		return err
	}
	header(w, "NSU frequency sensitivity (§7.6): speedup over Baseline", []string{"350MHz", "175MHz"})
	var v350, v175 []float64
	for _, wl := range Workloads() {
		base := get(runs, wl, "Baseline")
		s350 := get(runs, wl, "NDP(Dyn)_Cache").Speedup(base)
		s175 := get(runs, wl, "NDP(Dyn)_Cache@175").Speedup(base)
		v350 = append(v350, s350)
		v175 = append(v175, s175)
		fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", wl, s350, s175)
	}
	fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", "GMEAN", geomean(v350), geomean(v175))
	return nil
}

// ROCacheAblation evaluates the §7.1 future-work extension: a small
// read-only cache on each NSU. BPROP's offload blocks re-ship the hot
// 68-byte hidden structure from the GPU caches on every instance; with the
// extension the GPU sends a reference instead, and BPROP recovers.
func ROCacheAblation(w io.Writer, scale int) error {
	base := config.Default()
	ro := config.WithNSUReadOnlyCache()
	var jobs []job
	for _, wl := range Workloads() {
		jobs = append(jobs,
			job{wl, sim.Baseline, base},
			job{wl, sim.DynCache, base},
			job{wl, sim.Mode{Name: "NDP(Dyn)_Cache+RO", NDP: true, Dynamic: true, Cache: true}, ro},
		)
	}
	runs := runAll(jobs, scale)
	if err := checkErrs(runs); err != nil {
		return err
	}
	header(w, "NSU read-only cache ablation (§7.1 future work): speedup over Baseline",
		[]string{"Dyn_Cache", "+RO cache"})
	var a, b []float64
	for _, wl := range Workloads() {
		bl := get(runs, wl, "Baseline")
		s0 := get(runs, wl, "NDP(Dyn)_Cache").Speedup(bl)
		s1 := get(runs, wl, "NDP(Dyn)_Cache+RO").Speedup(bl)
		a = append(a, s0)
		b = append(b, s1)
		fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", wl, s0, s1)
	}
	fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", "GMEAN", geomean(a), geomean(b))
	return nil
}

// TopologyAblation compares the paper's hypercube memory network against a
// 2-link ring (DESIGN.md design-choice ablation): ring paths average twice
// the hops, so memory-network-heavy workloads lose part of their NDP gain.
func TopologyAblation(w io.Writer, scale int) error {
	cube := config.Default()
	ring := config.Default()
	ring.HMC.NetTopology = "ring"
	var jobs []job
	wls := []string{"VADD", "KMN", "BFS"}
	for _, wl := range wls {
		jobs = append(jobs,
			job{wl, sim.Baseline, cube},
			job{wl, sim.Mode{Name: "NDP(Dyn)_Cache/cube", NDP: true, Dynamic: true, Cache: true}, cube},
			job{wl, sim.Mode{Name: "NDP(Dyn)_Cache/ring", NDP: true, Dynamic: true, Cache: true}, ring},
		)
	}
	runs := runAll(jobs, scale)
	if err := checkErrs(runs); err != nil {
		return err
	}
	header(w, "Memory-network topology ablation: speedup over Baseline", []string{"hypercube", "ring"})
	for _, wl := range wls {
		base := get(runs, wl, "Baseline")
		fmt.Fprintf(w, "%-8s%12.3f%12.3f\n", wl,
			get(runs, wl, "NDP(Dyn)_Cache/cube").Speedup(base),
			get(runs, wl, "NDP(Dyn)_Cache/ring").Speedup(base))
	}
	return nil
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
