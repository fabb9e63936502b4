// Command ndpsim runs one workload on one configuration and prints the
// collected statistics.
//
// Usage:
//
//	ndpsim -workload VADD -mode dyncache -scale 1 [-sms 64] [-nsumhz 350] [-verify]
//	ndpsim -workload FWT -mode naive -faults 'nsufail:t=2000000:hmc=3;timeout=2000'
//	ndpsim -audit
//
// Modes: baseline, morecore, naive, static=<p>, dyn, dyncache.
//
// A run is one deterministic simulation on one goroutine; to use more
// cores, run several simulations at once (ndpsweep -j, or ndpserve).
//
// -audit runs the invariant audit suite instead of a single simulation:
// every Table 1 workload under baseline, naive-NDP, and dynamic-NDP with
// all runtime invariant checkers enabled, cross-checked bit-for-bit against
// the reference interpreter. Exits nonzero on any violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/energy"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/metrics"
	"ndpgpu/internal/prof"
	"ndpgpu/internal/report"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "VADD", "workload abbreviation (see -list)")
		mode     = flag.String("mode", "baseline", sim.ModeUsage)
		arch     = flag.String("arch", "", "architecture backend: "+strings.Join(config.ArchBackends, "|")+" (default paper)")
		scale    = flag.Int("scale", 1, "problem-size scale factor")
		sms      = flag.Int("sms", 0, "override SM count (0 = Table 2 default)")
		nsuMHz   = flag.Int("nsumhz", 0, "override NSU clock in MHz (0 = default 350)")
		roCache  = flag.Bool("nsurocache", false, "enable the §7.1 NSU read-only cache extension")
		faults   = flag.String("faults", "", "fault schedule, e.g. 'nsufail:t=2000000:hmc=3;drop:p=0.01;seed=7' (see README)")
		verify   = flag.Bool("verify", true, "check functional output against the host reference")
		audit    = flag.Bool("audit", false, "run the full invariant audit suite and exit")
		list     = flag.Bool("list", false, "list workloads and exit")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		metricsO = flag.String("metrics", "", "write epoch-sampled metrics to this file (see -tracefmt)")
		traceFmt = flag.String("tracefmt", "", "metrics export format: json|csv|chrome (default from -metrics extension)")
		mInt     = flag.Int64("minterval", 0, "metrics sampling interval in SM cycles (0 = the Algorithm-1 epoch)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.StartOpts(prof.Options{CPU: *cpuProf, Mem: *memProf})
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		for _, a := range workloads.Abbrs() {
			fmt.Println(a)
		}
		return
	}

	if *audit {
		runAuditSuite(*scale)
		return
	}

	cfg := config.Default()
	cfg.Arch.Backend = *arch
	if *sms > 0 {
		cfg.GPU.NumSMs = *sms
	}
	if *nsuMHz > 0 {
		cfg.NSU.ClockMHz = *nsuMHz
	}
	if *roCache {
		cfg.NSU.ReadOnlyCacheBytes = 8 << 10
	}
	if *faults != "" {
		fc, err := fault.Parse(*faults, cfg.NumHMCs, cfg.HMC.NumVaults)
		if err != nil {
			fatal(fmt.Errorf("bad -faults schedule: %w", err))
		}
		cfg.Fault = fc
	}
	m, cfg, err := sim.ParseMode(*mode, cfg)
	if err != nil {
		fatal(err)
	}
	mFmt, err := metrics.ParseFormat(*traceFmt, *metricsO)
	if err != nil {
		fatal(err)
	}

	mem := vm.New(cfg)
	w, err := workloads.Build(*workload, mem, *scale)
	if err != nil {
		fatal(err)
	}
	machine, err := sim.Launch(cfg, w.Kernel, mem, m)
	if err != nil {
		fatal(err)
	}
	if *metricsO != "" {
		c := machine.EnableMetrics(*mInt)
		c.SetMeta("workload", w.Abbr)
		c.SetMeta("mode", m.Name)
	}
	res, err := machine.Run(0)
	if err != nil {
		fatal(err)
	}
	if *metricsO != "" {
		f, err := os.Create(*metricsO)
		if err != nil {
			fatal(err)
		}
		if err := machine.Metrics().Snapshot().Write(f, mFmt); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *verify {
		if err := w.Verify(); err != nil {
			fatal(fmt.Errorf("functional verification FAILED: %w", err))
		}
	}
	e := energy.Compute(res.Stats, cfg, energy.DefaultParams(), m.NDP)

	st := res.Stats
	if *jsonOut {
		out := map[string]any{
			"workload":  w.Abbr,
			"input":     w.Input,
			"mode":      m.Name,
			"time_us":   float64(res.TimePS) / 1e6,
			"sm_cycles": res.Cycles,
			"stats":     st,
			"energy_pj": e,
			"work":      machine.GPU().Work(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s (%s) mode=%s\n", w.Abbr, w.Input, m.Name)
	fmt.Printf("time: %.3f us  (%d SM cycles)\n", float64(res.TimePS)/1e6, res.Cycles)
	fmt.Print(st.String())
	fmt.Printf("energy (uJ): GPU=%.1f NSU=%.1f intra-HMC=%.1f off-chip=%.1f DRAM=%.1f total=%.1f\n",
		e.GPU/1e6, e.NSU/1e6, e.IntraHMC/1e6, e.OffChip/1e6, e.DRAM/1e6, e.Total()/1e6)
	if st.AckLatencyCount > 0 {
		fmt.Printf("offload RTT: %.2f us avg over %d acks\n",
			float64(st.AckLatencySumPS)/float64(st.AckLatencyCount)/1e6, st.AckLatencyCount)
	}
	if len(st.RatioTrace) > 0 {
		fmt.Printf("final offload ratio: %.2f\n", st.RatioTrace[len(st.RatioTrace)-1])
	}
	if ca, ok := machine.Dec.(*core.CacheAware); ok {
		fmt.Printf("cache-aware suppressed: %d instances\n", ca.Suppressed)
	}
	occ := st.NSUOccupancy(cfg.NSU.NumWarps, cfg.NumHMCs)
	if m.NDP {
		fmt.Printf("nsu: occupancy=%.1f%% icache-util=%.1f%%\n",
			100*occ, 100*st.ICacheUtilization(cfg.NSU.ICacheBytes))
	}
}

// runAuditSuite runs the invariant audit over all workloads and modes,
// prints one table row per leg, and exits 1 if any leg fails.
func runAuditSuite(scale int) {
	cfg := sim.AuditConfig()
	t := report.New(
		fmt.Sprintf("Invariant audit (%d SMs, scale %d)", cfg.GPU.NumSMs, scale),
		"workload", "mode", "cycles", "violations", "mem", "status")
	failed := 0
	results := sim.RunAuditSuite(cfg, scale, func(r sim.AuditResult) {
		fmt.Fprintf(os.Stderr, "audit %s/%s...\n", r.Workload, r.Mode)
	})
	for _, r := range results {
		status, mem := "ok", "match"
		switch {
		case r.Err != nil:
			status, mem = "ERROR: "+r.Err.Error(), "-"
		case !r.Ok():
			status = "FAIL"
			if !r.MemMatch {
				mem = "MISMATCH"
			}
			if r.FirstBad != "" {
				status += ": " + r.FirstBad
			}
		}
		if !r.Ok() {
			failed++
		}
		t.AddRow(r.Workload, r.Mode, fmt.Sprint(r.Cycles),
			fmt.Sprint(r.Violations), mem, status)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d audit legs failed", failed, len(results)))
	}
	fmt.Printf("all %d audit legs clean\n", len(results))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndpsim:", err)
	os.Exit(1)
}
