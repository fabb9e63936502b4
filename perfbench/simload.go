package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/experiments"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/workloads"
)

// leg is one full simulation: a Table 1 workload under one mode, optionally
// under one pinned fault schedule, on config.Default() with one seed.
type leg struct {
	Workload string
	Mode     sim.Mode
	Schedule string // pinned fault schedule name; "" for a fault-free leg
	Seed     int64  // placement and decision seed
	cfg      config.Config
}

func (l leg) String() string {
	s := l.Workload + "/" + l.Mode.Name
	if l.Schedule != "" {
		s += "/" + l.Schedule
	}
	return fmt.Sprintf("%s/seed=%d", s, l.Seed)
}

// seeded returns the Table 2 machine with the placement and decision seeds
// set the way ndpserve maps a request's seed field (0 keeps the defaults).
func seeded(seed int64) config.Config {
	cfg := config.Default()
	if seed != 0 {
		cfg.Mem.PlacementSeed = seed
		cfg.NDP.DecisionSeed = seed
	}
	return cfg
}

// simLegs returns the legs of one simulation workload, in run order.
func simLegs(workload string, seed int64) ([]leg, error) {
	cfg := seeded(seed)
	var legs []leg
	switch workload {
	case "base-suite":
		for _, w := range workloads.Abbrs() {
			legs = append(legs, leg{Workload: w, Mode: sim.Baseline, Seed: seed, cfg: cfg})
		}
	case "ndp-naive":
		// Under NaiveNDP the page placement decides how far every offloaded
		// block's packets travel, and with it much of the host cost: from
		// one seed to another, STCL and MINIFE took 35 % more simulated
		// cycles and 2-3x the host time, STN 10 % more cycles. So STN, STCL
		// and MINIFE also run at a second placement derived from the seed,
		// and a run's figure averages over both. VADD streams contiguous
		// arrays; its cycles moved 3 %, and it runs once per pass.
		legs = append(legs, leg{Workload: "VADD", Mode: sim.NaiveNDP, Seed: seed, cfg: cfg})
		for _, s := range []int64{seed, seed ^ 1<<40} {
			for _, w := range []string{"STN", "STCL", "MINIFE"} {
				legs = append(legs, leg{Workload: w, Mode: sim.NaiveNDP, Seed: s, cfg: seeded(s)})
			}
		}
	case "ndp-faults":
		for _, w := range []string{"VADD", "FWT", "STN"} {
			for _, s := range sim.PinnedSchedules() {
				fc, err := sim.ChaosFaultConfig(cfg, s.Spec)
				if err != nil {
					return nil, fmt.Errorf("schedule %s: %w", s.Name, err)
				}
				c := cfg
				c.Fault = fc
				legs = append(legs, leg{Workload: w, Mode: sim.DynNDP, Schedule: s.Name, Seed: seed, cfg: c})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return legs, nil
}

// legRun is one execution of a leg through experiments.RunOneWith, whose
// prep hook marks the end of set-up (vm.New, workloads.Build, sim.Launch)
// and the start of the run (Machine.Run, Workload.Verify, energy).
type legRun struct {
	start, launched, end time.Time
	alloc                uint64 // heap bytes allocated by the leg
	stats                *stats.Stats
	digest               string
	err                  error
}

func (lr legRun) setup() time.Duration { return lr.launched.Sub(lr.start) }
func (lr legRun) run() time.Duration   { return lr.end.Sub(lr.launched) }

// setupProbes is how many extra set-ups precede each measured leg in an
// untraced run. A probe cancels the machine in the prep hook, so it costs
// one set-up and no simulation. Set-up time is the median over probes and
// measured legs; spreading the probes over the run keeps one slow stretch
// of the host from setting it.
const setupProbes = 2

func runLeg(l leg, setupOnly bool) legRun {
	var lr legRun
	var a0 uint64
	if !setupOnly {
		a0 = heapAlloc()
	}
	lr.start = time.Now()
	run := experiments.RunOneWith(l.cfg, l.Workload, l.Mode, 1, func(m *sim.Machine) {
		lr.launched = time.Now()
		if setupOnly {
			m.Cancel()
		}
	})
	lr.end = time.Now()
	if lr.launched.IsZero() { // set-up failed before the machine existed
		lr.launched = lr.end
	}
	if setupOnly {
		if run.Err != nil && !errors.Is(run.Err, sim.ErrCanceled) {
			lr.err = run.Err
		}
		return lr
	}
	lr.alloc = heapAlloc() - a0
	lr.err = run.Err
	if run.Err == nil {
		lr.stats = run.Stats
		lr.digest = digestString(run.Stats.Digest())
	}
	return lr
}

// digestString renders a stats digest canonically, so two digests compare
// as strings.
func digestString(d map[string]float64) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(d[k], 'g', -1, 64))
		b.WriteByte(';')
	}
	return b.String()
}

// legSamples accumulates every execution of one leg in a run.
type legSamples struct {
	setups []time.Duration
	runs   []legRun
}

// phase says how simPhase runs the legs.
type phase struct {
	window    time.Duration
	minPasses int         // full passes run however long they take
	probes    int         // set-up probes before each measured leg
	t         *tracer     // records spans, when non-nil
	refs      *refSamples // times the reference kernel before each leg, when non-nil
}

// simPhase runs the legs round-robin: ph.minPasses full passes, then
// further legs until the window has elapsed. Every leg gets the same seed
// each time, so its digest must repeat exactly; two passes give every leg
// a second execution to compare.
func simPhase(legs []leg, samples []legSamples, ph phase) []string {
	var problems []string
	start := time.Now()
	executed := 0
	t := ph.t
	for pass := 0; ; pass++ {
		for i, l := range legs {
			if pass >= ph.minPasses && time.Since(start) >= ph.window {
				return problems
			}
			if ph.refs != nil {
				ph.refs.sample()
			}
			for k := 0; k < ph.probes; k++ {
				pr := runLeg(l, true)
				if pr.err != nil {
					problems = append(problems, fmt.Sprintf("%s: set-up: %v", l, pr.err))
				}
				samples[i].setups = append(samples[i].setups, pr.setup())
			}
			lr := runLeg(l, false)
			executed++
			samples[i].setups = append(samples[i].setups, lr.setup())
			samples[i].runs = append(samples[i].runs, lr)
			if t != nil {
				id := fmt.Sprintf("leg-%d", executed)
				t.record(id, "sim.setup", lr.start, lr.launched, map[string]any{"leg": l.String()})
				attrs := map[string]any{"leg": l.String()}
				if lr.stats != nil {
					attrs["kinstr"] = float64(instrs(lr.stats)) / 1e3
					attrs["sm_cycles"] = lr.stats.SMCycles
				}
				t.record(id, "sim.run", lr.launched, lr.end, attrs)
			}
		}
	}
}

// instrs counts a leg's simulated warp-instructions: SM-issued plus
// NSU-executed.
func instrs(s *stats.Stats) int64 { return s.IssuedInstrs + s.NSUInstrs }

// passStats is one pass's host cost, taking each leg's median over the run.
type passStats struct {
	setupS, runS float64 // summed per-leg medians
	allocB       float64
	kinstr       float64
	legs         int
}

// checkLegs checks every leg: no error, and one digest across all its runs.
func checkLegs(legs []leg, samples []legSamples, problems []string) (attempted, failed int, _ []string) {
	for i, l := range legs {
		first := ""
		for _, lr := range samples[i].runs {
			attempted++
			switch {
			case lr.err != nil:
				failed++
				problems = append(problems, fmt.Sprintf("%s: %v", l, lr.err))
			case first == "":
				first = lr.digest
			case lr.digest != first:
				failed++
				problems = append(problems, fmt.Sprintf("%s: stats digest differs between runs of one seed", l))
			}
		}
	}
	return attempted, failed, problems
}

func summarize(samples []legSamples) passStats {
	var p passStats
	for _, s := range samples {
		var runs []time.Duration
		var allocs []float64
		var st *stats.Stats
		for _, lr := range s.runs {
			if lr.err != nil {
				continue
			}
			st = lr.stats
			runs = append(runs, lr.run())
			allocs = append(allocs, float64(lr.alloc))
		}
		if st == nil {
			continue
		}
		p.legs++
		p.setupS += medianDur(s.setups)
		p.runS += medianDur(runs)
		p.allocB += median(allocs)
		p.kinstr += float64(instrs(st)) / 1e3
	}
	return p
}

// runSim runs one simulation workload. Untraced, it measures legs and their
// set-up probes for the window. Traced, it measures half the window
// untraced and half under the CPU profiler and span recorder; the
// difference in simulation rate is the tracing overhead.
func runSim(o options) (*result, error) {
	legs, err := simLegs(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	res := &result{}
	plain := make([]legSamples, len(legs))
	if !o.traced {
		var refs refSamples
		probs := simPhase(legs, plain, phase{window: o.window, minPasses: 2, probes: setupProbes, refs: &refs})
		res.attempted, res.failed, res.problems = checkLegs(legs, plain, probs)
		p := summarize(plain)
		k := refs.scale()
		res.refMS = refs.medianMS()
		res.add("sim_kinstr_per_s", ratio(p.kinstr, p.runS*k))
		res.add("setup_s", p.setupS*k)
		res.add("alloc_mb", mib(p.allocB))
		res.add("peak_rss_mb", mib(float64(peakRSS())))
		res.add("req_per_s", ratio(float64(p.legs), (p.setupS+p.runS)*k))
		res.note("one pass = %d legs: %.0f kinstr in %.2f s of simulation (per-leg medians)", p.legs, p.kinstr, p.runS)
		res.note("raw host time: %.2f kinstr/s, set-up %.4f s, %.4f legs/s", ratio(p.kinstr, p.runS), p.setupS, ratio(float64(p.legs), p.setupS+p.runS))
		return res, nil
	}

	simPhase(legs, plain, phase{window: o.window / 2, minPasses: 1})
	traced := make([]legSamples, len(legs))
	t := &tracer{origin: time.Now()}
	tw, err := startTraceWindow()
	if err != nil {
		return nil, err
	}
	simPhase(legs, traced, phase{window: o.window / 2, minPasses: 1, t: t})
	tr, err := tw.stop()
	if err != nil {
		return nil, err
	}
	both := make([]legSamples, len(legs))
	for i := range legs {
		both[i].runs = append(append(both[i].runs, plain[i].runs...), traced[i].runs...)
	}
	res.attempted, res.failed, res.problems = checkLegs(legs, both, nil)

	pa, pb := summarize(plain), summarize(traced)
	var sts []*stats.Stats
	var cycles float64
	for _, s := range traced {
		for _, lr := range s.runs {
			if lr.stats != nil {
				sts = append(sts, lr.stats)
				cycles += float64(lr.stats.SMCycles)
				break
			}
		}
	}
	zeroFill(res)
	res.add("sim.setup_s", pb.setupS)
	res.add("sim.run_s", pb.runS)
	res.add("timing.host_ns_per_sm_cycle", ratio(pb.runS*1e9, cycles))
	addSimCounts(sts, legs[0].cfg, res.add)
	tr.layerMetrics(res.add)
	res.add("bench.trace_overhead_kinstr_per_s", ratio(pb.kinstr, pb.runS)-ratio(pa.kinstr, pa.runS))
	res.note("tracing overhead: traced %.1f vs untraced %.1f kinstr/s", ratio(pb.kinstr, pb.runS), ratio(pa.kinstr, pa.runS))
	return res, finishTrace(o, res, t, tr)
}

// zeroFill enters every per-layer metric at 0, so a layer the workload does
// not reach still reports.
func zeroFill(res *result) {
	for _, d := range perLayer {
		res.add(d.Name, 0)
	}
}
