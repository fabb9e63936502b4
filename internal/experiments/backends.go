package experiments

import (
	"fmt"
	"io"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
)

// BackendArchs lists the architecture backends the cross-architecture sweep
// compares: every valid name, "paper" first. "paper" is the
// partitioned-execution design this repo models (random 4KB interleave,
// GPU-owned translation); the rest are the alternatives: CODA-style
// locality-aware placement (majority accessor and first-touch variants) and
// NDPage-style stack-side translation.
var BackendArchs = config.ArchBackends

// backendModes are the execution modes swept per architecture: the host
// baseline plus both NDP offload mechanisms.
var backendModes = []sim.Mode{sim.Baseline, sim.NaiveNDP, sim.DynNDP}

// BackendsResult holds every run of the cross-architecture sweep,
// keyed Rows[workload]["arch|mode"].
type BackendsResult struct {
	Archs []string
	Modes []string
	Rows  map[string]map[string]*Run
}

// Get returns the run for workload wl under arch and mode. The ndpage
// baseline aliases the paper baseline: host-side execution never reaches the
// stack-side translation path, so that leg is not simulated separately and
// the paper run stands in for it.
func (b *BackendsResult) Get(wl, arch, mode string) *Run {
	if arch == "ndpage" && mode == sim.Baseline.Name {
		arch = "paper"
	}
	return b.Rows[wl][arch+"|"+mode]
}

// Backends runs every Table 1 workload under every golden mode on every
// architecture backend and prints, per mode, each alternative architecture's
// runtime relative to the paper design (below 1.0 = faster than the paper),
// then a verdict on unrestricted placement vs CODA-style co-location.
func Backends(w io.Writer, cfg config.Config, scale int) (*BackendsResult, error) {
	res := &BackendsResult{Archs: BackendArchs}
	for _, m := range backendModes {
		res.Modes = append(res.Modes, m.Name)
	}
	res.Rows = make(map[string]map[string]*Run)
	for _, wl := range Workloads() {
		res.Rows[wl] = make(map[string]*Run)
	}

	// runAll keys results by workload|mode, so each architecture gets its
	// own batch (still parallel across workloads within the batch).
	for _, arch := range BackendArchs {
		acfg := cfg
		acfg.Arch.Backend = arch
		var jobs []job
		for _, m := range backendModes {
			if arch == "ndpage" && m.Name == sim.Baseline.Name {
				continue // identical to paper|Baseline by construction
			}
			for _, wl := range Workloads() {
				jobs = append(jobs, job{workload: wl, mode: m, cfg: acfg})
			}
		}
		runs := runAll(jobs, scale)
		if err := checkErrs(runs); err != nil {
			return nil, fmt.Errorf("arch %s: %w", arch, err)
		}
		for _, j := range jobs {
			res.Rows[j.workload][arch+"|"+j.mode.Name] = get(runs, j.workload, j.mode.Name)
		}
	}

	for _, mode := range res.Modes {
		header(w, fmt.Sprintf("Runtime vs paper architecture, mode %s", mode), BackendArchs[1:])
		ratios := make(map[string][]float64)
		for _, wl := range Workloads() {
			base := res.Get(wl, "paper", mode)
			fmt.Fprintf(w, "%-8s", wl)
			for _, arch := range BackendArchs[1:] {
				r := float64(res.Get(wl, arch, mode).TimePS) / float64(base.TimePS)
				ratios[arch] = append(ratios[arch], r)
				fmt.Fprintf(w, "%12.3f", r)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-8s", "geomean")
		for _, arch := range BackendArchs[1:] {
			fmt.Fprintf(w, "%12.3f", geomean(ratios[arch]))
		}
		fmt.Fprintln(w)
	}

	// Verdict: the paper's unrestricted random interleave against CODA-style
	// co-location, per offload mode. Ratios above 1.0 mean the co-located
	// layout ran slower, i.e. unrestricted placement won that workload.
	fmt.Fprintln(w)
	for _, mode := range res.Modes[1:] {
		for _, arch := range []string{"coda", "coda-ft"} {
			var rs []float64
			wins := 0
			for _, wl := range Workloads() {
				r := float64(res.Get(wl, arch, mode).TimePS) /
					float64(res.Get(wl, "paper", mode).TimePS)
				rs = append(rs, r)
				if r > 1 {
					wins++
				}
			}
			fmt.Fprintf(w, "unrestricted vs %s (%s): paper faster on %d/%d workloads, geomean %.3fx\n",
				arch, mode, wins, len(rs), geomean(rs))
		}
	}
	return res, nil
}
