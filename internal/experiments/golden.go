package experiments

import (
	"fmt"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
)

// goldenModes are the modes the golden-digest regression gate pins for every
// workload: the host baseline plus both NDP offload mechanisms.
var goldenModes = []sim.Mode{sim.Baseline, sim.NaiveNDP, sim.DynNDP}

// goldenArchs are the non-default architecture backends whose digests the
// regression gate also pins, one entry per workload x mode x arch keyed by
// GoldenKeyArch. The default ("paper") architecture keeps the bare
// workload|mode keys so its legs stay byte-compatible with history.
var goldenArchs = config.ArchBackends[1:]

// goldenFaultWorkloads run under NDP(Dyn) with each sim.PinnedSchedules
// fault schedule, keyed by GoldenKeyFault, so fault runs are pinned too.
var goldenFaultWorkloads = []string{"VADD", "FWT", "STN"}

// GoldenDigests runs every Table 1 workload under the golden modes — on the
// default architecture and on every goldenArchs backend — plus the
// goldenFaultWorkloads under NDP(Dyn) with each pinned fault schedule, and
// returns one flattened counter digest per run. Default-architecture runs are
// keyed "workload|mode"; backend runs are keyed "workload|mode|arch"; fault
// runs are keyed "workload|mode|fault=schedule". Each digest
// is the reflection-walked statistics bundle (so a newly added counter is
// pinned automatically) plus the simulated end time and total energy. The
// simulator is deterministic, so any digest change is a behavior change.
func GoldenDigests(cfg config.Config, scale int) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	// runAll keys by workload|mode, so each architecture is its own batch.
	for _, arch := range append([]string{""}, goldenArchs...) {
		acfg := cfg
		acfg.Arch.Backend = arch
		var jobs []job
		for _, wl := range Workloads() {
			for _, m := range goldenModes {
				jobs = append(jobs, job{workload: wl, mode: m, cfg: acfg})
			}
		}
		runs := runAll(jobs, scale)
		if err := checkErrs(runs); err != nil {
			if arch != "" {
				err = fmt.Errorf("arch %s: %w", arch, err)
			}
			return nil, err
		}
		for key, r := range runs {
			if arch != "" {
				key = GoldenKeyArch(r.Workload, r.Mode, arch)
			}
			out[key] = goldenDigest(r)
		}
	}
	// Likewise each fault schedule is its own batch.
	for _, s := range sim.PinnedSchedules() {
		fc, err := sim.ChaosFaultConfig(cfg, s.Spec)
		if err != nil {
			return nil, fmt.Errorf("schedule %s: %w", s.Name, err)
		}
		fcfg := cfg
		fcfg.Fault = fc
		var jobs []job
		for _, wl := range goldenFaultWorkloads {
			jobs = append(jobs, job{workload: wl, mode: sim.DynNDP, cfg: fcfg})
		}
		runs := runAll(jobs, scale)
		if err := checkErrs(runs); err != nil {
			return nil, fmt.Errorf("schedule %s: %w", s.Name, err)
		}
		for _, wl := range goldenFaultWorkloads {
			out[GoldenKeyFault(wl, sim.DynNDP.Name, s.Name)] = goldenDigest(get(runs, wl, sim.DynNDP.Name))
		}
	}
	return out, nil
}

// goldenDigest is a run's statistics digest plus its simulated end time and
// total energy.
func goldenDigest(r *Run) map[string]float64 {
	d := r.Stats.Digest()
	d["TimePS"] = float64(r.TimePS)
	d["EnergyTotalPJ"] = r.Energy.Total()
	return d
}

// GoldenKey names one default-architecture golden-digest entry.
func GoldenKey(workload, mode string) string {
	return fmt.Sprintf("%s|%s", workload, mode)
}

// GoldenKeyArch names one golden-digest entry for a non-default architecture
// backend.
func GoldenKeyArch(workload, mode, arch string) string {
	return fmt.Sprintf("%s|%s|%s", workload, mode, arch)
}

// GoldenKeyFault names one golden-digest entry for a run under a named
// fault schedule (sim.PinnedSchedules).
func GoldenKeyFault(workload, mode, schedule string) string {
	return fmt.Sprintf("%s|%s|fault=%s", workload, mode, schedule)
}
