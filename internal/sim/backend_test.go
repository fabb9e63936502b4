package sim

import (
	"bytes"
	"testing"

	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// backendArchs are the non-default architecture backends under test. The
// default ("paper") architecture is pinned separately by the golden-digest
// gate and the pre-existing equivalence suites.
var backendArchs = []string{"coda", "coda-ft", "ndpage"}

// TestBackendAudit is the oracle-differential gate for every architecture
// backend: each arch x mode x workload leg runs with all runtime invariant
// checkers attached and its final memory compared bit-for-bit against the
// reference interpreter. Placement and translation are timing-only, so a
// backend can change when things happen but never what the program computes.
func TestBackendAudit(t *testing.T) {
	wls := []string{"VADD", "BFS", "FWT", "KMN"}
	if testing.Short() {
		wls = []string{"VADD"}
	}
	cfg := AuditConfig()
	for _, arch := range backendArchs {
		acfg := cfg
		acfg.Arch.Backend = arch
		for _, wl := range wls {
			for _, mode := range AuditModes {
				arch, wl, mode := arch, wl, mode
				t.Run(arch+"/"+wl+"/"+mode.Name, func(t *testing.T) {
					r := RunAuditOne(acfg, wl, mode, 1)
					if r.Err != nil {
						t.Fatalf("run: %v", r.Err)
					}
					if !r.MemMatch {
						t.Errorf("final memory diverges from the reference interpreter")
					}
					if r.Violations != 0 {
						t.Errorf("%d invariant violations (first: %s)", r.Violations, r.FirstBad)
					}
				})
			}
		}
	}
}

// TestBackendMemoryInvariance pins the placement-is-timing-only property
// directly: the same workload run under every backend (including the default)
// must end with byte-identical memory, even though the page->stack layouts
// and runtimes differ.
func TestBackendMemoryInvariance(t *testing.T) {
	cfg := smallConfig()
	modes := []Mode{NaiveNDP, DynNDP}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.Name, func(t *testing.T) {
			ref := runVADDLeg(t, cfg, mode, false)
			for _, arch := range backendArchs {
				acfg := cfg
				acfg.Arch.Backend = arch
				leg := runVADDLeg(t, acfg, mode, false)
				if !bytes.Equal(ref.mem, leg.mem) {
					t.Errorf("%s: final memory differs from the default architecture", arch)
				}
			}
		})
	}
}

// TestBackendUnknownRejected: Launch refuses an unknown architecture name
// instead of silently running the default.
func TestBackendUnknownRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Arch.Backend = "no-such-arch"
	mem := vm.New(cfg)
	w, err := workloads.Build("VADD", mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Launch(cfg, w.Kernel, mem, NaiveNDP); err == nil {
		t.Fatal("Launch accepted an unknown architecture backend")
	}
}
