package sim

import (
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// runWorkload builds and runs one workload in one mode, verifying the
// functional output against the host reference.
func runWorkload(t *testing.T, cfg config.Config, abbr string, mode Mode) *Result {
	t.Helper()
	mem := vm.New(cfg)
	w, err := workloads.Build(abbr, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Launch(cfg, w.Kernel, mem, mode)
	if err != nil {
		t.Fatalf("%s/%s: Launch: %v", abbr, mode.Name, err)
	}
	res, err := m.Run(0)
	if err != nil {
		t.Fatalf("%s/%s: Run: %v", abbr, mode.Name, err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s/%s: verification failed: %v", abbr, mode.Name, err)
	}
	requireOneFetchPerInstr(t, res)
	res.Mode = mode.Name
	return res
}

// requireOneFetchPerInstr checks the fetch model on a fault-free run: a warp
// fetches each instruction through the L1I once and keeps it while blocked,
// so every L1I access is one issued instruction. (Under faults a host
// fallback can abandon one fetched instruction.)
func requireOneFetchPerInstr(t *testing.T, res *Result) {
	t.Helper()
	if st := res.Stats; st.L1I.Accesses != st.IssuedInstrs {
		t.Errorf("L1I accesses = %d, issued instructions = %d: want one fetch per instruction",
			st.L1I.Accesses, st.IssuedInstrs)
	}
}

// TestOneFetchPerIssuedInstr pins the fetch model end to end on VADD in
// every mode family; the functional suites check it on every workload.
func TestOneFetchPerIssuedInstr(t *testing.T) {
	for _, mode := range []Mode{Baseline, NaiveNDP, DynCache} {
		t.Run(mode.Name, func(t *testing.T) {
			requireOneFetchPerInstr(t, runVadd(t, mode))
		})
	}
}

// TestSuiteFunctionalBaseline verifies every workload's output in baseline
// mode on a reduced machine.
func TestSuiteFunctionalBaseline(t *testing.T) {
	cfg := smallConfig()
	for _, abbr := range workloads.Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			res := runWorkload(t, cfg, abbr, Baseline)
			if res.Stats.IssuedInstrs == 0 {
				t.Fatal("no instructions issued")
			}
		})
	}
}

// TestSuiteFunctionalNaiveNDP verifies every workload under full offload —
// the strongest functional stress of the partitioned-execution protocol.
func TestSuiteFunctionalNaiveNDP(t *testing.T) {
	cfg := smallConfig()
	for _, abbr := range workloads.Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			res := runWorkload(t, cfg, abbr, NaiveNDP)
			if res.Stats.OffloadBlocksOffloaded == 0 {
				t.Fatal("nothing offloaded under naive NDP")
			}
		})
	}
}

// TestSuiteFunctionalDynCache verifies the full mechanism (dynamic ratio +
// cache-aware filtering) end to end.
func TestSuiteFunctionalDynCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	cfg := smallConfig()
	for _, abbr := range workloads.Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			runWorkload(t, cfg, abbr, DynCache)
		})
	}
}

// TestOffloadBlockShapes spot-checks the static analysis against Table 1's
// qualitative structure.
func TestOffloadBlockShapes(t *testing.T) {
	cfg := smallConfig()
	mem := vm.New(cfg)
	w, err := workloads.Build("VADD", mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram(w.Kernel, NaiveNDP)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) != 1 || prog.Blocks[0].NSUInstrs() != 4 {
		t.Fatalf("VADD blocks: %+v (Table 1: one block of 4)", prog.Blocks)
	}
}
