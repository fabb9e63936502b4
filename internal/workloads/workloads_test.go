package workloads

import (
	"testing"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/vm"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"BFS", "BICG", "BPROP", "FWT", "KMN", "MINIFE", "SP", "STCL", "STN", "VADD"}
	got := Abbrs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d workloads: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Abbrs() = %v, want %v", got, want)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	mem := vm.New(config.Default())
	if _, err := Build("NOPE", mem, 1); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestAllKernelsValidateAndAnalyze(t *testing.T) {
	for _, abbr := range Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			mem := vm.New(config.Default())
			w, err := Build(abbr, mem, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Kernel.Validate(); err != nil {
				t.Fatalf("kernel invalid: %v", err)
			}
			prog, err := analyzer.Analyze(w.Kernel)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if len(prog.Blocks) == 0 {
				t.Fatalf("%s: no offload blocks found", abbr)
			}
		})
	}
}

func TestIndirectWorkloadsHaveIndirectBlocks(t *testing.T) {
	// Table 1: BFS and STCL contain single-indirect-load blocks (§4.4);
	// our MINIFE gather is indirect as well.
	for _, abbr := range []string{"BFS", "STCL", "MINIFE"} {
		mem := vm.New(config.Default())
		w, err := Build(abbr, mem, 1)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := analyzer.Analyze(w.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, b := range prog.Blocks {
			if b.Indirect {
				// Indirect blocks contain only gather loads (adjacent ones
				// merge into a single block to amortize the round trip).
				if b.NSUInstrs() != b.NumLD || b.NumST != 0 {
					t.Errorf("%s: indirect block %d NSU instrs / %d LD / %d ST",
						abbr, b.NSUInstrs(), b.NumLD, b.NumST)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no indirect offload block found", abbr)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	m1 := vm.New(config.Default())
	m2 := vm.New(config.Default())
	w1, _ := Build("KMN", m1, 1)
	w2, _ := Build("KMN", m2, 1)
	if len(w1.Kernel.Code) != len(w2.Kernel.Code) {
		t.Fatal("kernel code differs across builds")
	}
	if w1.Kernel.Params[0] != w2.Kernel.Params[0] {
		t.Fatal("allocation addresses differ across builds")
	}
}

func TestScaleGrowsProblem(t *testing.T) {
	m1 := vm.New(config.Default())
	m2 := vm.New(config.Default())
	w1, _ := Build("VADD", m1, 1)
	w2, _ := Build("VADD", m2, 2)
	if w2.Kernel.GridDim != 2*w1.Kernel.GridDim {
		t.Fatalf("scale 2 grid = %d, want %d", w2.Kernel.GridDim, 2*w1.Kernel.GridDim)
	}
}
