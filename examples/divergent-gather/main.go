// Divergent gather: demonstrates the §4.4 bandwidth saving. The kernel
// computes out[i] = table[idx[i]] where idx is a random permutation, so each
// warp load touches up to 32 different cache lines and uses only 4 bytes of
// each. The baseline fetches whole 128-byte lines across the GPU links; the
// NDP system offloads the gather as a single-instruction indirect block and
// ships back only the touched words.
//
//	go run ./examples/divergent-gather
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/vm"
)

const n = 256 * 1024 // 1 MB table

func build(mem *vm.System) (*kernel.Kernel, func() error) {
	idx := mem.Alloc(4 * n)
	table := mem.Alloc(4 * n)
	out := mem.Alloc(4 * n)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		mem.Write32(idx+uint64(4*i), uint32(perm[i]))
		mem.WriteF32(table+uint64(4*i), float32(i)*0.25)
	}

	kb := kernel.NewBuilder()
	kb.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	kb.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	kb.Ld(18, 17, 0) // j = idx[i] (coalesced)
	kb.OpImm(isa.SHLI, 19, 18, 2)
	kb.Op3(isa.ADD, 20, kernel.RegParam0+1, 19)
	kb.Ld(21, 20, 0) // v = table[j]  <- divergent indirect gather
	kb.Op3(isa.ADD, 22, kernel.RegParam0+2, 16)
	kb.St(22, 0, 21)
	kb.Exit()
	k := kb.MustBuild("gather", n/256, 256, idx, table, out)

	verify := func() error {
		for i := 0; i < n; i += 4999 {
			want := float32(perm[i]) * 0.25
			if got := mem.ReadF32(out + uint64(4*i)); got != want {
				return fmt.Errorf("out[%d] = %v, want %v", i, got, want)
			}
		}
		return nil
	}
	return k, verify
}

func main() {
	cfg := config.Default()
	// Shrink the L2 so the example's 1 MB gather table genuinely misses
	// (at full Table 2 scale you would use a table several times the 2 MB
	// L2; this keeps the example fast).
	cfg.GPU.L2.SizeBytes = 256 << 10

	// Show what the compiler pass found.
	{
		mem := vm.New(cfg)
		k, _ := build(mem)
		prog, err := analyzer.Analyze(k)
		if err != nil {
			log.Fatal(err)
		}
		for _, b := range prog.Blocks {
			kind := "regular"
			if b.Indirect {
				kind = "indirect (§4.4)"
			}
			fmt.Printf("offload block %d: %d NSU instrs, %d LD / %d ST, %s\n",
				b.ID, b.NSUInstrs(), b.NumLD, b.NumST, kind)
		}
	}

	for _, mode := range []sim.Mode{sim.Baseline, sim.DynCache} {
		mem := vm.New(cfg)
		k, verify := build(mem)
		m, err := sim.Launch(cfg, k, mem, mode)
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.Run(0)
		if err != nil {
			log.Fatal(err)
		}
		if err := verify(); err != nil {
			log.Fatal(err)
		}
		st := res.Stats
		fmt.Printf("%-16s %8.2f us   GPU-link %6d KB   memnet %6d KB\n",
			mode.Name, float64(res.TimePS)/1e6,
			st.OffChipTraffic()/1024, st.Traffic[1]/1024)
	}
}
