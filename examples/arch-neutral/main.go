// Architecture neutrality: the paper's central claim is that the NDP memory
// stack is standardizable — it contains no GPU-specific MMU, TLB, or cache,
// so the SAME stacks (and the same NSU code) serve different GPU designs.
// This example runs one workload against two deliberately different "vendor"
// GPUs sharing an identical memory-stack configuration and shows both
// partition the work correctly.
//
//	go run ./examples/arch-neutral
package main

import (
	"fmt"
	"log"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

func vendorA() config.Config {
	return config.Default() // Table 2: 64 SMs @ 700 MHz, 2 MB L2
}

func vendorB() config.Config {
	c := config.Default()
	// A different GPU: fewer, faster SMs, a bigger L1, a smaller L2 and
	// more ALUs — the memory stacks and NSUs are untouched.
	c.GPU.NumSMs = 40
	c.GPU.SMClockMHz = 1100
	c.GPU.L1D.SizeBytes = 64 << 10
	c.GPU.L2.SizeBytes = 1 << 20
	c.GPU.NumALUs = 4
	return c
}

func main() {
	for _, v := range []struct {
		name string
		cfg  config.Config
	}{{"vendor A (Table 2 GPU)", vendorA()}, {"vendor B (different GPU)", vendorB()}} {
		if err := v.cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d SMs @ %d MHz, L2 %d KB — same stacks, same NSU code\n",
			v.name, v.cfg.GPU.NumSMs, v.cfg.GPU.SMClockMHz, v.cfg.GPU.L2.SizeBytes>>10)
		for _, mode := range []sim.Mode{sim.Baseline, sim.DynCache} {
			mem := vm.New(v.cfg)
			w, err := workloads.Build("VADD", mem, 1)
			if err != nil {
				log.Fatal(err)
			}
			m, err := sim.Launch(v.cfg, w.Kernel, mem, mode)
			if err != nil {
				log.Fatal(err)
			}
			res, err := m.Run(0)
			if err != nil {
				log.Fatal(err)
			}
			if err := w.Verify(); err != nil {
				log.Fatalf("%s/%s: %v", v.name, mode.Name, err)
			}
			fmt.Printf("  %-16s %8.2f us   offloaded %d/%d block instances\n",
				mode.Name, float64(res.TimePS)/1e6,
				res.Stats.OffloadBlocksOffloaded, res.Stats.OffloadBlocksSeen)
		}
		fmt.Println()
	}
	fmt.Println("both GPUs drive the same standardized NDP stacks correctly")
}
