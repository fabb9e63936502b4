// Command ndpinspect shows a workload's compiled GPU code after the offload
// analysis (§3), its offload blocks with the Equation 1 scores and register
// transfers, and the generated NSU code (Figure 3).
//
// Usage:
//
//	ndpinspect -workload BFS
package main

import (
	"flag"
	"fmt"
	"os"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "VADD", "workload abbreviation")
		showGPU  = flag.Bool("gpu", true, "print the rewritten GPU code")
		showNSU  = flag.Bool("nsu", true, "print the NSU code per block")
	)
	flag.Parse()

	cfg := config.Default()
	mem := vm.New(cfg)
	w, err := workloads.Build(*workload, mem, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndpinspect:", err)
		os.Exit(1)
	}
	prog, err := analyzer.Analyze(w.Kernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndpinspect:", err)
		os.Exit(1)
	}

	fmt.Printf("%s — %s (%s)\n", w.Abbr, w.Desc, w.Input)
	fmt.Printf("grid %d x %d threads, %d registers\n\n",
		prog.Kernel.GridDim, prog.Kernel.BlockDim, prog.Kernel.RegsUsed)

	if *showGPU {
		fmt.Println("GPU code (rewritten, Figure 3(a) style):")
		fmt.Print(prog.Kernel.Disassemble())
		fmt.Println()
	}

	fmt.Printf("offload blocks: %d\n", len(prog.Blocks))
	for _, b := range prog.Blocks {
		kind := ""
		if b.Indirect {
			kind = "  [single indirect load, §4.4]"
		}
		fmt.Printf("\nblock %d: pc %d..%d, %d LD / %d ST, score=%d B/thread, "+
			"regs in=%v out=%v, %d NSU instrs (%d B of I-cache)%s\n",
			b.ID, b.BegPC, b.EndPC, b.NumLD, b.NumST, b.Score,
			b.RegsIn, b.RegsOut, b.NSUInstrs(), len(b.NSUCode)*isa.InstrBytes, kind)
		if *showNSU {
			for pc, in := range b.NSUCode {
				fmt.Printf("  %4d: %s\n", pc, in.String())
			}
		}
	}
}
