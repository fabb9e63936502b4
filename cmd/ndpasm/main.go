// Command ndpasm assembles a textual virtual-ISA kernel (see package asm for
// the syntax), runs the §3 offload analysis on it, and optionally executes
// it on the simulated machine with freshly allocated zero-filled arrays
// bound to its parameters.
//
// Usage:
//
//	ndpasm -in kernel.s                      # assemble + show offload blocks
//	ndpasm -in kernel.s -run -mode dyncache  # and execute it
package main

import (
	"flag"
	"fmt"
	"os"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/asm"
	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/vm"
)

func main() {
	var (
		in         = flag.String("in", "", "assembly source file")
		run        = flag.Bool("run", false, "execute the kernel after assembling")
		mode       = flag.String("mode", "baseline", sim.ModeUsage)
		arrayWords = flag.Int("arraywords", 1<<16, "words allocated per kernel parameter for -run")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}

	cfg := config.Default()
	mem := vm.New(cfg)

	// Bind one freshly allocated zero-filled array per declared parameter.
	params := make([]uint64, asm.DeclaredParams(string(src)))
	for i := range params {
		params[i] = mem.Alloc(4 * *arrayWords)
	}
	k, err := asm.Parse(string(src), params...)
	if err != nil {
		fatal(err)
	}

	prog, err := analyzer.Analyze(k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d instructions, grid %dx%d, %d offload blocks\n",
		k.Name, len(k.Code), k.GridDim, k.BlockDim, len(prog.Blocks))
	for _, b := range prog.Blocks {
		fmt.Printf("  block %d: %d LD / %d ST, score %d, regs in=%v out=%v, %d NSU instrs\n",
			b.ID, b.NumLD, b.NumST, b.Score, b.RegsIn, b.RegsOut, b.NSUInstrs())
	}

	if !*run {
		return
	}
	m, cfg, err := sim.ParseMode(*mode, cfg)
	if err != nil {
		fatal(err)
	}
	machine, err := sim.Launch(cfg, k, mem, m)
	if err != nil {
		fatal(err)
	}
	res, err := machine.Run(0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ran in %.3f us (%d SM cycles)\n", float64(res.TimePS)/1e6, res.Cycles)
	fmt.Print(res.Stats.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndpasm:", err)
	os.Exit(1)
}
