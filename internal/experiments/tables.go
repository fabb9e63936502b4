package experiments

import (
	"fmt"
	"io"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// Table1 prints the workload suite with the static offload-block analysis:
// per-block NSU instruction counts (the paper's last column) and the
// register-transfer averages the paper reports in §5.
func Table1(w io.Writer, cfg config.Config, scale int) error {
	fmt.Fprintln(w, "\nTable 1: workloads and offload blocks")
	fmt.Fprintf(w, "%-8s %-34s %-26s %s\n", "Abbr", "Input", "Description", "#instrs per NSU block")
	var totalIn, totalOut, totalBlocks int
	for _, abbr := range Workloads() {
		mem := vm.New(cfg)
		wl, err := workloads.Build(abbr, mem, scale)
		if err != nil {
			return err
		}
		prog, err := analyzer.Analyze(wl.Kernel)
		if err != nil {
			return err
		}
		counts := ""
		for i, b := range prog.Blocks {
			if i > 0 {
				counts += ","
			}
			counts += fmt.Sprintf("%d", b.NSUInstrs())
			totalIn += len(b.RegsIn)
			totalOut += len(b.RegsOut)
			totalBlocks++
		}
		fmt.Fprintf(w, "%-8s %-34s %-26s %s\n", abbr, wl.Input, wl.Desc, counts)
	}
	fmt.Fprintf(w, "avg registers per block: sent=%.2f received=%.2f (paper: 0.41 / 0.47 per thread)\n",
		float64(totalIn)/float64(totalBlocks), float64(totalOut)/float64(totalBlocks))
	return nil
}

// Table2 prints the system configuration.
func Table2(w io.Writer, cfg config.Config) {
	fmt.Fprintln(w, "\nTable 2: system configuration")
	g := cfg.GPU
	fmt.Fprintf(w, "GPU: %d SMs, %d threads/SM, %d CTAs/SM, %d regs/SM, warp %d, %d KB scratchpad\n",
		g.NumSMs, g.MaxThreadsPerSM, g.MaxCTAsPerSM, g.MaxRegsPerSM, config.WarpWidth, g.ScratchpadBytes>>10)
	fmt.Fprintf(w, "     L1I %d KB/%d-way, L1D %d KB/%d-way (%d MSHRs), L2 %d MB/%d-way (%d MSHRs/slice)\n",
		g.L1I.SizeBytes>>10, g.L1I.Ways, g.L1D.SizeBytes>>10, g.L1D.Ways, g.L1D.MSHRs,
		g.L2.SizeBytes>>20, g.L2.Ways, g.L2.MSHRs)
	fmt.Fprintf(w, "     clocks: SM %d / Xbar %d MHz, L2 on the Xbar clock (paper: 700 MHz); off-chip links %d x %.0f GB/s per direction\n",
		g.SMClockMHz, g.XbarClockMHz, cfg.NumHMCs, g.LinkGBps)
	h := cfg.HMC
	fmt.Fprintf(w, "HMC: %d stacks, %d vaults x %d banks, queue %d, tCK=%.2fns tRP=%d tCCD=%d tRCD=%d tCL=%d tWR=%d tRAS=%d\n",
		cfg.NumHMCs, h.NumVaults, h.BanksPerVault, h.VaultQueue,
		float64(h.TCKps)/1000, h.TRP, h.TCCD, h.TRCD, h.TCL, h.TWR, h.TRAS)
	fmt.Fprintf(w, "     memory network: %d links/HMC x %.0f GB/s, 3D hypercube\n",
		h.NetLinksPerHMC, h.NetLinkGBps)
	n := cfg.NSU
	fmt.Fprintf(w, "NSU: %d MHz, %d warps x width %d, %d KB I-cache, always-hit const cache (paper: 4 KB)\n",
		n.ClockMHz, n.NumWarps, config.WarpWidth, n.ICacheBytes>>10)
	fmt.Fprintf(w, "     buffers: read-data %d, write-addr %d, cmd %d entries\n",
		n.ReadDataEntries, n.WriteAddrEntries, n.CmdEntries)
	d := cfg.NDP
	fmt.Fprintf(w, "SM packet buffers: pending %d, ready %d entries\n", d.PendingEntries, d.ReadyEntries)
}

// Overhead prints the §7.5 hardware-overhead arithmetic: per-SM packet
// buffer storage and its share of on-chip storage (paper: 2.84 KB, 1.8%).
func Overhead(w io.Writer, cfg config.Config) {
	buf := cfg.PacketBufferBytesPerSM()
	total := cfg.OnChipStorageBytesPerSM()
	fmt.Fprintln(w, "\nHardware overhead (§7.5)")
	fmt.Fprintf(w, "per-SM NDP packet buffers: %d B (%.2f KB)\n", buf, float64(buf)/1024)
	fmt.Fprintf(w, "per-SM on-chip storage:    %d B\n", total)
	fmt.Fprintf(w, "overhead fraction:         %.2f%% (paper: 1.8%%)\n", 100*float64(buf)/float64(total))
}
