package main

import (
	"ndpgpu/internal/config"
	"ndpgpu/internal/stats"
)

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addSimCounts sums the simulated per-layer counts of one pass (each leg's
// public stats.Stats once) and derives the layer ratios from the sums. The
// simulator is deterministic for a seed, so these read the same on every
// run of a seed.
func addSimCounts(sts []*stats.Stats, cfg config.Config, add func(name string, v float64)) {
	var t stats.Stats
	var nsuSlotCycles float64
	for _, s := range sts {
		stats.FoldInto(&t, s)
		nsuSlotCycles += float64(s.NSUCycles) * float64(cfg.NSU.NumWarps) * float64(cfg.NumHMCs)
	}
	f := func(v int64) float64 { return float64(v) }
	k := func(v int64) float64 { return float64(v) / 1e3 }
	mb := func(v int64) float64 { return float64(v) / 1e6 }

	add("timing.sm_kcycles", k(t.SMCycles))
	add("timing.sim_us", float64(t.ElapsedPS)/1e6)

	add("gpu.issued_kinstr", k(t.IssuedInstrs))
	add("gpu.issue_kcycles", k(t.IssueCycles))
	add("gpu.stall_exec_kcycles", k(t.NoIssue[stats.ExecUnitBusy]))
	add("gpu.stall_dep_kcycles", k(t.NoIssue[stats.DependencyStall]))
	add("gpu.stall_idle_kcycles", k(t.NoIssue[stats.WarpIdle]))
	add("gpu.tlb_hit_rate", t.TLB.HitRate())

	add("cache.l1d_kaccesses", k(t.L1D.Accesses))
	add("cache.l1d_hit_rate", t.L1D.HitRate())
	add("cache.l2_kaccesses", k(t.L2.Accesses))
	add("cache.l2_hit_rate", t.L2.HitRate())
	add("cache.mshr_stalls", f(t.L1D.MSHRStalls+t.L2.MSHRStalls))

	add("dram.kreads", k(t.DRAMReads))
	add("dram.kwrites", k(t.DRAMWrites))
	add("dram.kactivations", k(t.DRAMActivations))
	add("dram.row_hit_rate", ratio(f(t.DRAMRowHits), f(t.DRAMReads+t.DRAMWrites)))
	add("hmc.intra_mb", mb(t.Traffic[stats.IntraHMC]))
	add("hmc.overflow_stalls", f(t.HMCOverflowStall))

	add("noc.gpulink_mb", mb(t.Traffic[stats.GPULink]))
	add("noc.memnet_mb", mb(t.Traffic[stats.MemNet]))
	add("noc.kpackets", k(t.OffloadCmdPackets+t.RDFPackets+t.WTAPackets+t.RDFRespPackets+t.AckPackets+t.InvalPackets))
	add("noc.dropped", f(t.DroppedPackets+t.CorruptedPackets+t.RouteUnreachable))
	add("noc.rerouted_hops", f(t.ReroutedHops))

	add("nsu.kinstr", k(t.NSUInstrs))
	add("nsu.warps_spawned", f(t.NSUWarpsSpawned))
	add("nsu.occupancy", ratio(f(t.NSUWarpCycleSum), nsuSlotCycles))
	add("nsu.stall_rd_kcycles", k(t.NSUStallRDWait))
	add("nsu.stall_wrack_kcycles", k(t.NSUStallWrAck))

	add("core.blocks_seen", f(t.OffloadBlocksSeen))
	add("core.offload_ratio", ratio(f(t.OffloadBlocksOffloaded), f(t.OffloadBlocksSeen)))
	add("core.credit_stalls", f(t.CreditStalls))
	add("core.pending_buf_stalls", f(t.PendingBufStalls))
	add("core.ack_rtt_us", ratio(f(t.AckLatencySumPS), f(t.AckLatencyCount))/1e6)
	add("core.rdf_cache_hit_rate", ratio(f(t.RDFCacheHits), f(t.RDFPackets)))

	add("fault.timeouts", f(t.OffloadTimeouts))
	add("fault.retries", f(t.OffloadRetries))
	add("fault.retry_per_offload", ratio(f(t.OffloadRetries), f(t.OffloadBlocksOffloaded)))
	add("fault.fallback_blocks", f(t.FallbackBlocks))
	add("fault.stale_pkts", f(t.StaleProtoPkts))
	add("fault.nsu_aborted_warps", f(t.NSUAbortedWarps))
}
