package sim

import (
	"fmt"

	"ndpgpu/internal/metrics"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/timing"
)

// EnableMetrics attaches the epoch-sampled metrics collector to the machine:
// a probe set covering every layer (offload controller and per-SM decisions,
// link utilization and queue depths, NSU buffers and credit stalls, DRAM
// row-hit rate and vault busy fraction, cache hit rates, and — under fault
// injection — the resilience counters), sampled on the SM clock every
// intervalCycles cycles. intervalCycles <= 0 selects the Algorithm-1 epoch
// (cfg.NDP.EpochCycles), whose boundary edges the GPU's epoch controller
// already pins, so the default sampler fires no edge the engine would have
// skipped. Call before Run; idempotent.
//
// Probes are pure reads over the statistics bundle, and the GPU hands each
// offload round-trip span to the collector as its ack is applied, so a
// machine without a collector behaves bit-identically to a machine with one.
func (m *Machine) EnableMetrics(intervalCycles int64) *metrics.Collector {
	if m.mc != nil {
		return m.mc
	}
	if intervalCycles <= 0 {
		intervalCycles = m.Cfg.NDP.EpochCycles
	}
	smPeriod := timing.PeriodFromMHz(m.Cfg.GPU.SMClockMHz)
	c := metrics.New(intervalCycles, smPeriod)
	m.mc = c
	m.g.SetSpanSink(c)
	m.registerProbes(c, smPeriod)
	m.smDomain.Attach(c.Ticker())
	return c
}

// Metrics returns the attached collector, or nil when metrics are disabled.
func (m *Machine) Metrics() *metrics.Collector { return m.mc }

// registerProbes wires the full probe set. The registration order is fixed so
// series order — and therefore export bytes — is deterministic.
func (m *Machine) registerProbes(c *metrics.Collector, smPeriod timing.PS) {
	st := m.St
	// Offload controller (Algorithm 1): the global ratio knob and the
	// realized offload fraction per interval.
	c.Gauge("ratio", "controller", "fraction", func() float64 { return m.Dec.Ratio() })
	c.Rate("offload_ratio", "controller", "fraction", 1,
		func() float64 { return float64(st.OffloadBlocksOffloaded) },
		func() float64 { return float64(st.OffloadBlocksSeen) })

	// Per-SM controller decisions: block instances reaching OFLDBEG, the
	// subset sent to an NSU, and the per-interval decision ratio.
	for i := 0; i < m.Cfg.GPU.NumSMs; i++ {
		i := i
		seen := func() float64 { n, _ := m.g.SMOffloadCounters(i); return float64(n) }
		sent := func() float64 { _, n := m.g.SMOffloadCounters(i); return float64(n) }
		c.Counter(fmt.Sprintf("sm%d/offload_seen", i), "sm", "blocks", seen)
		c.Counter(fmt.Sprintf("sm%d/offload_sent", i), "sm", "blocks", sent)
		c.Rate(fmt.Sprintf("sm%d/offload_ratio", i), "sm", "fraction", 1, sent, seen)
	}

	// Hypercube and GPU links: bytes per interval and utilization (fraction
	// of wall time the link serialized bytes), plus inbox queue depths.
	m.fab.ForEachLink(func(name string, l *noc.Link) {
		c.Counter(name+"/bytes", "link", "bytes",
			func() float64 { return float64(l.Bytes) })
		c.TimeRate(name+"/util", "link", "fraction", l.PSPerByte(),
			func() float64 { return float64(l.Bytes) })
	})
	c.Gauge("gpu_inbox_depth", "link", "msgs",
		func() float64 { return float64(m.fab.GPUInbox().Len()) })
	for i := 0; i < m.Cfg.NumHMCs; i++ {
		i := i
		c.Gauge(fmt.Sprintf("hmc%d_inbox_depth", i), "link", "msgs",
			func() float64 { return float64(m.fab.HMCInbox(i).Len()) })
	}

	// Memory stacks: DRAM row-hit rate, vault busy fraction, vault queue
	// depth, NSU warp-slot occupancy, NDP buffer occupancy, credit stalls.
	// The SM samples before the DRAM domain fires at the same time, so the
	// vault counters cover the DRAM edges strictly before the sample.
	before := func() int64 { return m.dramCycle(m.engine.Now() - 1) }
	for i := range m.hmcs {
		h, n := m.hmcs[i], m.nsus[i]
		pre := fmt.Sprintf("hmc%d/", i)
		vaults := float64(h.NumVaults())
		c.Rate(pre+"row_hit_rate", "dram", "fraction", 1,
			func() float64 { return float64(h.VaultStats(before()).RowHits) },
			func() float64 {
				vs := h.VaultStats(before())
				return float64(vs.Reads + vs.Writes)
			})
		c.TimeRate(pre+"vault_busy", "dram", "fraction",
			float64(m.Cfg.HMC.TCKps)/vaults,
			func() float64 { return float64(h.VaultStats(before()).BusyCycles) })
		c.Gauge(pre+"queue_depth", "dram", "reqs",
			func() float64 { return float64(h.QueueDepth()) })

		npre := fmt.Sprintf("nsu%d/", i)
		c.Gauge(npre+"warps", "nsu", "warps",
			func() float64 { return float64(n.Occupied()) })
		c.Gauge(npre+"buf_cmd", "nsu", "entries", func() float64 {
			cmd, _, _ := n.BufferOccupancy()
			return float64(cmd)
		})
		c.Gauge(npre+"buf_rd", "nsu", "entries", func() float64 {
			_, rd, _ := n.BufferOccupancy()
			return float64(rd)
		})
		c.Gauge(npre+"buf_wt", "nsu", "entries", func() float64 {
			_, _, wt := n.BufferOccupancy()
			return float64(wt)
		})
		t := i
		c.Counter(npre+"credit_stalls", "nsu", "rejects",
			func() float64 { return float64(m.g.BufferManager().TargetRejects(t)) })
	}

	// Caches: L1D and L2 hit rates from side-effect-free counter snapshots.
	c.Rate("l1d_hit_rate", "cache", "fraction", 1,
		func() float64 { return float64(m.g.L1DSnapshot().Hits) },
		func() float64 { return float64(m.g.L1DSnapshot().Accesses) })
	c.Rate("l2_hit_rate", "cache", "fraction", 1,
		func() float64 { return float64(m.g.L2Snapshot().Hits) },
		func() float64 { return float64(m.g.L2Snapshot().Accesses) })

	// GPU issue throughput: warp instructions per interval and IPC in
	// instructions per SM cycle.
	instrs := func() float64 { return float64(st.IssuedInstrs) }
	c.Counter("instrs", "gpu", "instrs", instrs)
	c.TimeRate("ipc", "gpu", "instr/cycle", float64(smPeriod), instrs)

	// Resilience counters, only meaningful under fault injection.
	if m.flt != nil {
		c.Counter("dropped", "fault", "pkts",
			func() float64 { return float64(st.DroppedPackets) })
		c.Counter("corrupted", "fault", "pkts",
			func() float64 { return float64(st.CorruptedPackets) })
		c.Counter("retries", "fault", "blocks",
			func() float64 { return float64(st.OffloadRetries) })
		c.Counter("timeouts", "fault", "blocks",
			func() float64 { return float64(st.OffloadTimeouts) })
		c.Counter("fallbacks", "fault", "blocks",
			func() float64 { return float64(st.FallbackBlocks) })
	}
}
