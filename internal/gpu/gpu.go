// Package gpu models the host GPU: SMs with warp schedulers, scoreboards,
// coalescing load/store units and L1 caches; sliced L2; the NDP packet
// buffers and offload logic of the partitioned execution mechanism; and the
// no-issue-cycle classification reported in Figure 8 of the paper.
package gpu

import (
	"fmt"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/cache"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// accessRecorder is implemented by core.CacheAware; when the decider carries
// one, the GPU feeds it runtime cache-locality profiles (§7.3).
type accessRecorder interface {
	RecordLine(blockID int, hit bool, touchedWords int)
	RecordInstance(blockID int)
	RecordTransfer(blockID int, bytes int)
}

// SpanSink receives completed offload round trips (metrics.Collector
// implements it), each as its acknowledgment is applied.
type SpanSink interface {
	OffloadSpan(sm, warp, block int, start, dur timing.PS)
}

// GPU is the host processor.
type GPU struct {
	cfg  config.Config
	prog *analyzer.Program
	mem  *vm.System
	fab  *noc.Fabric
	st   *stats.Stats
	dec  core.Decider
	rec  accessRecorder

	bufmgr *core.BufferManager
	sms    []*SM
	slices []*l2slice
	blocks []*coreBlock

	// nsuDir mirrors each NSU's optional read-only cache (§7.1 extension):
	// the GPU fills an entry when it ships a cached line and sends a small
	// reference instead of the data while the entry stays live. nil when
	// the extension is disabled.
	nsuDir []*cache.Cache

	smPeriod timing.PS
	nextCTA  int

	// stackXlat: the stacks translate offloaded accesses, which then skip
	// the SM TLB (cfg.Arch.StackTranslation, read once here).
	stackXlat bool

	cycles int64 // SM cycle of the last Tick: its time / the SM period
	// regionInstrs counts offload-region instructions since the last epoch;
	// SM ticks and crossbar-domain ack deliveries add to it.
	regionInstrs int64

	// Wake hooks, wired by the machine when the SM and crossbar domains are
	// wake-scheduled on the engine. onWake re-arms the SM-domain slot after
	// an external event unparks an SM; onXbarWake re-arms the crossbar slot
	// when an L2 push gives it work. nil until wired.
	onWake     func()
	onXbarWake func()

	// denseSMs makes Tick tick every SM on every edge, parked or not: the
	// reference the idle-skip equivalence suites compare parking against.
	denseSMs bool

	// wtaInflight counts in-flight WTA packets per destination HMC, the
	// §4.1.1 mechanism that lets dynamic memory management stall writes to
	// a page being swapped while other stacks proceed.
	wtaInflight []int64

	// Fault-injection state (nil/zero on the fault-free path).
	flt           *fault.Injector
	timeoutCycles int64 // first-attempt offload ack timeout, SM cycles
	maxRetries    int

	// spanSink, when non-nil, receives offload round-trip durations (the
	// metrics layer).
	spanSink SpanSink
}

// New wires up a GPU over the given fabric and memory.
func New(cfg config.Config, prog *analyzer.Program, mem *vm.System, fab *noc.Fabric,
	st *stats.Stats, dec core.Decider) *GPU {
	g := &GPU{
		cfg:         cfg,
		prog:        prog,
		mem:         mem,
		fab:         fab,
		st:          st,
		dec:         dec,
		bufmgr:      core.NewBufferManager(cfg),
		smPeriod:    timing.PeriodFromMHz(cfg.GPU.SMClockMHz),
		stackXlat:   cfg.Arch.StackTranslation(),
		wtaInflight: make([]int64, cfg.NumHMCs),
	}
	if r, ok := dec.(accessRecorder); ok {
		g.rec = r
	}
	for _, b := range prog.Blocks {
		g.blocks = append(g.blocks, &coreBlock{
			id:     b.ID,
			begPC:  b.BegPC,
			numLD:  b.NumLD,
			numST:  b.NumST,
			regsIn: b.RegsIn,
			instrs: b.EndPC - b.BegPC - 1,
		})
	}
	for i := 0; i < cfg.GPU.NumSMs; i++ {
		g.sms = append(g.sms, newSM(g, i))
	}
	geoms := cfg.Derived()
	if cfg.NSU.ReadOnlyCacheBytes > 0 {
		for i := 0; i < cfg.NumHMCs; i++ {
			g.nsuDir = append(g.nsuDir, cache.New(geoms.NSUReadOnly))
		}
	}
	lat := timing.PS(cfg.GPU.L2Latency) * timing.PeriodFromMHz(cfg.GPU.XbarClockMHz)
	for h := 0; h < cfg.NumHMCs; h++ {
		g.slices = append(g.slices, newL2Slice(g, h, geoms.L2Slice, lat))
	}
	return g
}

// BufferManager exposes the credit manager (the NSUs return credits to it).
func (g *GPU) BufferManager() *core.BufferManager { return g.bufmgr }

// SetFault attaches the fault injector and the resilient-offload protocol
// parameters (§ fault model): the first-attempt ack timeout in SM cycles and
// the retry budget before a block falls back to host execution.
func (g *GPU) SetFault(inj *fault.Injector, timeoutCycles int64, maxRetries int) {
	g.flt = inj
	g.timeoutCycles = timeoutCycles
	g.maxRetries = maxRetries
}

// attemptDeadline computes the timeout deadline for a retry attempt
// (exponential backoff, base timeoutCycles).
func (g *GPU) attemptDeadline(now timing.PS, attempt int) timing.PS {
	return now + timing.PS(fault.Backoff(g.timeoutCycles, attempt))*g.smPeriod
}

// targetHealthy reports whether stack t can accept new offloads: not
// administratively quarantined and its NSU not known-dead at now. The
// first time a schedule-failed NSU is observed here the GPU converts the
// detection into an administrative quarantine, so the stack is excluded
// from selection and its credits exempted even when the failure fired
// while no offload was in flight.
func (g *GPU) targetHealthy(now timing.PS, t int) bool {
	if g.bufmgr.Quarantined(t) {
		return false
	}
	if g.flt.NSUFailed(now, t) {
		g.quarantineTarget(t)
		return false
	}
	return true
}

// quarantineTarget excludes stack t from future offload target selection and
// exempts its credits from conservation accounting (the resilient protocol's
// administrative quarantine on retry exhaustion or NSU death).
func (g *GPU) quarantineTarget(t int) {
	if g.bufmgr.Quarantined(t) {
		return
	}
	g.bufmgr.Quarantine(t)
	g.st.QuarantinedNSUs++
}

// ForEachCache invokes fn on every cache structure in the GPU: per-SM
// L1D/L1I/TLB, the per-partition L2 slice tags, and the NSU read-only-cache
// mirror when that extension is enabled. The invariant auditor snapshots the
// cache list through this once at attach time; fn must not mutate.
func (g *GPU) ForEachCache(fn func(name string, c *cache.Cache)) {
	for i, sm := range g.sms {
		fn(fmt.Sprintf("sm%d/l1d", i), sm.l1)
		fn(fmt.Sprintf("sm%d/l1i", i), sm.l1i)
		fn(fmt.Sprintf("sm%d/tlb", i), sm.tlb)
	}
	for i, s := range g.slices {
		fn(fmt.Sprintf("l2slice%d", i), s.tags)
	}
	for i, d := range g.nsuDir {
		fn(fmt.Sprintf("nsudir%d", i), d)
	}
}

// Blocks returns the static block descriptors as decider BlockInfo.
func BlockInfos(prog *analyzer.Program) []core.BlockInfo {
	infos := make([]core.BlockInfo, len(prog.Blocks))
	for i, b := range prog.Blocks {
		infos[i] = core.BlockInfo{
			NumLD:    b.NumLD,
			NumST:    b.NumST,
			RegsIn:   len(b.RegsIn),
			RegsOut:  len(b.RegsOut),
			Indirect: b.Indirect,
		}
	}
	return infos
}

// sliceFor maps a line address to its L2 slice (one per memory partition).
func (g *GPU) sliceFor(line uint64) *l2slice { return g.slices[g.mem.HMCOf(line)] }

// Tick advances all SMs by one core clock and runs the epoch controller.
func (g *GPU) Tick(now timing.PS) {
	g.cycles = int64(now / g.smPeriod)
	for _, sm := range g.sms {
		if sm.wake > now && !g.denseSMs {
			// Parked: catchUp charges the elided edge at the SM's next tick,
			// or when the counters are collected.
			continue
		}
		sm.tick(now)
	}
	if g.cycles%g.cfg.NDP.EpochCycles == 0 {
		g.dec.EpochTick(g.regionInstrs)
		g.regionInstrs = 0
		g.st.RatioTrace = append(g.st.RatioTrace, g.dec.Ratio())
	}
}

// SetIdleSkip toggles SM parking (on by default). With it off, Tick ticks
// every SM on every edge: the dense reference for the SM's own parking.
func (g *GPU) SetIdleSkip(on bool) { g.denseSMs = !on }

// SetSpanSink attaches the offload round-trip consumer (metrics layer).
func (g *GPU) SetSpanSink(s SpanSink) { g.spanSink = s }

// SMOffloadCounters returns SM i's monotonic offload-decision counters: blocks
// whose OFLDBEG the SM reached, and the subset the decider sent to an NSU.
// They are maintained unconditionally on the SM (plain integer adds beside the
// statistics counters) so enabling metrics cannot perturb simulation results.
func (g *GPU) SMOffloadCounters(i int) (seen, sent int64) {
	return g.sms[i].mSeen, g.sms[i].mSent
}

// L1DSnapshot sums the per-SM L1D counters without charging parked SMs'
// slept cycles — a side-effect-free mid-run read for the metrics sampler.
// Hit and access counts are exact at tick granularity; only NoIssue
// classification lags, which the snapshot does not expose.
func (g *GPU) L1DSnapshot() stats.CacheStats {
	var l1 stats.CacheStats
	for _, sm := range g.sms {
		c := sm.l1.Stats
		l1.Accesses += c.Accesses
		l1.Hits += c.Hits
		l1.MSHRStalls += c.MSHRStalls
		l1.Evictions += c.Evictions
		l1.Fills += c.Fills
		l1.Invalidations += c.Invalidations
	}
	return l1
}

// L2Snapshot sums the per-slice L2 counters (side-effect-free mid-run read).
func (g *GPU) L2Snapshot() stats.CacheStats {
	var l2 stats.CacheStats
	for _, s := range g.slices {
		c := s.tags.Stats
		l2.Accesses += c.Accesses
		l2.Hits += c.Hits
		l2.MSHRStalls += c.MSHRStalls
		l2.Evictions += c.Evictions
		l2.Fills += c.Fills
		l2.Invalidations += c.Invalidations
	}
	return l2
}

// NextWorkAt implements timing.Ticker for the SM clock domain: the earliest
// SM wake, a pure read of what each SM's last tick recorded. The epoch
// controller runs on a fixed cycle timer that must fire densely, so the wake
// time never crosses the next epoch boundary.
func (g *GPU) NextWorkAt(now timing.PS) timing.PS {
	wake := timing.NextBoundary(g.cycles, g.cfg.NDP.EpochCycles, g.smPeriod)
	for _, sm := range g.sms {
		if sm.wake <= now {
			return now
		}
		if sm.wake < wake {
			wake = sm.wake
		}
	}
	return wake
}

// xbarTicker drives XbarTick with an idle hint: the crossbar domain has
// work exactly when an L2 slice has queued requests (including head-blocked
// retries, which charge MSHR stalls each cycle) or an inbox message has
// arrived or is scheduled. Slice fills are triggered by inbox arrivals, so
// waiters need no separate wake term.
type xbarTicker struct{ g *GPU }

// Tick implements timing.Ticker.
func (x xbarTicker) Tick(now timing.PS) { x.g.XbarTick(now) }

// NextWorkAt implements timing.Ticker.
func (x xbarTicker) NextWorkAt(now timing.PS) timing.PS {
	for _, s := range x.g.slices {
		if len(s.queue) > 0 {
			return now
		}
	}
	if at, ok := x.g.fab.GPUInbox().NextAt(); ok {
		if at <= now {
			return now
		}
		return at
	}
	return timing.Never
}

// XbarTicker returns the crossbar-domain ticker for this GPU.
func (g *GPU) XbarTicker() timing.Ticker { return xbarTicker{g} }

// SetWakeHook installs the SM-domain re-arm callback (wake scheduling).
func (g *GPU) SetWakeHook(f func()) { g.onWake = f }

// SetXbarWakeHook installs the crossbar-domain re-arm callback.
func (g *GPU) SetXbarWakeHook(f func()) { g.onXbarWake = f }

// XbarTick routes arrived messages and serves the L2 slices (crossbar/L2
// clock domain).
func (g *GPU) XbarTick(now timing.PS) {
	inbox := g.fab.GPUInbox()
	for {
		msg, ok := inbox.Pop(now)
		if !ok {
			break
		}
		switch m := msg.(type) {
		case *core.ReadResp:
			g.sliceFor(m.LineAddr).fill(m.LineAddr, now)
		case *core.AckPacket:
			g.st.AckPackets++
			g.sms[m.ID.SM].deliverAck(m, now)
		case *core.InvalPacket:
			g.st.InvalPackets++
			g.st.InvalBytes += int64(m.Size())
			g.sliceFor(m.LineAddr).invalidate(m.LineAddr)
			for _, sm := range g.sms {
				sm.l1.Invalidate(m.LineAddr)
			}
			g.invalidateNSUDirs(m.LineAddr)
			if g.flt == nil {
				// Under fault injection the WTA in-flight ledger is disabled
				// (retransmits and aborted NSU warps would unbalance it), so
				// only decrement on the exactly-once path.
				g.wtaInflight[m.HomeHMC]--
			}
		default:
			panic("gpu: unexpected message in GPU inbox")
		}
	}
	for _, s := range g.slices {
		s.tick(now)
	}
}

// WTAInflight returns the in-flight WTA count for one HMC (the dynamic
// memory management hook of §4.1.1).
func (g *GPU) WTAInflight(hmc int) int64 { return g.wtaInflight[hmc] }

// PageFillsOutstanding reports whether any L2 slice still waits on a line
// fill within the page — migrating the page would strand the response at
// the old home's slice.
func (g *GPU) PageFillsOutstanding(pageBase uint64, pageBytes int) bool {
	for _, s := range g.slices {
		for line := range s.waiters {
			if line >= pageBase && line < pageBase+uint64(pageBytes) {
				return true
			}
		}
	}
	return false
}

// Done reports whether the kernel has fully retired on the GPU side.
func (g *GPU) Done() bool {
	if g.nextCTA < g.prog.Kernel.GridDim {
		return false
	}
	for _, sm := range g.sms {
		if sm.busy() {
			return false
		}
	}
	for _, s := range g.slices {
		if !s.idle() {
			return false
		}
	}
	return true
}

// CollectCacheStats aggregates per-SM L1 and per-slice L2 statistics into
// the run's stats bundle, first charging every parked SM's slept cycles
// through SM cycle c (the run's last).
func (g *GPU) CollectCacheStats(c int64) {
	var l1i, tlb stats.CacheStats
	for _, sm := range g.sms {
		sm.catchUp(c)
		c := sm.l1i.Stats
		l1i.Accesses += c.Accesses
		l1i.Hits += c.Hits
		l1i.Fills += c.Fills
		c = sm.tlb.Stats
		tlb.Accesses += c.Accesses
		tlb.Hits += c.Hits
		tlb.Fills += c.Fills
	}
	g.st.L1D = g.L1DSnapshot()
	g.st.L1I = l1i
	g.st.TLB = tlb
	g.st.L2 = g.L2Snapshot()
}

// shipCachedLine either sends the full cached-line data to the target NSU
// or, with the §7.1 read-only cache extension, a small reference when the
// NSU already holds the line. Returns the packet and its size.
func (g *GPU) shipCachedLine(rdf *core.RDFPacket) (msg any, size int) {
	if g.nsuDir != nil {
		dir := g.nsuDir[rdf.Target]
		if dir.Lookup(rdf.Access.LineAddr) {
			ref := &core.RDFRef{ID: rdf.ID, Tag: rdf.Tag, Seq: rdf.Seq, Access: rdf.Access, TotalPkts: rdf.TotalPkts}
			return ref, ref.Size()
		}
		dir.Fill(rdf.Access.LineAddr)
	}
	resp := g.makeRDFResp(rdf)
	resp.FromCache = true
	return resp, resp.Size()
}

// invalidateNSUDirs drops a written line from every NSU directory so a
// stale read-only copy is never referenced again.
func (g *GPU) invalidateNSUDirs(line uint64) {
	for _, d := range g.nsuDir {
		d.Invalidate(line)
	}
}
