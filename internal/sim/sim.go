// Package sim assembles the full machine — GPU, fabric, memory stacks, and
// NSUs — and runs kernels to completion across the four clock domains of
// Table 2 (SM 700 MHz, crossbar 1250 MHz, DRAM tCK = 1.5 ns, NSU 350 MHz).
package sim

import (
	"errors"
	"fmt"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/audit"
	"ndpgpu/internal/backend"
	"ndpgpu/internal/cache"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/gpu"
	"ndpgpu/internal/hmc"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/metrics"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/nsu"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// Mode selects the offload-decision mechanism for a run.
type Mode struct {
	Name    string
	NDP     bool    // false: run the original kernel with no NDP machinery
	Static  float64 // static offload ratio, used when Dynamic is false
	Always  bool    // naive: offload every block instance (§6)
	Dynamic bool    // Algorithm 1 controller (§7.2)
	Cache   bool    // cache-locality-aware filter on top (§7.3)
}

// Predefined modes matching the paper's configurations.
var (
	Baseline = Mode{Name: "Baseline"}
	// MoreCore is Baseline_MoreCore (§6): the baseline on the machine
	// config.MoreCore builds, with one extra SM per memory stack.
	MoreCore = Mode{Name: "Baseline_MoreCore"}
	NaiveNDP = Mode{Name: "NaiveNDP", NDP: true, Always: true}
	DynNDP   = Mode{Name: "NDP(Dyn)", NDP: true, Dynamic: true}
	DynCache = Mode{Name: "NDP(Dyn)_Cache", NDP: true, Dynamic: true, Cache: true}
)

// StaticNDP returns the NDP(p) static-ratio mode of §7.1.
func StaticNDP(p float64) Mode {
	return Mode{Name: fmt.Sprintf("NDP(%.1f)", p), NDP: true, Static: p}
}

// Machine is one assembled system instance.
type Machine struct {
	Cfg  config.Config
	Prog *analyzer.Program
	Mem  *vm.System
	St   *stats.Stats
	Dec  core.Decider

	fab  *noc.Fabric
	g    *gpu.GPU
	hmcs []*hmc.HMC
	nsus []*nsu.NSU

	engine    *timing.Engine
	smDomain  *timing.Domain
	nsuDomain *timing.Domain

	aud *audit.Auditor     // nil unless EnableAudit was called
	flt *fault.Injector    // nil unless the config carries a fault schedule
	mc  *metrics.Collector // nil unless EnableMetrics was called

	swaps     []*pageSwap
	SwapsDone int
}

// pageSwap is one pending §4.1.1 page migration: the placement changes only
// once the destination stacks have no in-flight WTA packets and the GPU has
// no outstanding fills for the page, exactly the paper's stall rule.
type pageSwap struct {
	pageBase uint64
	oldHome  int
	newHome  int
}

// Result summarizes one run.
type Result struct {
	Stats    *stats.Stats
	Cycles   int64 // SM cycles to completion
	TimePS   timing.PS
	Mode     string
	TimedOut bool
}

// BuildProgram prepares the kernel for the mode: NDP modes run the
// analyzer-rewritten binary; the baseline runs the original code.
func BuildProgram(k *kernel.Kernel, mode Mode) (*analyzer.Program, error) {
	if !mode.NDP {
		if err := k.Validate(); err != nil {
			return nil, err
		}
		return &analyzer.Program{Kernel: k}, nil
	}
	return analyzer.Analyze(k)
}

// NewDecider builds the mode's offload decider.
func NewDecider(cfg config.Config, prog *analyzer.Program, mode Mode) core.Decider {
	var dec core.Decider
	switch {
	case !mode.NDP:
		dec = core.Never{}
	case mode.Always:
		dec = core.Always{}
	case mode.Dynamic:
		dec = core.NewDynamic(cfg.NDP, cfg.NDP.DecisionSeed)
	default:
		dec = core.NewStaticRatio(mode.Static, cfg.NDP.DecisionSeed)
	}
	if mode.Cache {
		dec = core.NewCacheAware(dec, gpu.BlockInfos(prog), cfg.LineBytes())
	}
	return dec
}

// New assembles a machine for the given program over an already-initialized
// memory image.
func New(cfg config.Config, prog *analyzer.Program, mem *vm.System, dec core.Decider) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := stats.New()
	fab := noc.NewFabric(cfg, st)
	m := &Machine{Cfg: cfg, Prog: prog, Mem: mem, St: st, Dec: dec, fab: fab}
	m.g = gpu.New(cfg, prog, mem, fab, st, dec)
	for i := 0; i < cfg.NumHMCs; i++ {
		h := hmc.New(i, cfg, mem, fab, st)
		n := nsu.New(i, cfg, prog, mem, fab, st, m.g.BufferManager())
		h.SetNSU(n)
		n.SetLocalWriter(h)
		m.hmcs = append(m.hmcs, h)
		m.nsus = append(m.nsus, n)
	}

	m.engine = timing.NewEngine()
	m.smDomain = m.engine.AddDomain("sm", timing.PeriodFromMHz(cfg.GPU.SMClockMHz))
	xbar := m.engine.AddDomain("xbar", timing.PeriodFromMHz(cfg.GPU.XbarClockMHz))
	dramDom := m.engine.AddDomain("dram", timing.PS(cfg.HMC.TCKps))
	m.nsuDomain = m.engine.AddDomain("nsu", timing.PeriodFromMHz(cfg.NSU.ClockMHz))
	// Wake scheduling: every simulated component is parked on its domain's
	// wake wheel until its NextWorkAt, and every channel that can hand a
	// parked component work (inbox delivery, direct NSU write submission,
	// ack/fill events unparking an SM, direct L2 pushes) re-arms the
	// target's slot. Fault runs are no exception: a stalled NSU, or a stack
	// whose last tick skipped a frozen vault, reports work every edge, and
	// each parks no later than its own next fault edge. Fault state is a pure
	// function of time, so the injector itself needs no clock and never
	// touches the engine.
	gpuSlot := m.smDomain.AttachScheduled(m.g)
	m.g.SetWakeHook(func() { m.smDomain.Wake(gpuSlot, 0) })
	xbarSlot := xbar.AttachScheduled(m.g.XbarTicker())
	m.g.SetXbarWakeHook(func() { xbar.Wake(xbarSlot, 0) })
	fab.GPUInbox().SetWakeHook(func(at timing.PS) { xbar.Wake(xbarSlot, at) })
	for i, h := range m.hmcs {
		slot := dramDom.AttachScheduled(h)
		fab.HMCInbox(i).SetWakeHook(func(at timing.PS) { dramDom.Wake(slot, at) })
		h.SetWakeHook(func(at timing.PS) { dramDom.Wake(slot, at) })
		nslot := m.nsuDomain.AttachScheduled(m.nsus[i])
		m.nsus[i].SetWakeHook(func(at timing.PS) { m.nsuDomain.Wake(nslot, at) })
	}
	m.smDomain.Attach(swapTicker{m})
	if cfg.Fault.Enabled() {
		inj := fault.New(cfg.Fault, cfg.NumHMCs, cfg.HMC.NumVaults, fab.Dims(), fab.Ring())
		m.flt = inj
		fab.SetFault(inj)
		timeout, retries := cfg.Fault.EffTimeoutCycles(), cfg.Fault.EffMaxRetries()
		m.g.SetFault(inj, timeout, retries)
		// An NSU-side warp only aborts well after the GPU's whole retry
		// window has elapsed, so an abort implies the GPU has already
		// fallen back and quarantined the stack.
		smPeriod := timing.PeriodFromMHz(cfg.GPU.SMClockMHz)
		abortPS := 2 * timing.PS(fault.TotalWindow(timeout, retries)) * smPeriod
		for i := range m.hmcs {
			m.hmcs[i].SetFault(inj)
			m.nsus[i].SetFault(inj, abortPS)
		}
	}
	return m, nil
}

// swapTicker drives serviceSwaps on the SM clock: with no pending swaps the
// ticker is fully drained, otherwise the swap-completion conditions must be
// re-checked every cycle.
type swapTicker struct{ m *Machine }

// Tick implements timing.Ticker.
func (t swapTicker) Tick(now timing.PS) { t.m.serviceSwaps(now) }

// NextWorkAt implements timing.Ticker.
func (t swapTicker) NextWorkAt(now timing.PS) timing.PS {
	if len(t.m.swaps) == 0 {
		return timing.Never
	}
	return now
}

// SetIdleSkip toggles the engine's idle skipping and the SMs' parking for
// this machine (on by default). With it off the engine fires every clock
// edge densely, every SM ticks on every edge and every NSU runs its full
// walk on every NSU edge — the reference behaviour the differential tests
// compare against.
func (m *Machine) SetIdleSkip(on bool) {
	m.engine.SetIdleSkip(on)
	m.g.SetIdleSkip(on)
}

// SetWakeCheck toggles the engine's parked-ticker verification mode: every
// elided scheduled ticker is re-polled live at each fired edge, and a parked
// component that reports due work panics immediately — catching a missed
// external re-arm at the edge where it would first diverge. Used by the
// equivalence suites; too expensive for normal runs.
func (m *Machine) SetWakeCheck(on bool) { m.engine.SetWakeCheck(on) }

// EnableAudit attaches the invariant auditor to every layer of the machine:
// the fabric (packet conservation, offload-protocol legality), every DRAM
// vault (bank-state legality), and machine-level checks for credit
// conservation, cache statistic consistency, and energy-counter
// monotonicity. The per-cycle checks run on fired SM edges (idle skipping is
// preserved: a skipped edge cannot change state) and once more at drain.
// Call before Run; idempotent. The returned auditor holds the violations.
func (m *Machine) EnableAudit() *audit.Auditor {
	if m.aud != nil {
		return m.aud
	}
	a := audit.New()
	m.aud = a
	na := audit.NewNetwork(a, m.fab.Diameter())
	if m.flt != nil {
		// Under fault injection packets may legally drop, retransmit, or
		// detour around dead links; the lossy audit accounts for those.
		na.SetLossy(m.fab.DetourBound())
	}
	m.fab.SetAudit(na)
	for _, h := range m.hmcs {
		h.EnableAudit(a)
	}
	m.registerCreditCheck(a)
	m.registerCacheCheck(a)
	m.registerStatsCheck(a)
	m.smDomain.Attach(a.Ticker())
	return a
}

// Auditor returns the attached auditor, or nil when auditing is disabled.
func (m *Machine) Auditor() *audit.Auditor { return m.aud }

// registerCreditCheck audits §4.3 credit conservation at every NSU link:
// credits stay within [0, capacity], NSU-side buffer occupancy never exceeds
// either the configured capacity or the credits the GPU holds outstanding,
// and at drain every credit is back home with no entry left in any buffer.
func (m *Machine) registerCreditCheck(a *audit.Auditor) {
	bm := m.g.BufferManager()
	caps := [3]int{m.Cfg.NSU.CmdEntries, m.Cfg.NSU.ReadDataEntries, m.Cfg.NSU.WriteAddrEntries}
	kinds := [3]core.BufferKind{core.CmdBuffer, core.ReadDataBuffer, core.WriteAddrBuffer}
	a.Register("credit-conservation", func(now timing.PS, final bool) {
		for t := 0; t < bm.NumTargets(); t++ {
			if bm.Quarantined(t) {
				continue // written off: its credits are unaccountable
			}
			var occ [3]int
			occ[0], occ[1], occ[2] = m.nsus[t].BufferOccupancy()
			for i, k := range kinds {
				avail := bm.Available(t, k)
				if avail < 0 || avail > bm.Initial(k) {
					a.Reportf(now, fmt.Sprintf("nsu%d", t), "credit-conservation",
						"%v credits %d outside [0,%d]", k, avail, bm.Initial(k))
				}
				if occ[i] > caps[i] {
					a.Reportf(now, fmt.Sprintf("nsu%d", t), "credit-conservation",
						"%v buffer holds %d entries, capacity %d", k, occ[i], caps[i])
				}
				if outstanding := bm.Initial(k) - avail; occ[i] > outstanding {
					a.Reportf(now, fmt.Sprintf("nsu%d", t), "credit-conservation",
						"%v buffer holds %d entries but only %d credits are outstanding",
						k, occ[i], outstanding)
				}
				if final && occ[i] > 0 {
					a.Reportf(now, fmt.Sprintf("nsu%d", t), "credit-conservation",
						"%v buffer holds %d entries at drain", k, occ[i])
				}
			}
		}
		if final && !bm.AllReturned() {
			a.Reportf(now, "gpu", "credit-conservation", "credits not fully returned at drain")
		}
	})
}

// registerCacheCheck audits cache statistic consistency on every cache in
// the GPU: hits never exceed accesses (so hits + misses == accesses holds
// with non-negative misses), evictions never exceed fills, MSHR occupancy
// stays within capacity, and no MSHR entry survives the drain.
func (m *Machine) registerCacheCheck(a *audit.Auditor) {
	type entry struct {
		name string
		c    *cache.Cache
	}
	var caches []entry
	m.g.ForEachCache(func(name string, c *cache.Cache) {
		caches = append(caches, entry{name, c})
	})
	a.Register("cache-consistency", func(now timing.PS, final bool) {
		for _, e := range caches {
			st := e.c.Stats
			if st.Hits < 0 || st.Hits > st.Accesses {
				a.Reportf(now, e.name, "cache-consistency",
					"hits %d outside [0, accesses %d]", st.Hits, st.Accesses)
			}
			if st.Evictions > st.Fills {
				a.Reportf(now, e.name, "cache-consistency",
					"evictions %d exceed fills %d", st.Evictions, st.Fills)
			}
			if inflight := e.c.MSHRInFlight(); inflight > e.c.MSHRCapacity() {
				a.Reportf(now, e.name, "cache-consistency",
					"%d MSHR entries in flight, capacity %d", inflight, e.c.MSHRCapacity())
			}
			if final && e.c.MSHRInFlight() != 0 {
				a.Reportf(now, e.name, "cache-consistency",
					"%d MSHR entries leaked at drain", e.c.MSHRInFlight())
			}
		}
	})
}

// energyCounters snapshots the statistics counters the energy model
// integrates over; each must be monotonically non-decreasing over the run.
var energyCounterNames = [...]string{
	"IssuedInstrs", "IssuedThreadOps", "NSUInstrs", "NSUWarpsSpawned",
	"Traffic[GPULink]", "Traffic[MemNet]", "Traffic[IntraHMC]", "InvalBytes",
	"OffloadCmdPackets", "RDFPackets", "WTAPackets", "RDFRespPackets",
	"AckPackets", "InvalPackets",
}

func (m *Machine) energyCounters() [len(energyCounterNames)]int64 {
	st := m.St
	return [...]int64{
		st.IssuedInstrs, st.IssuedThreadOps, st.NSUInstrs, st.NSUWarpsSpawned,
		st.Traffic[stats.GPULink], st.Traffic[stats.MemNet], st.Traffic[stats.IntraHMC],
		st.InvalBytes,
		st.OffloadCmdPackets, st.RDFPackets, st.WTAPackets, st.RDFRespPackets,
		st.AckPackets, st.InvalPackets,
	}
}

// registerStatsCheck audits energy-counter monotonicity: the counters the
// energy model integrates over only ever grow.
func (m *Machine) registerStatsCheck(a *audit.Auditor) {
	prev := m.energyCounters()
	a.Register("energy-counter-monotonic", func(now timing.PS, final bool) {
		cur := m.energyCounters()
		for i, v := range cur {
			if v < prev[i] {
				a.Reportf(now, "stats", "energy-counter-monotonic",
					"%s decreased %d -> %d", energyCounterNames[i], prev[i], v)
			}
		}
		prev = cur
	})
}

// RequestPageSwap schedules a migration of the page holding addr to stack
// newHome (§4.1.1 dynamic memory management). The swap completes at the
// first cycle where the involved stacks have no in-flight WTA packets and
// no line fills for the page are outstanding; other pages proceed
// unaffected throughout. The functional contents are unchanged — only the
// physical placement moves, as with a swap whose transfer latency overlaps
// the external-interface fetch.
func (m *Machine) RequestPageSwap(addr uint64, newHome int) {
	page := addr &^ (uint64(m.Cfg.Mem.PageBytes) - 1)
	m.swaps = append(m.swaps, &pageSwap{
		pageBase: page,
		oldHome:  m.Mem.HMCOf(page),
		newHome:  newHome,
	})
}

// PendingSwaps returns the number of swaps not yet performed.
func (m *Machine) PendingSwaps() int { return len(m.swaps) }

func (m *Machine) serviceSwaps(now timing.PS) {
	if len(m.swaps) == 0 {
		return
	}
	kept := m.swaps[:0]
	for _, sw := range m.swaps {
		if m.g.WTAInflight(sw.oldHome) > 0 || m.g.WTAInflight(sw.newHome) > 0 ||
			m.g.PageFillsOutstanding(sw.pageBase, m.Cfg.Mem.PageBytes) {
			kept = append(kept, sw)
			continue
		}
		m.Mem.PlacePage(sw.pageBase, sw.newHome)
		m.SwapsDone++
	}
	if len(kept) < len(m.swaps) {
		m.g.DropPicks()
	}
	m.swaps = kept
}

// Launch builds the program, decider, and machine for a kernel in one step.
// The page placement of the architecture backend named by cfg.Arch.Backend
// runs first, so the machine is built over the selected design point's
// layout. The default backend ("paper") leaves the placement as it is.
func Launch(cfg config.Config, k *kernel.Kernel, mem *vm.System, mode Mode) (*Machine, error) {
	if err := backend.Place(cfg, k, mem); err != nil {
		return nil, err
	}
	prog, err := BuildProgram(k, mode)
	if err != nil {
		return nil, err
	}
	dec := NewDecider(cfg, prog, mode)
	return New(cfg, prog, mem, dec)
}

// done reports full-system quiescence.
func (m *Machine) done() bool {
	if !m.g.Done() || !m.fab.Quiesced() {
		return false
	}
	for _, h := range m.hmcs {
		if h.Busy() {
			return false
		}
	}
	for _, n := range m.nsus {
		if n.Busy(m.engine.Now()) {
			return false
		}
	}
	return true
}

// DefaultLimitPS bounds a run to one simulated second — far beyond any
// scaled workload; hitting it means livelock.
const DefaultLimitPS = timing.PS(1e12)

// ErrCanceled reports a run stopped by Machine.Cancel before quiescence.
var ErrCanceled = errors.New("sim: run canceled")

// Cancel requests a cooperative stop of a running machine: the tick engine
// exits at its next step boundary and Run
// returns an error wrapping ErrCanceled. Cancel is the one Machine method
// safe to call from another goroutine — it is how a service watchdog unwedges
// a hung or runaway simulation without corrupting its state.
func (m *Machine) Cancel() { m.engine.Cancel() }

// Run executes the kernel to completion (or the time limit) and returns the
// collected results. Run may only be called once per Machine.
func (m *Machine) Run(limitPS timing.PS) (*Result, error) {
	if limitPS <= 0 {
		limitPS = DefaultLimitPS
	}
	_, ok := m.engine.RunUntil(m.done, limitPS)
	m.finalize()
	if m.aud != nil && !(m.engine.Canceled() && !ok) {
		m.aud.RunChecks(m.engine.Now(), true)
	}
	res := &Result{Stats: m.St, Cycles: m.St.SMCycles, TimePS: m.St.ElapsedPS, TimedOut: !ok}
	if !ok {
		if m.engine.Canceled() {
			return res, fmt.Errorf("%w at %d ps", ErrCanceled, m.engine.Now())
		}
		return res, fmt.Errorf("sim: run exceeded %d ps without quiescing", limitPS)
	}
	if !m.g.BufferManager().AllReturned() {
		return res, fmt.Errorf("sim: NDP buffer credits not fully returned at quiescence")
	}
	return res, nil
}

func (m *Machine) finalize() {
	// The metrics collector takes its final sample before anything below
	// mutates the bundle.
	if m.mc != nil {
		m.mc.Final(m.engine.Now())
	}
	// Components charge the cycles they slept through themselves; settle
	// each through the run's last edge of its domain.
	m.St.SMCycles = m.smDomain.Cycles
	m.St.NSUCycles = m.nsuDomain.Cycles
	m.St.ElapsedPS = m.engine.Now()
	m.g.CollectCacheStats(m.St.SMCycles)
	for _, h := range m.hmcs {
		vs := h.VaultStats(m.dramCycle(m.engine.Now()))
		m.St.DRAMReads += vs.Reads
		m.St.DRAMWrites += vs.Writes
		m.St.DRAMActivations += vs.Activations
		m.St.DRAMRowHits += vs.RowHits
	}
	for _, n := range m.nsus {
		n.CatchUp(m.St.NSUCycles)
		m.St.SetNSUICode(n.ID, n.ICodeBytes())
	}
}

// dramCycle returns the DRAM cycle whose edge is at or last before t.
func (m *Machine) dramCycle(t timing.PS) int64 { return int64(t / timing.PS(m.Cfg.HMC.TCKps)) }

// GPU exposes the GPU for white-box tests (WTA in-flight counters, etc.).
func (m *Machine) GPU() *gpu.GPU { return m.g }

// Fabric exposes the interconnect, e.g. to install a packet tracer.
func (m *Machine) Fabric() *noc.Fabric { return m.fab }

// NSUs exposes the NSUs for occupancy inspection.
func (m *Machine) NSUs() []*nsu.NSU { return m.nsus }
