package gpu

import (
	"fmt"
	"math/bits"

	"ndpgpu/internal/cache"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
)

const inf = timing.PS(1) << 62

// ctaState tracks one resident thread block.
type ctaState struct {
	id      int
	live    int // non-exited warps
	arrived int // warps waiting at the barrier
	warps   []*warp
}

// offCtx is the SM-side state of one in-flight offloaded block instance.
type offCtx struct {
	block       *coreBlock
	id          core.OffloadID
	target      int
	targetKnown bool
	seqLD       int
	seqST       int
	began       timing.PS // OFLDBEG issue time, for ack-latency accounting
	cmdBytes    int       // command-packet register payload, for transfer profiling
	// ack holds an acknowledgment that arrived before the warp reached
	// OFLD.END (the NSU can finish as soon as the last RDF response lands,
	// while the GPU is still walking the block). It is applied when the
	// warp executes OFLD.END.
	ack *core.AckPacket

	// Resilient-protocol state, used only under fault injection. tag carries
	// the instance/attempt sequence numbers for duplicate suppression;
	// deadline is the current attempt's ack timeout; regSnap preserves the
	// register file at OFLDBEG so a retry or host fallback can re-execute
	// the block from unclobbered live-ins.
	tag      core.ProtoTag
	deadline timing.PS
	regSnap  *[isa.NumRegs][core.WarpWidth]uint64
}

// offSpan records one completed offload round trip (OFLDBEG issue to ack
// application) for the metrics layer's duration-event export.
type offSpan struct {
	warp  int
	block int
	start timing.PS
	dur   timing.PS
}

// coreBlock caches the analyzer block plus derived info the SM needs often.
type coreBlock struct {
	id          int
	begPC       int
	endPC       int
	numLD       int
	numST       int
	regsIn      []isa.Reg
	regsOut     []isa.Reg
	instrs      int // region instruction count (Table 1 metric + epoch IPC)
	indirect    bool
	nsuCodeSize int // bytes, for NSU I-cache accounting
}

// microOp is one coalesced line access of an in-flight memory instruction.
type microOp struct {
	access  core.LineAccess
	isStore bool
	dst     isa.Reg                // load destination
	offload bool                   // partitioned-execution semantics (RDF/WTA)
	seq     int                    // memory-instruction sequence number within the block
	total   int                    // packets generated for this instruction
	readyAt timing.PS              // earliest service time (TLB page-walk penalty)
	data    [core.WarpWidth]uint32 // store data (baseline mode)
}

// warp is one hardware warp context.
type warp struct {
	slot int
	cta  *ctaState

	pc        int
	mask      uint32
	exited    bool
	atBarrier bool
	waitAck   bool

	regs        [isa.NumRegs][core.WarpWidth]uint64
	regReady    [isa.NumRegs]timing.PS
	outstanding [isa.NumRegs]int16

	memq    []microOp
	memqBuf []microOp // backing array reused across memory instructions

	off      *offCtx // non-nil while inside an offloaded block instance
	inRegion bool    // inside a block executing normally (not offloaded)
	regionID int

	// fetchUntil stalls issue while the instruction line is fetched into
	// the L1I (Table 2: 4 KB, 4-way). Kernel footprints are small, so this
	// matters only for cold starts.
	fetchUntil timing.PS
}

type loadWaiter struct {
	w   *warp
	dst isa.Reg
}

// SM is one streaming multiprocessor.
type SM struct {
	id int
	g  *GPU

	l1      *cache.Cache
	l1i     *cache.Cache
	tlb     *cache.Cache
	waiters map[uint64][]loadWaiter

	warps []*warp // slot -> warp (nil when free)
	ctas  []*ctaState

	// freeWarps recycles exited warp contexts: the per-warp register file
	// dominates the simulator's allocation profile, so refill reuses retired
	// structs instead of allocating. A warp is only pooled once nothing can
	// reference it — no offload context and no outstanding L1 fills (a fill
	// waiter holds the warp pointer until the line lands).
	freeWarps []*warp

	readyQ   []outPkt // ready packet buffer (drained 1/cycle to the fabric)
	pendingQ []outPkt // pending packet buffer (target not yet known)

	// Per-cycle issue resources.
	aluUsed, lsuUsed, issued int
	sawExecBlock             bool
	sawDepBlock              bool
	sawCreditBlock           bool

	// Warp scheduling state: the greedy warp for GTO, the rotation point
	// for round-robin.
	greedyWarp int
	rrStart    int
	order      []int // scratch for schedOrder
	orderKey   int   // greedyWarp (gto) or rrStart (rr) the order was built for

	// live lists the slots holding non-exited warps in ascending order, so
	// the dense tick visits only occupied slots instead of scanning the whole
	// warp array. Launches and exits mark it dirty; the next dense tick
	// rebuilds it (stale entries are re-screened, so a mid-tick exit is
	// harmless).
	live      []int
	liveDirty bool

	// Per-slot dense-tick block cache: while slotWake[slot] > now, the warp's
	// tick reduces to its fixed per-cycle effects — a dependency-stall flag,
	// plus (slotProbe) the L1I re-probe a scoreboard-blocked warp performs —
	// without decoding or rescanning the scoreboard. Entries are written by
	// processMemq (translation wait, no probe) and tryIssue (scoreboard
	// block, probe) and cleared whenever the blocking condition can lift
	// early: a load-line completion, an ack write-back, or any L1I fill
	// (which could evict the probed code line).
	// slotLine mirrors the blocked warp's fetch line so the replay never has
	// to dereference the (large, cache-unfriendly) warp struct at all.
	slotWake  []timing.PS
	slotProbe []bool
	slotLine  []uint64

	// Hot-path scratch buffers, reused across cycles so the per-instruction
	// work allocates nothing: refill's free-slot scan, coalesce's line list,
	// and setupMem's per-line home vaults.
	freeScratch  []int
	lineScratch  []core.LineAccess
	homesScratch []int

	// Idle-skip mirror cache (see computeIdle). Valid until the SM runs a
	// full tick or an external event (ack delivery, L1 fill) dirties it.
	idleValid bool
	idleWake  timing.PS
	idleKind  int8   // stats.StallKind an idle cycle records, or -1 for none
	idleLk    []bool // per slot: warp re-probes the L1I every blocked cycle
	idleLkN   int64  // number of set idleLk flags
	idleLkSch []int  // slots with set flags, in certification-time sched order

	// pendingIdle counts certified-idle cycles whose per-cycle effects have
	// not been applied yet. Idle ticks and domain-level skips only increment
	// it; flushIdle replays the batch before anything can observe the
	// affected state (a dense tick, a mirror-dirtying event, finalization).
	pendingIdle int64

	// seenCycle is the last GPU cycle this SM accounted for. The engine's
	// wake scheduling advances the global cycle counter without visiting
	// parked SMs, so each visit (or mirror-dirtying event) first folds the
	// unvisited gap — all provably idle cycles — into pendingIdle via
	// creditIdle.
	seenCycle int64

	// instSeq numbers offload instances per warp slot (monotonic across CTA
	// reuse of the slot), feeding the duplicate-suppression tags of the
	// resilient offload protocol. Only advanced under fault injection.
	instSeq []int32

	st *stats.Stats // the GPU's statistics bundle

	// regionInstrs accumulates offload-region instructions (SM tick and
	// crossbar-domain ack deliveries); GPU.Tick folds it into the epoch
	// counter before every epoch check.
	regionInstrs int64

	// mSeen/mSent mirror the offload decision counters for the metrics
	// sampler. They are unconditional plain adds (not gated on a collector)
	// so enabling metrics cannot change simulation behavior.
	mSeen int64
	mSent int64

	// spans buffers completed offload round trips for the metrics span sink;
	// GPU.drainSpans empties it in SM index order each tick. nil-capacity
	// and never appended to while no sink is attached.
	spans []offSpan

	// maxCTAs memoizes maxResidentCTAs — every input is a kernel constant.
	maxCTAs      int
	maxCTAsValid bool

	// smem backs the functional scratchpad of resident CTAs, keyed by CTA
	// id.
	smem map[int]map[uint64]uint32
}

// outPkt is a packet waiting in the SM's NDP packet buffers.
type outPkt struct {
	target int
	size   int
	msg    any
}

func newSM(g *GPU, id int) *SM {
	tlbGeom := config.CacheGeom{
		SizeBytes: g.cfg.GPU.TLBEntries * g.cfg.Mem.PageBytes,
		Ways:      g.cfg.GPU.TLBWays,
		LineBytes: g.cfg.Mem.PageBytes,
		MSHRs:     1,
	}
	return &SM{
		id:        id,
		g:         g,
		st:        g.st,
		l1:        cache.New(g.cfg.GPU.L1D),
		l1i:       cache.New(g.cfg.GPU.L1I),
		tlb:       cache.New(tlbGeom),
		waiters:   make(map[uint64][]loadWaiter),
		warps:     make([]*warp, g.cfg.WarpsPerSM()),
		idleLk:    make([]bool, g.cfg.WarpsPerSM()),
		slotWake:  make([]timing.PS, g.cfg.WarpsPerSM()),
		slotProbe: make([]bool, g.cfg.WarpsPerSM()),
		slotLine:  make([]uint64, g.cfg.WarpsPerSM()),
		instSeq:   make([]int32, g.cfg.WarpsPerSM()),
		smem:      make(map[int]map[uint64]uint32),
	}
}

// maxResidentCTAs computes the CTA occupancy limit for the kernel.
func (s *SM) maxResidentCTAs() int {
	k := s.g.prog.Kernel
	c := s.g.cfg.GPU
	warpsPerCTA := (k.BlockDim + c.WarpWidth - 1) / c.WarpWidth
	limit := c.MaxCTAsPerSM
	if byThreads := c.MaxThreadsPerSM / k.BlockDim; byThreads < limit {
		limit = byThreads
	}
	regsPerCTA := k.RegsUsed * k.BlockDim
	if regsPerCTA > 0 {
		if byRegs := c.MaxRegsPerSM / regsPerCTA; byRegs < limit {
			limit = byRegs
		}
	}
	if k.SmemBytes > 0 {
		if bySmem := c.ScratchpadBytes / k.SmemBytes; bySmem < limit {
			limit = bySmem
		}
	}
	if bySlots := len(s.warps) / warpsPerCTA; bySlots < limit {
		limit = bySlots
	}
	return limit
}

// maxCTAsCached memoizes maxResidentCTAs: every input is a kernel constant,
// and both refill and idle certification consult it every dense cycle.
func (s *SM) maxCTAsCached() int {
	if !s.maxCTAsValid {
		s.maxCTAs = s.maxResidentCTAs()
		s.maxCTAsValid = true
	}
	return s.maxCTAs
}

// pushL2 hands an L2-slice request to its slice and re-arms the crossbar
// ticker, which the request gives work.
func (s *SM) pushL2(r *l2Req) {
	s.g.sliceFor(r.line).push(r)
	if s.g.onXbarWake != nil {
		s.g.onXbarWake()
	}
}

// recordInstance and recordTransfer feed the cache-aware decider's runtime
// profile, when one is attached.
func (s *SM) recordInstance(blockID int) {
	if s.g.rec != nil {
		s.g.rec.RecordInstance(blockID)
	}
}

func (s *SM) recordTransfer(blockID, bytes int) {
	if s.g.rec != nil {
		s.g.rec.RecordTransfer(blockID, bytes)
	}
}

// smemFor returns the functional scratchpad storage of a resident CTA.
func (s *SM) smemFor(ctaID int) map[uint64]uint32 {
	m, ok := s.smem[ctaID]
	if !ok {
		m = make(map[uint64]uint32)
		s.smem[ctaID] = m
	}
	return m
}

// refill launches new CTAs into free slots, at most one per cycle (the
// hardware work distributor's launch rate), which also spreads the grid
// across all SMs instead of front-loading the first ones.
func (s *SM) refill() {
	k := s.g.prog.Kernel
	warpsPerCTA := (k.BlockDim + s.g.cfg.GPU.WarpWidth - 1) / s.g.cfg.GPU.WarpWidth
	limit := s.maxCTAsCached()
	if len(s.ctas) < limit && s.g.nextCTA < k.GridDim {
		// Find contiguous-enough free slots.
		free := s.freeScratch[:0]
		for slot := range s.warps {
			if s.warps[slot] == nil {
				free = append(free, slot)
				if len(free) == warpsPerCTA {
					break
				}
			}
		}
		if len(free) < warpsPerCTA {
			s.freeScratch = free[:0]
			return
		}
		ctaID := s.g.nextCTA
		s.g.nextCTA++
		cta := &ctaState{id: ctaID, live: warpsPerCTA}
		for wi := 0; wi < warpsPerCTA; wi++ {
			var w *warp
			if n := len(s.freeWarps); n > 0 {
				w = s.freeWarps[n-1]
				s.freeWarps[n-1] = nil
				s.freeWarps = s.freeWarps[:n-1]
				// Reset to fresh-allocation state; the whole-struct assignment
				// zeroes the register file and scoreboard. The memq backing
				// array survives — entries are written whole before use.
				buf := w.memqBuf[:0]
				*w = warp{slot: free[wi], cta: cta, memqBuf: buf}
			} else {
				w = &warp{slot: free[wi], cta: cta}
			}
			s.initWarp(w, ctaID, wi)
			s.warps[free[wi]] = w
			s.slotWake[free[wi]] = 0
			cta.warps = append(cta.warps, w)
		}
		s.freeScratch = free[:0]
		s.ctas = append(s.ctas, cta)
		s.liveDirty = true
	}
}

// initWarp sets up the ABI registers (see package kernel).
func (s *SM) initWarp(w *warp, ctaID, warpInCTA int) {
	k := s.g.prog.Kernel
	ww := s.g.cfg.GPU.WarpWidth
	base := warpInCTA * ww
	var mask uint32
	for t := 0; t < ww; t++ {
		tid := base + t
		if tid >= k.BlockDim {
			break
		}
		mask |= 1 << uint(t)
		gtid := ctaID*k.BlockDim + tid
		w.regs[kernel.RegGTID][t] = uint64(gtid)
		w.regs[kernel.RegCTAID][t] = uint64(ctaID)
		w.regs[kernel.RegTID][t] = uint64(tid)
		w.regs[kernel.RegNTID][t] = uint64(k.BlockDim)
		for p, v := range k.Params {
			w.regs[int(kernel.RegParam0)+p][t] = v
		}
	}
	w.mask = mask
}

// tick advances the SM by one core clock.
func (s *SM) tick(now timing.PS) {
	c := s.g.cycles
	if s.idleValid && s.idleWake > now {
		// A prior computeIdle certified that nothing can issue strictly
		// before idleWake and no external event has dirtied the mirror: the
		// cycle's effects are deferred until something can observe them. The
		// credit covers this edge plus any the engine advanced past while the
		// SM was parked — all provably idle for the same reason.
		s.pendingIdle += c - s.seenCycle
		s.seenCycle = c
		return
	}
	if gap := c - 1 - s.seenCycle; gap > 0 {
		// Edges elided while this SM was parked; this edge runs densely.
		s.pendingIdle += gap
	}
	s.seenCycle = c
	s.flushIdle()
	s.idleValid = false
	preCTA := s.g.nextCTA
	s.refill()
	launched := s.g.nextCTA != preCTA
	if !launched && len(s.readyQ) == 0 {
		// Certify-first: decide from the mirror whether this tick could do
		// anything beyond a blocked cycle's fixed effects. If it is provably
		// empty, defer it like any other idle cycle instead of paying the
		// dense per-warp walk — skipIdle's batched replay is bit-identical
		// to the walk (same stall class, same L1I probe set in the same
		// visit order, same final LRU stamps). A busy verdict leaves
		// idleWake=now and the dense walk proceeds as before; the scan exits
		// on the first busy warp, so busy ticks pay only a short prefix.
		s.computeIdle(now)
		if s.idleWake > now {
			s.pendingIdle++
			return
		}
		s.idleValid = false
	}
	s.aluUsed, s.lsuUsed, s.issued = 0, 0, 0
	s.sawExecBlock, s.sawDepBlock, s.sawCreditBlock = false, false, false

	sent := len(s.readyQ) > 0
	s.drainReady(now)

	if s.liveDirty {
		s.rebuildLive()
	}
	anyLive := false
	if s.g.cfg.GPU.SchedulerKind == "rr" {
		for _, slot := range s.schedOrder() {
			w := s.warps[slot]
			if w == nil || w.exited {
				continue
			}
			anyLive = true
			s.stepSlot(w, slot, now)
		}
		s.rrStart = (s.rrStart + 1) % len(s.warps)
	} else {
		// GTO: greedy slot first, then the live slots in ascending order —
		// the same visit sequence schedOrder produces, without touching the
		// empty and exited slots.
		// A slot with a live block-cache entry necessarily holds a live,
		// non-barrier, non-ack warp (blocked warps cannot exit and exiting
		// warps never leave an entry behind), so the replay runs off the
		// SM-local slot arrays without dereferencing the warp at all.
		gslot := s.greedyWarp
		if s.slotWake[gslot] > now {
			anyLive = true
			s.blockedReplay(gslot)
		} else if w := s.warps[gslot]; w != nil && !w.exited {
			anyLive = true
			s.stepSlot(w, gslot, now)
		}
		for _, slot := range s.live {
			if slot == gslot {
				continue
			}
			if s.slotWake[slot] > now {
				anyLive = true
				s.blockedReplay(slot)
				continue
			}
			w := s.warps[slot]
			if w == nil || w.exited {
				continue
			}
			anyLive = true
			s.stepSlot(w, slot, now)
		}
	}

	if s.issued > 0 {
		s.st.IssueCycles++
		return
	}
	switch {
	case !anyLive:
		if s.g.nextCTA < s.g.prog.Kernel.GridDim {
			s.st.AddNoIssue(stats.WarpIdle)
		}
	case s.sawExecBlock:
		s.st.AddNoIssue(stats.ExecUnitBusy)
	case s.sawDepBlock:
		s.st.AddNoIssue(stats.DependencyStall)
	default:
		// Warps blocked on offload acknowledgments or NSU buffer credits
		// have no issuable instruction: the paper's "warp idle" class.
		s.st.AddNoIssue(stats.WarpIdle)
	}
	if !launched && !sent && s.lsuUsed == 0 {
		// The tick issued nothing, launched nothing, sent nothing, and served
		// no memory micro-op: certify (and cache) how long this idleness
		// lasts, so the following empty ticks reduce to skipIdle(1) and the
		// engine can fast-forward the domain when every SM agrees.
		s.computeIdle(now)
	}
}

// stepSlot runs the per-warp portion of a dense tick for one live warp.
func (s *SM) stepSlot(w *warp, slot int, now timing.PS) {
	if w.atBarrier || w.waitAck {
		if w.waitAck && s.g.flt != nil && now > w.off.deadline {
			s.handleTimeout(w, now)
		}
		return
	}
	if s.slotWake[slot] > now {
		s.blockedReplay(slot)
		return
	}
	if len(w.memq) > 0 {
		s.processMemq(w, now)
		return
	}
	if s.issued >= s.g.cfg.GPU.MaxIssue {
		return
	}
	before := s.issued
	s.tryIssue(w, now)
	if s.issued > before {
		s.greedyWarp = slot
	}
}

// blockedReplay applies the cached per-cycle effects of a blocked warp: the
// stall-classification flag, plus (slotProbe) the L1I re-probe a
// scoreboard-blocked warp performs while the issue width is not exhausted —
// a certified hit, since any fill since certification cleared the entry. A
// translation-wait warp (no probe) follows processMemq's classification:
// saturated LSUs read as an execution-unit block, otherwise the wait is a
// dependency stall.
func (s *SM) blockedReplay(slot int) {
	if !s.slotProbe[slot] {
		if s.lsuUsed >= s.g.cfg.GPU.NumLSUs {
			s.sawExecBlock = true
		} else {
			s.sawDepBlock = true
		}
		return
	}
	if s.issued >= s.g.cfg.GPU.MaxIssue {
		return
	}
	s.l1i.Lookup(s.slotLine[slot])
	s.sawDepBlock = true
}

// rebuildLive refreshes the ascending list of slots holding live warps.
func (s *SM) rebuildLive() {
	s.live = s.live[:0]
	for slot, w := range s.warps {
		if w != nil && !w.exited {
			s.live = append(s.live, slot)
		}
	}
	s.liveDirty = false
}

// nextWorkAt returns the earliest time this SM could do anything other than
// a provably empty tick. It is a pure read of the mirror cache: certification
// happens as a byproduct of an empty dense tick (see tick), so an SM whose
// mirror is invalid — it just did work, or an external event dirtied it —
// reads as busy and simply runs its next tick densely.
func (s *SM) nextWorkAt(now timing.PS) timing.PS {
	if !s.idleValid {
		return now
	}
	return s.idleWake
}

// computeIdle is a side-effect-free mirror of tick: it decides whether the
// next tick would mutate anything beyond the fixed per-cycle effects of a
// blocked cycle (the no-issue stall classification, the L1I re-probes of
// scoreboard-blocked warps, and the round-robin rotation). On a busy result
// it records wake=now and leaves the previous idle profile untouched — a
// busy evaluation never feeds skipIdle. On an idle result it records the
// wake time (earliest scoreboard release, fetch completion, or translation
// completion) plus the per-cycle profile skipIdle replays.
func (s *SM) computeIdle(now timing.PS) {
	g := s.g
	k := g.prog.Kernel
	// Busy if refill would launch a CTA this cycle.
	if g.nextCTA < k.GridDim && len(s.ctas) < s.maxCTAsCached() {
		warpsPerCTA := (k.BlockDim + g.cfg.GPU.WarpWidth - 1) / g.cfg.GPU.WarpWidth
		free := 0
		for _, w := range s.warps {
			if w == nil {
				free++
				if free == warpsPerCTA {
					break
				}
			}
		}
		if free >= warpsPerCTA {
			s.idleValid, s.idleWake = true, now // busy
			return
		}
	}
	// drainReady would push a packet onto the fabric.
	if len(s.readyQ) > 0 {
		s.idleValid, s.idleWake = true, now // busy
		return
	}
	wake := timing.Never
	anyLive, anyDep := false, false
	s.idleLkN = 0
	s.idleLkSch = s.idleLkSch[:0]
	// Visit warps in scheduling order: on a busy SM the greedy warp is the
	// likeliest issuer, so the scan exits after one or two warps instead of
	// wading through every blocked warp first. The visit order is also the
	// replay order skipIdle needs under GTO (frozen while the SM is idle,
	// since greedyWarp only moves on an issue).
	for _, slot := range s.schedOrder() {
		s.idleLk[slot] = false
		if sw := s.slotWake[slot]; sw > now {
			// The block cache already certifies this warp's verdict (it holds
			// a live, non-barrier warp — see tick): blocked until sw, probing
			// the L1I each cycle iff slotProbe. No decode needed.
			anyLive, anyDep = true, true
			if s.slotProbe[slot] {
				s.idleLk[slot] = true
				s.idleLkN++
				s.idleLkSch = append(s.idleLkSch, slot)
			}
			if sw != inf && sw < wake {
				wake = sw
			}
			continue
		}
		w := s.warps[slot]
		if w == nil || w.exited {
			continue
		}
		anyLive = true
		if w.atBarrier || w.waitAck {
			// Released by another warp's issue or by an ack delivery — both
			// dirty the mirror; no self-wake. Under fault injection a waiting
			// warp also self-wakes at its ack-timeout deadline.
			if w.waitAck && s.g.flt != nil {
				if now > w.off.deadline {
					s.idleValid, s.idleWake = true, now // busy: timeout due
					return
				}
				if w.off.deadline+1 < wake {
					wake = w.off.deadline + 1
				}
			}
			continue
		}
		if len(w.memq) > 0 {
			if at := w.memq[0].readyAt; at > now {
				anyDep = true // processMemq charges a dependency stall
				if TraceGTID < 0 {
					s.slotWake[slot] = at
					s.slotProbe[slot] = false
				}
				if at < wake {
					wake = at
				}
				continue
			}
			s.idleValid, s.idleWake = true, now // busy: a micro-op is served
			return
		}
		if w.fetchUntil > now {
			// Fetch in flight: tryIssue returns before the L1I probe and
			// sets no stall flag.
			if w.fetchUntil < wake {
				wake = w.fetchUntil
			}
			continue
		}
		iline := uint64(w.pc) * isa.InstrBytes
		if !s.l1i.Contains(iline) {
			s.idleValid, s.idleWake = true, now // busy: probe misses, fill starts
			return
		}
		in := k.Code[w.pc]
		if w.off != nil && in.AtNSU {
			s.idleValid, s.idleWake = true, now // busy: skip consumes an issue slot
			return
		}
		// Scoreboard, read-only. The warp issues once every gating register
		// is ready; registers with outstanding fills are released by fillL1,
		// which dirties the mirror.
		var gate [5]isa.Reg
		ng := 0
		for i := 0; i < in.Op.SrcCount(); i++ {
			gate[ng] = in.Src[i]
			ng++
		}
		gate[ng] = in.Pred
		ng++
		if in.Op.WritesDst() {
			gate[ng] = in.Dst
			ng++
		}
		blocked, unbounded := false, false
		var wWake timing.PS
		for i := 0; i < ng; i++ {
			r := gate[i]
			if r == isa.RNone {
				continue
			}
			if w.outstanding[r] != 0 {
				blocked, unbounded = true, true
				continue
			}
			if at := w.regReady[r]; at > now {
				blocked = true
				if at > wWake {
					wWake = at
				}
			}
		}
		if !blocked {
			s.idleValid, s.idleWake = true, now // busy: the instruction issues
			return
		}
		anyDep = true
		s.idleLk[slot] = true // tryIssue probes (and hits) the L1I first
		s.idleLkN++
		s.idleLkSch = append(s.idleLkSch, slot)
		if TraceGTID < 0 {
			// The scan just certified the same verdict tryIssue's writer
			// would: cache it so later dense ticks replay it cheaply too.
			if unbounded {
				s.slotWake[slot] = inf
			} else {
				s.slotWake[slot] = wWake
			}
			s.slotProbe[slot] = true
			s.slotLine[slot] = iline
		}
		if !unbounded && wWake < wake {
			wake = wWake
		}
	}
	kind := int8(-1)
	switch {
	case !anyLive:
		// All warps exited. The refill check above did not fire, so either
		// the grid is exhausted (no stat densely) or no CTA fits.
		if g.nextCTA < k.GridDim {
			kind = int8(stats.WarpIdle)
		}
	case anyDep:
		kind = int8(stats.DependencyStall)
	default:
		kind = int8(stats.WarpIdle)
	}
	s.idleValid = true
	s.idleWake = wake
	s.idleKind = kind
}

// skipIdle applies the exact effects of k consecutive provably-empty ticks,
// as certified by the last computeIdle: the per-cycle stall classification,
// the blocked warps' L1I hit traffic, and the scheduler rotation. The LRU
// stamps of all but the final cycle's probes are superseded by the final
// cycle's, so the intermediate lookups collapse into cache.SkipHits and only
// the last cycle is replayed for real, in that cycle's scheduling order.
func (s *SM) skipIdle(k int64) {
	if s.idleKind >= 0 {
		s.st.AddNoIssueN(stats.StallKind(s.idleKind), k)
	}
	m := s.idleLkN
	if m > 0 && k > 1 {
		s.l1i.SkipHits(m * (k - 1))
	}
	if s.g.cfg.GPU.SchedulerKind != "rr" {
		// GTO: the visit order is frozen while the SM is idle, so the replay
		// list captured by computeIdle is the final cycle's scheduling order.
		for _, slot := range s.idleLkSch {
			s.l1i.Lookup(uint64(s.warps[slot].pc) * isa.InstrBytes)
		}
		return
	}
	n := len(s.warps)
	s.rrStart = (s.rrStart + int((k-1)%int64(n))) % n
	if m > 0 {
		for _, slot := range s.schedOrder() {
			if s.idleLk[slot] {
				s.l1i.Lookup(uint64(s.warps[slot].pc) * isa.InstrBytes)
			}
		}
	}
	s.rrStart = (s.rrStart + 1) % n
}

// flushIdle applies the accumulated certified-idle cycles in one batch.
// skipIdle(a) followed by skipIdle(b) is equivalent to skipIdle(a+b): the
// stall counters and cache clocks are additive, the final replay restamps the
// same line set either way, and the scheduler rotation telescopes.
func (s *SM) flushIdle() {
	if s.pendingIdle > 0 {
		k := s.pendingIdle
		s.pendingIdle = 0
		s.skipIdle(k)
	}
}

// syncIdle folds any engine-elided edges into the pending batch and flushes
// it — the read barrier a counter consumer (finalization, stats collection)
// runs before observing per-cycle state.
func (s *SM) syncIdle() {
	if c := s.g.cycles; c > s.seenCycle {
		s.pendingIdle += c - s.seenCycle
		s.seenCycle = c
	}
	s.flushIdle()
}

// dirtyIdle invalidates the idle mirror after an externally-driven state
// change (ack delivery, L1 fill) that can unblock a warp. The pending idle
// cycles were certified under the pre-event state, so they are replayed
// before the event's effects land. When the SM domain is wake-scheduled the
// GPU may be parked past this point: the wake hook re-arms it so the next SM
// edge runs densely.
func (s *SM) dirtyIdle() {
	s.syncIdle()
	s.idleValid = false
	if s.g.onWake != nil {
		s.g.onWake()
	}
}

// schedOrder returns the warp-slot visit order for this cycle. GTO (greedy
// then oldest) keeps issuing from the warp that issued last until it stalls,
// then falls back to slot order (oldest CTA first); round-robin rotates the
// starting slot each cycle so warps share issue bandwidth evenly.
func (s *SM) schedOrder() []int {
	n := len(s.warps)
	if s.order == nil {
		s.order = make([]int, n)
		s.orderKey = -1
	}
	switch s.g.cfg.GPU.SchedulerKind {
	case "rr":
		if s.orderKey == s.rrStart {
			return s.order
		}
		s.orderKey = s.rrStart
		for i := 0; i < n; i++ {
			s.order[i] = (s.rrStart + i) % n
		}
	default: // gto
		if s.orderKey == s.greedyWarp {
			return s.order
		}
		s.orderKey = s.greedyWarp
		s.order[0] = s.greedyWarp
		k := 1
		for i := 0; i < n; i++ {
			if i != s.greedyWarp {
				s.order[k] = i
				k++
			}
		}
	}
	return s.order
}

// drainReady moves one packet per cycle from the ready buffer to the fabric.
func (s *SM) drainReady(now timing.PS) {
	if len(s.readyQ) == 0 {
		return
	}
	p := s.readyQ[0]
	s.readyQ = s.readyQ[1:]
	s.g.fab.SendGPUToHMC(now, p.target, p.size, p.msg)
}

// effMask evaluates the instruction's predicate over the warp's active mask.
func (w *warp) effMask(in isa.Instr) uint32 {
	if in.Pred == isa.RNone {
		return w.mask
	}
	var m uint32
	for t := 0; t < core.WarpWidth; t++ {
		if w.mask&(1<<uint(t)) == 0 {
			continue
		}
		on := w.regs[in.Pred][t] != 0
		if on != in.PredNeg {
			m |= 1 << uint(t)
		}
	}
	return m
}

func (s *SM) traced(w *warp) bool {
	return TraceGTID >= 0 && w.regs[kernel.RegGTID][0] == uint64(TraceGTID)
}

// tryIssue attempts to issue the warp's next instruction.
func (s *SM) tryIssue(w *warp, now timing.PS) {
	if w.fetchUntil > now {
		return // instruction fetch in flight: empty instruction buffer
	}
	// Instruction fetch through the L1I; code lines are 8 B/instruction.
	iline := uint64(w.pc) * isa.InstrBytes
	if !s.l1i.Lookup(iline) {
		s.l1i.Fill(iline)
		// The fill may evict a code line whose hit another slot's cached
		// block entry replays; drop every probing entry.
		for i := range s.slotProbe {
			if s.slotProbe[i] {
				s.slotWake[i] = 0
				s.slotProbe[i] = false
			}
		}
		w.fetchUntil = now + timing.PS(s.g.cfg.GPU.L2Latency)*s.g.smPeriod
		return
	}
	in := s.g.prog.Kernel.Code[w.pc]
	if s.traced(w) {
		fmt.Printf("[%d] pc=%d %v | r20=%x r21=%d r22=%d r25=%x off=%v\n",
			now, w.pc, in, uint32(w.regs[20][0]), w.regs[21][0], w.regs[22][0], uint32(w.regs[25][0]), w.off != nil)
	}

	// Offload-mode instruction filtering: @NSU ALU ops are skipped (they
	// run on the memory stack); everything else executes here.
	if w.off != nil && in.AtNSU {
		w.pc++
		s.issued++ // the NOP replacing it still consumes the issue slot
		s.st.IssuedInstrs++
		return
	}

	// Scoreboard: scan every gating register so a block also yields its wake
	// time — the latest regReady release, or unbounded while a fill is
	// outstanding — which feeds the per-slot block cache.
	blocked, unbounded := false, false
	var wake timing.PS
	var gate [5]isa.Reg
	ng := 0
	for i := 0; i < in.Op.SrcCount(); i++ {
		gate[ng] = in.Src[i]
		ng++
	}
	gate[ng] = in.Pred
	ng++
	if in.Op.WritesDst() {
		gate[ng] = in.Dst
		ng++
	}
	for i := 0; i < ng; i++ {
		r := gate[i]
		if r == isa.RNone {
			continue
		}
		if w.outstanding[r] != 0 {
			blocked, unbounded = true, true
			continue
		}
		if at := w.regReady[r]; at > now {
			blocked = true
			if at > wake {
				wake = at
			}
		}
	}
	if blocked {
		s.sawDepBlock = true
		if TraceGTID < 0 {
			if unbounded {
				wake = inf
			}
			s.slotWake[w.slot] = wake
			s.slotProbe[w.slot] = true
			s.slotLine[w.slot] = iline
		}
		return
	}

	switch in.Op.Class() {
	case isa.ClassALU:
		if s.aluUsed >= s.g.cfg.GPU.NumALUs {
			s.sawExecBlock = true
			return
		}
		s.aluUsed++
		s.execALU(w, in, now)
	case isa.ClassMem:
		if s.lsuUsed >= s.g.cfg.GPU.NumLSUs {
			s.sawExecBlock = true
			return
		}
		if !s.setupMem(w, in, now) {
			return // structural stall (credits / buffers)
		}
	case isa.ClassConst:
		if s.aluUsed >= s.g.cfg.GPU.NumALUs {
			s.sawExecBlock = true
			return
		}
		s.aluUsed++
		s.execConst(w, in, now)
	case isa.ClassSmem:
		if s.lsuUsed >= s.g.cfg.GPU.NumLSUs {
			s.sawExecBlock = true
			return
		}
		s.lsuUsed++
		s.execSmem(w, in, now)
	case isa.ClassCtrl:
		s.execCtrl(w, in, now)
	case isa.ClassOffload:
		if !s.execOffload(w, in, now) {
			return
		}
	}
	s.issued++
	s.st.IssuedInstrs++
	s.st.IssuedThreadOps += int64(bits.OnesCount32(w.effMask(in)))
}

func (s *SM) execALU(w *warp, in isa.Instr, now timing.PS) {
	m := w.effMask(in)
	for t := 0; t < core.WarpWidth; t++ {
		if m&(1<<uint(t)) == 0 {
			continue
		}
		var a, b, c uint64
		if in.Src[0] != isa.RNone {
			a = w.regs[in.Src[0]][t]
		}
		if in.Src[1] != isa.RNone {
			b = w.regs[in.Src[1]][t]
		}
		if in.Src[2] != isa.RNone {
			c = w.regs[in.Src[2]][t]
		}
		w.regs[in.Dst][t] = isa.Eval(in, a, b, c)
	}
	w.regReady[in.Dst] = now + timing.PS(s.g.cfg.GPU.ALULatency)*s.g.smPeriod
	w.pc++
}

// execConst serves a constant-memory load from the per-SM constant cache:
// a short fixed latency with no off-chip traffic (the working sets of our
// workloads fit the 4 KB constant cache, mirroring the paper's assumption).
func (s *SM) execConst(w *warp, in isa.Instr, now timing.PS) {
	m := w.effMask(in)
	for t := 0; t < core.WarpWidth; t++ {
		if m&(1<<uint(t)) == 0 {
			continue
		}
		addr := w.regs[in.Src[0]][t] + uint64(in.Imm)
		w.regs[in.Dst][t] = uint64(s.g.mem.Read32(addr))
	}
	w.regReady[in.Dst] = now + timing.PS(s.g.cfg.GPU.L1HitLatency)*s.g.smPeriod
	w.pc++
}

// execSmem models scratchpad access as a short fixed-latency operation with
// no off-chip traffic. Functional scratchpad state is per-CTA and private;
// we back it with a per-CTA map on the GPU for simplicity.
func (s *SM) execSmem(w *warp, in isa.Instr, now timing.PS) {
	m := w.effMask(in)
	sm := s.smemFor(w.cta.id)
	for t := 0; t < core.WarpWidth; t++ {
		if m&(1<<uint(t)) == 0 {
			continue
		}
		addr := w.regs[in.Src[0]][t] + uint64(in.Imm)
		if in.Op == isa.LDS {
			w.regs[in.Dst][t] = uint64(sm[addr])
		} else {
			sm[addr] = uint32(w.regs[in.Src[1]][t])
		}
	}
	if in.Op == isa.LDS {
		w.regReady[in.Dst] = now + timing.PS(s.g.cfg.GPU.L1HitLatency)*s.g.smPeriod
	}
	w.pc++
}

func (s *SM) execCtrl(w *warp, in isa.Instr, now timing.PS) {
	switch in.Op {
	case isa.BRA:
		w.pc = int(in.Imm)
	case isa.BRP:
		taken, mixed := false, false
		first := true
		for t := 0; t < core.WarpWidth; t++ {
			if w.mask&(1<<uint(t)) == 0 {
				continue
			}
			v := w.regs[in.Src[0]][t] != 0
			if first {
				taken, first = v, false
			} else if v != taken {
				mixed = true
			}
		}
		if mixed {
			panic(fmt.Sprintf("gpu: divergent branch at pc=%d (use predication)", w.pc))
		}
		if taken {
			w.pc = int(in.Imm)
		} else {
			w.pc++
		}
	case isa.BAR:
		w.pc++
		w.atBarrier = true
		w.cta.arrived++
		if w.cta.arrived == w.cta.live {
			for _, ww := range w.cta.warps {
				ww.atBarrier = false
			}
			w.cta.arrived = 0
		}
	case isa.EXIT:
		w.exited = true
		s.liveDirty = true
		cta := w.cta
		cta.live--
		if cta.arrived > 0 && cta.arrived == cta.live {
			for _, ww := range cta.warps {
				ww.atBarrier = false
			}
			cta.arrived = 0
		}
		if cta.live == 0 {
			s.retireCTA(cta)
		}
	}
}

func (s *SM) retireCTA(cta *ctaState) {
	for _, w := range cta.warps {
		s.warps[w.slot] = nil
		if w.off == nil && w.outstanding == ([isa.NumRegs]int16{}) {
			s.freeWarps = append(s.freeWarps, w)
		}
	}
	for i, c := range s.ctas {
		if c == cta {
			s.ctas = append(s.ctas[:i], s.ctas[i+1:]...)
			break
		}
	}
	delete(s.smem, cta.id)
}

// coalesce groups the per-thread addresses of a memory instruction into
// line-granularity accesses (the GPU's coalescing unit).
func (s *SM) coalesce(w *warp, in isa.Instr, mask uint32) []core.LineAccess {
	lineBytes := uint64(s.g.cfg.LineBytes())
	lines := s.lineScratch[:0]
	for t := 0; t < core.WarpWidth; t++ {
		if mask&(1<<uint(t)) == 0 {
			continue
		}
		addr := w.regs[in.Src[0]][t] + uint64(in.Imm)
		line := addr &^ (lineBytes - 1)
		off := uint8((addr & (lineBytes - 1)) / core.WordBytes)
		found := false
		for i := range lines {
			if lines[i].LineAddr == line {
				lines[i].Mask |= 1 << uint(t)
				lines[i].Offsets[t] = off
				found = true
				break
			}
		}
		if !found {
			la := core.LineAccess{LineAddr: line, Mask: 1 << uint(t)}
			la.Offsets[t] = off
			lines = append(lines, la)
		}
	}
	// Classify aligned accesses: offset_i == i for every covered thread.
	for i := range lines {
		aligned := true
		for t := 0; t < core.WarpWidth; t++ {
			if lines[i].Mask&(1<<uint(t)) != 0 && lines[i].Offsets[t] != uint8(t) {
				aligned = false
				break
			}
		}
		lines[i].Aligned = aligned
	}
	s.lineScratch = lines // keep the (possibly grown) backing for reuse
	return lines
}

// setupMem issues a memory instruction: resolves offload-mode credits and
// target selection, then expands the access into line micro-ops. Returns
// false if the warp must retry next cycle.
func (s *SM) setupMem(w *warp, in isa.Instr, now timing.PS) bool {
	mask := w.effMask(in)
	offload := w.off != nil
	lines := s.coalesce(w, in, mask)

	var seq, total int
	if offload {
		ctx := w.off
		// First memory instruction: pick the target NSU and reserve the
		// NDP buffers (§4.1.1, §4.3).
		if !ctx.targetKnown {
			homes := s.homesScratch[:0]
			for _, la := range lines {
				homes = append(homes, s.g.mem.HMCOf(la.LineAddr))
			}
			s.homesScratch = homes
			if s.g.flt != nil {
				ctx.target = core.SelectTargetHealthy(homes, s.g.cfg.NumHMCs,
					func(t int) bool { return s.g.targetHealthy(now, t) })
				if ctx.target < 0 {
					// Every stack is dead or quarantined: run the block on
					// the host instead.
					s.hostFallback(w, now)
					return false
				}
			} else {
				ctx.target = core.SelectTarget(homes, s.g.cfg.NumHMCs)
			}
			if !s.g.bufmgr.Reserve(ctx.target, ctx.block.numLD, ctx.block.numST) {
				s.st.CreditStalls++
				s.sawCreditBlock = true
				return false
			}
			ctx.targetKnown = true
			s.flushPending(ctx)
		}
		if in.Op == isa.LD {
			seq = ctx.seqLD
			ctx.seqLD++
		} else {
			seq = ctx.seqST
			ctx.seqST++
		}
		total = len(lines)
	}

	if len(lines) == 0 {
		// Fully predicated-off access: nothing to do.
		w.pc++
		s.lsuUsed++
		return true
	}

	// Translate: every distinct page goes through the SM's TLB (the GPU
	// owns translation in partitioned execution, §4.1); a miss delays the
	// affected line accesses by the page-walk latency. Under the ndpage
	// backend translation for offloaded accesses lives on the stacks
	// instead: the SM TLB is skipped here and the home stack charges its
	// own tailored walk at the logic layer.
	walk := timing.PS(s.g.cfg.GPU.TLBMissLatency) * s.g.smPeriod
	pageMask := ^uint64(s.g.cfg.Mem.PageBytes - 1)
	var missPage uint64
	if !offload || !s.g.cfg.Arch.StackXlat {
		seenPage := uint64(1) // addresses never map page 1 (offset within page 0x1000+)
		for _, la := range lines {
			page := la.LineAddr & pageMask
			if page == seenPage {
				continue
			}
			seenPage = page
			if !s.tlb.Lookup(page) {
				s.tlb.Fill(page)
				missPage = page | 1
			}
		}
	}

	// setupMem only runs with an empty queue (a warp with pending micro-ops
	// never reaches issue), so the expansion reuses the warp's backing array.
	w.memq = w.memqBuf[:0]
	for _, la := range lines {
		op := microOp{access: la, isStore: in.Op == isa.ST, dst: in.Dst,
			offload: offload, seq: seq, total: total}
		if missPage != 0 && la.LineAddr&pageMask == missPage&^1 {
			op.readyAt = now + walk
		}
		if op.isStore && !offload {
			for t := 0; t < core.WarpWidth; t++ {
				if la.Mask&(1<<uint(t)) != 0 {
					op.data[t] = uint32(w.regs[in.Src[1]][t])
				}
			}
		}
		w.memq = append(w.memq, op)
	}
	w.memqBuf = w.memq
	if in.Op == isa.LD && !offload {
		w.outstanding[in.Dst] = int16(len(lines))
		w.regReady[in.Dst] = inf
	}
	w.pc++
	s.lsuUsed++ // issuing the instruction consumes the LSU this cycle
	return true
}

// processMemq serves the warp's outstanding line micro-ops, at most one per
// LSU per cycle. Divergent accesses therefore occupy the LSU for several
// cycles — the GPU's memory-divergence penalty.
func (s *SM) processMemq(w *warp, now timing.PS) {
	for s.lsuUsed < s.g.cfg.GPU.NumLSUs && len(w.memq) > 0 {
		op := &w.memq[0]
		if op.readyAt > now {
			s.sawDepBlock = true // translation in flight
			s.slotWake[w.slot] = op.readyAt
			s.slotProbe[w.slot] = false
			return
		}
		if !s.serveMicroOp(w, op, now) {
			s.sawExecBlock = true
			return
		}
		s.lsuUsed++
		w.memq = w.memq[1:]
	}
	if len(w.memq) > 0 && s.lsuUsed >= s.g.cfg.GPU.NumLSUs {
		s.sawExecBlock = true
	}
}

func (s *SM) serveMicroOp(w *warp, op *microOp, now timing.PS) bool {
	if op.offload {
		return s.serveOffloadOp(w, op, now)
	}
	if op.isStore {
		return s.serveBaselineStore(w, op, now)
	}
	return s.serveBaselineLoad(w, op, now)
}

func (s *SM) serveBaselineLoad(w *warp, op *microOp, now timing.PS) bool {
	line := op.access.LineAddr
	hit := s.l1.Contains(line)
	// Cache profiling for the §7.3 decision also runs in normal mode so a
	// suppressed block keeps being re-evaluated. An RDF probe would see
	// both cache levels, so an L1 miss defers the verdict to the L2.
	profile := -1
	if w.inRegion {
		profile = w.regionID
	}
	if !hit {
		// Reserve the MSHR before committing the access so a full-MSHR
		// retry next cycle is not double-counted in the cache statistics.
		ok, primary := s.l1.MSHRReserve(line)
		if !ok {
			return false
		}
		s.l1.Lookup(line)
		s.waiters[line] = append(s.waiters[line], loadWaiter{w: w, dst: op.dst})
		if primary {
			s.pushL2(&l2Req{kind: reqRead, line: line, blockID: profile,
				words: bits.OnesCount32(op.access.Mask),
				onFill: func(at timing.PS) {
					s.fillL1(line, at)
				}})
		} else if profile >= 0 {
			// Merged into an in-flight fill: an RDF would also have missed.
			s.g.recordLine(profile, false, bits.OnesCount32(op.access.Mask))
		}
	} else {
		s.l1.Lookup(line)
		if profile >= 0 {
			s.g.recordLine(profile, true, bits.OnesCount32(op.access.Mask))
		}
	}
	// Functional read happens now; timing is tracked separately.
	for t := 0; t < core.WarpWidth; t++ {
		if op.access.Mask&(1<<uint(t)) != 0 {
			addr := line + uint64(op.access.Offsets[t])*core.WordBytes
			w.regs[op.dst][t] = uint64(s.g.mem.Read32(addr))
		}
	}
	if hit {
		s.loadLineDone(w, op.dst, now+timing.PS(s.g.cfg.GPU.L1HitLatency)*s.g.smPeriod)
	}
	return true
}

// fillL1 completes an L1 miss: install the line and wake the waiters.
func (s *SM) fillL1(line uint64, now timing.PS) {
	s.dirtyIdle()
	s.l1.MSHRRelease(line)
	for _, lw := range s.waiters[line] {
		s.loadLineDone(lw.w, lw.dst, now)
	}
	delete(s.waiters, line)
}

func (s *SM) loadLineDone(w *warp, dst isa.Reg, at timing.PS) {
	w.outstanding[dst]--
	if w.outstanding[dst] <= 0 {
		w.outstanding[dst] = 0
		w.regReady[dst] = at
	}
	s.slotWake[w.slot] = 0 // scoreboard state changed: drop the block cache
}

func (s *SM) serveBaselineStore(w *warp, op *microOp, now timing.PS) bool {
	line := op.access.LineAddr
	// Write-through: functional write now; L1 probe keeps tags coherent,
	// and any read-only NSU copy of the line becomes stale.
	s.l1.Lookup(line)
	s.g.invalidateNSUDirs(line)
	for t := 0; t < core.WarpWidth; t++ {
		if op.access.Mask&(1<<uint(t)) != 0 {
			addr := line + uint64(op.access.Offsets[t])*core.WordBytes
			s.g.mem.Write32(addr, op.data[t])
		}
	}
	wr := &core.WriteReq{Access: op.access, Data: op.data}
	s.pushL2(&l2Req{kind: reqWrite, line: line, write: wr})
	return true
}

// serveOffloadOp handles partitioned-execution memory micro-ops: loads
// probe the GPU caches and become RDF traffic; stores become WTA packets
// for the target NSU (Figure 6).
func (s *SM) serveOffloadOp(w *warp, op *microOp, now timing.PS) bool {
	ctx := w.off
	if op.isStore {
		if len(s.readyQ) >= s.g.cfg.NDP.ReadyEntries {
			return false
		}
		wta := &core.WTAPacket{ID: ctx.id, Tag: ctx.tag, Seq: op.seq, Target: ctx.target,
			Access: op.access, TotalPkts: op.total}
		s.pushReady(ctx.target, wta.Size(), wta)
		s.st.WTAPackets++
		if s.g.flt == nil {
			// The WTA in-flight ledger assumes exactly-once delivery;
			// retransmits and aborted warps would unbalance it, so fault
			// mode runs without it.
			s.g.wtaInflight[s.g.mem.HMCOf(op.access.LineAddr)]++
		}
		return true
	}
	line := op.access.LineAddr
	if s.l1.Lookup(line) {
		// RDF served from the L1: the GPU ships the data to the NSU.
		if len(s.readyQ) >= s.g.cfg.NDP.ReadyEntries {
			return false
		}
		s.g.recordLine(ctx.block.id, true, bits.OnesCount32(op.access.Mask))
		s.st.RDFPackets++
		s.st.RDFCacheHits++
		rdf := &core.RDFPacket{ID: ctx.id, Tag: ctx.tag, Seq: op.seq, Target: ctx.target,
			Access: op.access, TotalPkts: op.total}
		msg, size := s.g.shipCachedLine(rdf)
		s.pushReady(ctx.target, size, msg)
		return true
	}
	// L1 miss: probe the L2 slice; it forwards to DRAM on a miss there.
	rdf := &core.RDFPacket{ID: ctx.id, Tag: ctx.tag, Seq: op.seq, Target: ctx.target,
		Access: op.access, TotalPkts: op.total}
	s.st.RDFPackets++
	s.pushL2(&l2Req{kind: reqRDF, line: line, rdf: rdf, blockID: ctx.block.id})
	return true
}

// pushReady queues a packet in the ready buffer.
func (s *SM) pushReady(target, size int, msg any) {
	s.readyQ = append(s.readyQ, outPkt{target: target, size: size, msg: msg})
}

// flushPending moves the context's pending packets (the offload command,
// generated before the target was known) into the ready buffer.
func (s *SM) flushPending(ctx *offCtx) {
	rest := s.pendingQ[:0]
	for _, p := range s.pendingQ {
		if cmd, ok := p.msg.(*core.CmdPacket); ok && cmd.ID == ctx.id {
			cmd.Target = ctx.target
			s.pushReady(ctx.target, p.size, cmd)
		} else {
			rest = append(rest, p)
		}
	}
	s.pendingQ = rest
}

// execOffload handles OFLDBEG / OFLDEND.
func (s *SM) execOffload(w *warp, in isa.Instr, now timing.PS) bool {
	blk := s.g.blocks[in.BlockID]
	if in.Op == isa.OFLDBEG {
		s.st.OffloadBlocksSeen++
		s.mSeen++
		if s.g.dec.Decide(blk.id) {
			if len(s.pendingQ) >= s.g.cfg.NDP.PendingEntries {
				s.st.PendingBufStalls++
				s.sawExecBlock = true
				return false
			}
			s.st.OffloadBlocksOffloaded++
			s.mSent++
			ctx := &offCtx{block: blk, id: core.OffloadID{SM: int32(s.id), Warp: int32(w.slot)}, began: now}
			if s.g.flt != nil {
				s.instSeq[w.slot]++
				ctx.tag = core.ProtoTag{Inst: s.instSeq[w.slot]}
				ctx.deadline = s.g.attemptDeadline(now, 0)
				snap := w.regs
				ctx.regSnap = &snap
			}
			w.off = ctx
			cmd := s.buildCmd(ctx, w)
			s.st.OffloadCmdPackets++
			ctx.cmdBytes = cmd.Size() - core.HeaderBytes
			s.pendingQ = append(s.pendingQ, outPkt{size: cmd.Size(), msg: cmd})
		} else {
			w.inRegion = true
			w.regionID = blk.id
		}
		w.pc++
		return true
	}

	// OFLDEND.
	if w.off != nil {
		ctx := w.off
		if !ctx.targetKnown {
			// Block contained no executed memory instruction (fully
			// predicated off): pick stack 0, reserve, and flush so the NSU
			// still runs the block and acknowledges.
			tgt := 0
			if s.g.flt != nil {
				tgt = core.SelectTargetHealthy(nil, s.g.cfg.NumHMCs,
					func(t int) bool { return s.g.targetHealthy(now, t) })
				if tgt < 0 {
					s.hostFallback(w, now)
					return false
				}
			}
			if !s.g.bufmgr.Reserve(tgt, ctx.block.numLD, ctx.block.numST) {
				s.st.CreditStalls++
				s.sawCreditBlock = true
				return false
			}
			ctx.target = tgt
			ctx.targetKnown = true
			s.flushPending(ctx)
		}
		w.pc++
		if ctx.ack != nil {
			// The acknowledgment already arrived: complete immediately.
			s.applyAck(w, ctx.ack, now)
		} else {
			w.waitAck = true // resumes when the ack arrives
		}
		return true
	}
	// Normal-mode end: account the region's instructions for the epoch
	// throughput metric and close the profiling instance.
	w.inRegion = false
	s.regionInstrs += int64(blk.instrs)
	s.st.OffloadRegionInstrs += int64(blk.instrs)
	s.recordInstance(blk.id)
	w.pc++
	return true
}

// deliverAck routes an offload acknowledgment to its warp. If the warp is
// still inside the block (the NSU finished before the GPU reached OFLD.END)
// the ack is stashed on the context and applied at OFLD.END.
func (s *SM) deliverAck(ack *core.AckPacket, now timing.PS) {
	s.dirtyIdle()
	w := s.warps[ack.ID.Warp]
	if w == nil || w.off == nil {
		if s.g.flt != nil {
			// Late ack for a block that already completed (via an earlier
			// duplicate) or fell back to host execution.
			s.st.StaleProtoPkts++
			return
		}
		panic("gpu: ack for unknown offload context")
	}
	if s.g.flt != nil && ack.Tag.Inst != w.off.tag.Inst {
		s.st.StaleProtoPkts++ // ack from a superseded offload instance
		return
	}
	if !w.waitAck {
		w.off.ack = ack
		return
	}
	s.applyAck(w, ack, now)
}

// buildCmd assembles the offload command packet for the context's current
// instance/attempt tag from the warp's (restored) live-in registers.
func (s *SM) buildCmd(ctx *offCtx, w *warp) *core.CmdPacket {
	blk := ctx.block
	cmd := &core.CmdPacket{ID: ctx.id, Tag: ctx.tag, BlockID: blk.id, Mask: w.mask,
		NumLD: blk.numLD, NumST: blk.numST, Target: ctx.target}
	for _, r := range blk.regsIn {
		rv := core.RegVals{Reg: int16(r)}
		rv.Vals = w.regs[r]
		cmd.In.Regs = append(cmd.In.Regs, rv)
	}
	return cmd
}

// handleTimeout fires when an offloaded block's ack deadline passes: retry
// with exponential backoff while the retry budget and the target's health
// hold, otherwise quarantine the stack and re-execute the block host-side.
func (s *SM) handleTimeout(w *warp, now timing.PS) {
	ctx := w.off
	s.st.OffloadTimeouts++
	if s.g.flt.InstanceCommitted(ctx.id, ctx.tag.Inst) {
		// The block committed: its writes are durable and its ack is in
		// flight on the reliable host link. Re-executing now would repeat
		// non-idempotent stores, so just re-arm and wait for the ack.
		ctx.deadline = s.g.attemptDeadline(now, int(ctx.tag.Attempt))
		return
	}
	if int(ctx.tag.Attempt) >= s.g.maxRetries || !s.g.targetHealthy(now, ctx.target) {
		// Abandon, quarantine, and fall back in one step: the NSU's next
		// look at the board sees the instance as dead before any checker
		// can observe the intermediate state.
		s.g.flt.AbandonInstance(ctx.id, ctx.tag.Inst)
		s.g.quarantineTarget(ctx.target)
		s.g.fab.AbandonOffload(now, ctx.id)
		s.hostFallback(w, now)
		return
	}
	s.retryOffload(w, now)
}

// retryOffload restarts the block's GPU-side walk for a fresh attempt:
// restore the live-in registers, reset the protocol sequence numbers, and
// re-issue the command with a bumped attempt tag. The NSU-side buffers were
// reserved once at the first attempt and stay reserved; the NSU reconciles
// duplicate packets against the instance tag.
func (s *SM) retryOffload(w *warp, now timing.PS) {
	ctx := w.off
	s.st.OffloadRetries++
	ctx.tag.Attempt++
	ctx.deadline = s.g.attemptDeadline(now, int(ctx.tag.Attempt))
	w.regs = *ctx.regSnap
	ctx.seqLD, ctx.seqST = 0, 0
	ctx.ack = nil
	w.waitAck = false
	w.pc = ctx.block.begPC + 1
	s.slotWake[w.slot] = 0
	cmd := s.buildCmd(ctx, w)
	s.st.OffloadCmdPackets++
	s.pushReady(ctx.target, cmd.Size(), cmd)
}

// hostFallback abandons the offload and re-executes the block on the GPU in
// normal mode (graceful degradation): restore the registers captured at
// OFLD.BEG and rewind to the block body; with w.off nil every instruction —
// including the @NSU-marked ones — executes host-side, so memory and
// register state converge to the oracle's.
func (s *SM) hostFallback(w *warp, now timing.PS) {
	ctx := w.off
	s.st.FallbackBlocks++
	if !ctx.targetKnown {
		// The command never left the SM: purge it from the pending buffer.
		rest := s.pendingQ[:0]
		for _, p := range s.pendingQ {
			if cmd, ok := p.msg.(*core.CmdPacket); ok && cmd.ID == ctx.id && cmd.Tag.Inst == ctx.tag.Inst {
				continue
			}
			rest = append(rest, p)
		}
		s.pendingQ = rest
	}
	w.regs = *ctx.regSnap
	w.off = nil
	w.waitAck = false
	w.inRegion = true
	w.regionID = ctx.block.id
	w.pc = ctx.block.begPC + 1
	s.slotWake[w.slot] = 0
}

// applyAck writes back the returned registers and releases the warp.
func (s *SM) applyAck(w *warp, ack *core.AckPacket, now timing.PS) {
	blk := w.off.block
	s.st.AckLatencySumPS += int64(now - w.off.began)
	s.st.AckLatencyCount++
	if s.g.spanSink != nil {
		s.spans = append(s.spans, offSpan{
			warp:  int(ack.ID.Warp),
			block: blk.id,
			start: w.off.began,
			dur:   now - w.off.began,
		})
	}
	if s.g.flt != nil {
		// The instance is consumed; drop its commit-board record so the
		// board stays bounded by the in-flight offload count.
		s.g.flt.ForgetInstance(ack.ID)
	}
	for _, rv := range ack.Out.Regs {
		m := rv.Mask
		if m == 0 {
			m = ack.Mask
		}
		for t := 0; t < core.WarpWidth; t++ {
			if m&(1<<uint(t)) != 0 {
				w.regs[rv.Reg][t] = rv.Vals[t]
			}
		}
		w.regReady[rv.Reg] = now
		w.outstanding[rv.Reg] = 0
		if s.traced(w) {
			fmt.Printf("[%d] ACK writes r%d = %x\n", now, rv.Reg, uint32(rv.Vals[0]))
		}
	}
	s.recordTransfer(blk.id, w.off.cmdBytes+ack.Size()-core.HeaderBytes)
	w.off = nil
	w.waitAck = false
	s.slotWake[w.slot] = 0
	s.regionInstrs += int64(blk.instrs)
	s.st.OffloadRegionInstrs += int64(blk.instrs)
	s.recordInstance(blk.id)
}

// busy reports whether the SM still has live warps or queued packets.
func (s *SM) busy() bool {
	if len(s.readyQ) > 0 || len(s.pendingQ) > 0 || len(s.waiters) > 0 {
		return true
	}
	for _, w := range s.warps {
		if w != nil && !w.exited {
			return true
		}
	}
	return false
}
