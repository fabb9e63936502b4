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
	picked      bool // target is the kept vote of a failed first reservation
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
	regSnap  *[isa.NumRegs][config.WarpWidth]uint64
}

// coreBlock caches the analyzer block plus derived info the SM needs often.
type coreBlock struct {
	id     int
	begPC  int
	numLD  int
	numST  int
	regsIn []isa.Reg
	instrs int // region instruction count (Table 1 metric + epoch IPC)
}

// microOp is one coalesced line access of an in-flight memory instruction.
type microOp struct {
	access  core.LineAccess
	isStore bool
	dst     isa.Reg                  // load destination
	offload bool                     // partitioned-execution semantics (RDF/WTA)
	seq     int                      // memory-instruction sequence number within the block
	total   int                      // packets generated for this instruction
	readyAt timing.PS                // earliest service time (TLB page-walk penalty)
	data    [config.WarpWidth]uint32 // store data (baseline mode)
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

	// decided keeps OFLD.BEG's offload decision (offload) from the cycle it
	// is drawn until the instance enters the pending buffer or starts its
	// normal-mode walk, so a pending-buffer stall retries the same decision.
	decided bool
	offload bool

	regs        [isa.NumRegs][config.WarpWidth]uint64
	regReady    [isa.NumRegs]timing.PS
	outstanding [isa.NumRegs]int16

	memq    []microOp
	memqBuf []microOp // backing array reused across memory instructions

	off      *offCtx // non-nil while inside an offloaded block instance
	inRegion bool    // inside a block executing normally (not offloaded)
	regionID int

	// fetched marks the one-entry instruction buffer as holding the
	// instruction at pc: it was fetched through the L1I (Table 2: 4 KB,
	// 4-way) once and stays buffered while the warp is blocked, as in
	// GPGPU-Sim. An issue, or a rewind of pc, empties the buffer.
	fetched bool
	// fetchUntil stalls issue while a missed instruction line is filled
	// into the L1I. Kernel footprints are small, so this matters only for
	// cold starts.
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

	// greedyWarp is the GTO scheduler's greedy slot: the warp that issued
	// last is visited first, then the live slots in ascending order.
	greedyWarp int

	// live lists the slots holding non-exited warps in ascending order, so
	// the dense tick visits only occupied slots instead of scanning the whole
	// warp array. Launches and exits mark it dirty; the next dense tick
	// rebuilds it (stale entries are re-screened, so a mid-tick exit is
	// harmless).
	live      []int
	liveDirty bool

	// Per-slot dense-tick block cache: while slotWake[slot] > now, the warp's
	// tick reduces to its stall flag, without dereferencing the (large,
	// cache-unfriendly) warp struct, decoding, or rescanning the scoreboard.
	// Entries are written by processMemq (translation wait, slotXlat) and
	// tryIssue (scoreboard block; Never while a fill is outstanding) and
	// cleared whenever the blocking condition can lift early: a load-line
	// completion, an ack write-back, or a rewind of the block.
	slotWake []timing.PS
	slotXlat []bool

	// Hot-path scratch buffers, reused across cycles so the per-instruction
	// work allocates nothing: refill's free-slot scan, coalesce's line list,
	// and setupMem's per-line home vaults.
	freeScratch  []int
	lineScratch  []core.LineAccess
	homesScratch []int

	// Parking (see tick). wake is the earliest time the SM can do more than
	// repeat its last tick: while wake > now, GPU.Tick skips it. idleKind is
	// the stall class that tick recorded (-1 for none), which catchUp
	// charges to every slept cycle. seenCycle is the last SM cycle the SM
	// accounted for.
	wake      timing.PS
	idleKind  stats.StallKind
	seenCycle int64

	// Credit waits (fault-free): creditWait[t] counts the warps whose
	// reservation on NSU t failed in the last tick, creditWaits their sum. A
	// failed reservation can succeed only after a credit return to t (or a
	// page swap), and both unpark the SM, so the stall sets no wake time;
	// catchUp charges every slept cycle the attempts a dense tick would
	// have repeated.
	creditWait  []int32
	creditWaits int64

	// instSeq numbers offload instances per warp slot (monotonic across CTA
	// reuse of the slot), feeding the duplicate-suppression tags of the
	// resilient offload protocol. Only advanced under fault injection.
	instSeq []int32

	st *stats.Stats // the GPU's statistics bundle

	// mSeen/mSent mirror the offload decision counters for the metrics
	// sampler. They are unconditional plain adds (not gated on a collector)
	// so enabling metrics cannot change simulation behavior.
	mSeen int64
	mSent int64

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
	return &SM{
		id:         id,
		g:          g,
		st:         g.st,
		l1:         cache.New(g.cfg.GPU.L1D),
		l1i:        cache.New(g.cfg.GPU.L1I),
		tlb:        cache.New(g.cfg.Derived().TLB),
		waiters:    make(map[uint64][]loadWaiter),
		warps:      make([]*warp, g.cfg.WarpsPerSM()),
		slotWake:   make([]timing.PS, g.cfg.WarpsPerSM()),
		slotXlat:   make([]bool, g.cfg.WarpsPerSM()),
		instSeq:    make([]int32, g.cfg.WarpsPerSM()),
		creditWait: make([]int32, g.cfg.NumHMCs),
		smem:       make(map[int]map[uint64]uint32),
		idleKind:   -1,
	}
}

// maxResidentCTAs computes the CTA occupancy limit for the kernel.
func (s *SM) maxResidentCTAs() int {
	k := s.g.prog.Kernel
	c := s.g.cfg.GPU
	warpsPerCTA := (k.BlockDim + config.WarpWidth - 1) / config.WarpWidth
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
// and refill consults it every tick.
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
	warpsPerCTA := (k.BlockDim + config.WarpWidth - 1) / config.WarpWidth
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
	ww := config.WarpWidth
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

// tick advances the SM by one core clock. It always runs the dense walk, in
// which every blocked path records when it can next change (release). A
// tick that issued, launched, sent and served nothing parks the SM at the
// earliest release: GPU.Tick skips it until then, and catchUp charges each
// slept cycle the stall class this tick recorded. Anything that can change
// a warp's state earlier — another warp's issue, an ack or an L1 fill —
// either makes this tick busy or unparks the SM (unpark).
func (s *SM) tick(now timing.PS) {
	c := s.g.cycles
	s.catchUp(c - 1)
	s.seenCycle = c
	s.wake = timing.Never
	s.g.work.SMTicks++
	if s.creditWaits > 0 {
		clear(s.creditWait)
		s.creditWaits = 0
	}
	preCTA := s.g.nextCTA
	s.refill()
	launched := s.g.nextCTA != preCTA
	s.aluUsed, s.lsuUsed, s.issued = 0, 0, 0
	s.sawExecBlock, s.sawDepBlock = false, false

	sent := len(s.readyQ) > 0
	s.drainReady(now)

	if s.liveDirty {
		s.rebuildLive()
	}
	// GTO: the greedy slot first, then the live slots in ascending order.
	gslot := s.greedyWarp
	anyLive := s.stepSlot(gslot, now)
	for _, slot := range s.live {
		if slot != gslot && s.stepSlot(slot, now) {
			anyLive = true
		}
	}

	kind := stats.StallKind(-1)
	switch {
	case s.issued > 0:
		s.st.IssueCycles++
	case !anyLive:
		if s.g.nextCTA < s.g.prog.Kernel.GridDim {
			kind = stats.WarpIdle
		}
	case s.sawExecBlock:
		kind = stats.ExecUnitBusy
	case s.sawDepBlock:
		kind = stats.DependencyStall
	default:
		// Warps blocked on offload acknowledgments or NSU buffer credits
		// have no issuable instruction: the paper's "warp idle" class.
		kind = stats.WarpIdle
	}
	if kind >= 0 {
		s.st.AddNoIssue(kind)
	}
	s.idleKind = kind
	if s.issued > 0 || launched || sent || s.lsuUsed > 0 {
		s.wake = now
	}
}

// stepSlot runs one slot's share of the dense walk and reports whether the
// slot holds a live warp. A slot with a live block-cache entry necessarily
// holds a live, non-barrier, non-ack warp (blocked warps cannot exit and
// exiting warps never leave an entry behind), so its replay runs off the
// SM-local slot arrays without dereferencing the warp at all.
func (s *SM) stepSlot(slot int, now timing.PS) bool {
	if s.slotWake[slot] > now {
		s.blockedReplay(slot)
		return true
	}
	w := s.warps[slot]
	if w == nil || w.exited {
		return false
	}
	switch {
	case w.waitAck && s.g.flt != nil:
		if now > w.off.deadline {
			s.handleTimeout(w, now)
			s.release(now)
		} else {
			s.release(w.off.deadline + 1)
		}
	case w.atBarrier || w.waitAck:
		// Released by another warp's issue or by an ack delivery.
	case len(w.memq) > 0:
		s.processMemq(w, now)
	case s.issued < s.g.cfg.GPU.MaxIssue:
		before := s.issued
		s.tryIssue(w, now)
		if s.issued > before {
			s.greedyWarp = slot
		}
	}
	return true
}

// blockedReplay applies a blocked warp's cached stall flag. A translation
// wait follows processMemq's classification: saturated LSUs read as an
// execution-unit block, otherwise the wait is a dependency stall, as a
// scoreboard block always is.
func (s *SM) blockedReplay(slot int) {
	if s.slotXlat[slot] && s.lsuUsed >= s.g.cfg.GPU.NumLSUs {
		s.sawExecBlock = true
	} else {
		s.sawDepBlock = true
	}
	s.release(s.slotWake[slot])
}

// release records that a blocked path of this tick can change no earlier
// than at; a path that must retry next cycle releases at now.
func (s *SM) release(at timing.PS) {
	if at < s.wake {
		s.wake = at
	}
}

// catchUp charges every cycle after seenCycle up to and including cycle c,
// which the SM slept through, the stall class of its last tick and one
// credit stall per warp that tick left waiting on credits. A tick that
// parks issued nothing and used no LSU, so each of those warps reached its
// reservation, as it would again on every dense tick while it sleeps.
func (s *SM) catchUp(c int64) {
	if n := c - s.seenCycle; n > 0 {
		if s.idleKind >= 0 {
			s.st.AddNoIssueN(s.idleKind, n)
		}
		if s.creditWaits > 0 {
			s.st.CreditStalls += n * s.creditWaits
			for t, k := range s.creditWait {
				if k > 0 {
					s.g.bufmgr.ChargeRejects(t, n*int64(k))
				}
			}
		}
		s.seenCycle = c
	}
}

// unpark makes the SM due after an externally driven state change (ack
// delivery, L1 fill) that can unblock a warp. Its next tick charges the
// cycles it slept through. When the SM domain is wake-scheduled the GPU may
// be parked past this point: the wake hook re-arms it so the next SM edge
// ticks this SM.
func (s *SM) unpark() {
	s.wake = 0
	if s.g.onWake != nil {
		s.g.onWake()
	}
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
	for t := 0; t < config.WarpWidth; t++ {
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

// tryIssue attempts to issue the warp's next instruction.
func (s *SM) tryIssue(w *warp, now timing.PS) {
	if !w.fetched {
		// Fetch into the instruction buffer through the L1I; code lines are
		// 8 B/instruction. A miss fills the line and stalls until it lands.
		w.fetched = true
		iline := uint64(w.pc) * isa.InstrBytes
		if !s.l1i.Lookup(iline) {
			s.l1i.Fill(iline)
			w.fetchUntil = now + timing.PS(s.g.cfg.GPU.L2Latency)*s.g.smPeriod
		}
	}
	if w.fetchUntil > now {
		s.release(w.fetchUntil)
		return // instruction fetch in flight
	}
	in := s.g.prog.Kernel.Code[w.pc]

	// Offload-mode instruction filtering: @NSU ALU ops are skipped (they
	// run on the memory stack); everything else executes here.
	if w.off != nil && in.AtNSU {
		w.pc++
		w.fetched = false
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
		if unbounded {
			wake = timing.Never // released by the fill (unpark)
		}
		s.slotWake[w.slot] = wake
		s.slotXlat[w.slot] = false
		s.release(wake)
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
			return // credit stall or host fallback, recorded by setupMem
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
			return // pending buffer, credits, or host fallback
		}
	}
	w.fetched = false
	s.issued++
	s.st.IssuedInstrs++
	s.st.IssuedThreadOps += int64(bits.OnesCount32(w.effMask(in)))
}

func (s *SM) execALU(w *warp, in isa.Instr, now timing.PS) {
	m := w.effMask(in)
	for t := 0; t < config.WarpWidth; t++ {
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
	for t := 0; t < config.WarpWidth; t++ {
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
	for t := 0; t < config.WarpWidth; t++ {
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
		for t := 0; t < config.WarpWidth; t++ {
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
	s.g.work.Coalesces++
	lineBytes := uint64(s.g.cfg.LineBytes())
	lines := s.lineScratch[:0]
	for t := 0; t < config.WarpWidth; t++ {
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
		for t := 0; t < config.WarpWidth; t++ {
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
// false, having recorded the stall, if the warp must retry.
func (s *SM) setupMem(w *warp, in isa.Instr, now timing.PS) bool {
	ctx := w.off
	if ctx != nil && ctx.picked && !s.reserveTarget(ctx, now) {
		return false
	}
	offload := ctx != nil
	lines := s.coalesce(w, in, w.effMask(in))

	var seq, total int
	if offload {
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
					s.release(now)
					return false
				}
			} else {
				// Keep the vote for the retries: a blocked warp's registers
				// cannot change, so only a page swap can change it, and
				// GPU.DropPicks forgets every kept vote when one completes.
				ctx.target = core.SelectTarget(homes, s.g.cfg.NumHMCs)
				ctx.picked = true
			}
			if !s.reserveTarget(ctx, now) {
				return false
			}
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
	if !offload || !s.g.stackXlat {
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
			for t := 0; t < config.WarpWidth; t++ {
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

// reserveTarget takes the NDP buffer credits of the context's target NSU and
// flushes the pending command toward it. A failed reservation is a credit
// stall: under faults the warp retries next cycle, because target health
// changes with time; fault-free it can succeed only after a credit return
// to the target, which unparks the SM (GPU.creditsReturned), so it sets no
// wake time and counts a waiter instead.
func (s *SM) reserveTarget(ctx *offCtx, now timing.PS) bool {
	s.g.work.Reserves++
	if !s.g.bufmgr.Reserve(ctx.target, ctx.block.numLD, ctx.block.numST) {
		s.st.CreditStalls++
		if s.g.flt != nil {
			s.release(now)
		} else {
			s.creditWait[ctx.target]++
			s.creditWaits++
		}
		return false
	}
	ctx.picked = false
	ctx.targetKnown = true
	s.flushPending(ctx)
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
			s.slotXlat[w.slot] = true
			s.release(op.readyAt)
			return
		}
		if !s.serveMicroOp(w, op, now) {
			s.sawExecBlock = true // MSHRs or ready buffer full
			s.release(now)
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
	for t := 0; t < config.WarpWidth; t++ {
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
	s.unpark()
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
	for t := 0; t < config.WarpWidth; t++ {
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
		if !w.decided {
			s.st.OffloadBlocksSeen++
			s.mSeen++
			w.decided, w.offload = true, s.g.dec.Decide(blk.id)
		}
		if w.offload {
			if len(s.pendingQ) >= s.g.cfg.NDP.PendingEntries {
				s.st.PendingBufStalls++
				s.sawExecBlock = true
				s.release(now)
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
		w.decided = false
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
			ctx.target = 0
			if s.g.flt != nil {
				ctx.target = core.SelectTargetHealthy(nil, s.g.cfg.NumHMCs,
					func(t int) bool { return s.g.targetHealthy(now, t) })
				if ctx.target < 0 {
					s.hostFallback(w, now)
					s.release(now)
					return false
				}
			}
			if !s.reserveTarget(ctx, now) {
				return false
			}
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
	s.g.regionInstrs += int64(blk.instrs)
	s.st.OffloadRegionInstrs += int64(blk.instrs)
	s.recordInstance(blk.id)
	w.pc++
	return true
}

// deliverAck routes an offload acknowledgment to its warp. If the warp is
// still inside the block (the NSU finished before the GPU reached OFLD.END)
// the ack is stashed on the context and applied at OFLD.END.
func (s *SM) deliverAck(ack *core.AckPacket, now timing.PS) {
	s.unpark()
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
	w.fetched = false
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
	w.fetched = false
	s.slotWake[w.slot] = 0
}

// applyAck writes back the returned registers and releases the warp.
func (s *SM) applyAck(w *warp, ack *core.AckPacket, now timing.PS) {
	blk := w.off.block
	s.st.AckLatencySumPS += int64(now - w.off.began)
	s.st.AckLatencyCount++
	if s.g.spanSink != nil {
		s.g.spanSink.OffloadSpan(s.id, int(ack.ID.Warp), blk.id, w.off.began, now-w.off.began)
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
		for t := 0; t < config.WarpWidth; t++ {
			if m&(1<<uint(t)) != 0 {
				w.regs[rv.Reg][t] = rv.Vals[t]
			}
		}
		w.regReady[rv.Reg] = now
		w.outstanding[rv.Reg] = 0
	}
	s.recordTransfer(blk.id, w.off.cmdBytes+ack.Size()-core.HeaderBytes)
	w.off = nil
	w.waitAck = false
	s.slotWake[w.slot] = 0
	s.g.regionInstrs += int64(blk.instrs)
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
