// Package hmc composes one memory stack: 16 vault controllers (package
// dram), the logic-layer router that dispatches arriving packets, and the
// stack's NSU. The logic layer implements the memory-side halves of the
// partitioned-execution protocol: RDF requests read DRAM and forward the
// touched words to the target NSU over the memory network; NSU writes are
// committed to DRAM, acknowledged to the issuing NSU, and trigger cache
// invalidations toward the GPU (§4.2).
package hmc

import (
	"fmt"

	"ndpgpu/internal/audit"
	"ndpgpu/internal/cache"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/dram"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/gpu"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// NSUPort is the logic layer's view of the stack's NSU.
type NSUPort interface {
	Deliver(msg any, now timing.PS)
}

// HMC is one memory stack.
type HMC struct {
	ID  int
	cfg config.Config
	mem *vm.System
	fab *noc.Fabric
	st  *stats.Stats
	nsu NSUPort

	vaults      []*dram.Vault
	overflow    []pendingReq // requests waiting for vault queue space
	overflowCap int          // backpressure threshold for the overflow queue: 8x the vault queue
	flt         *fault.Injector
	frozen      bool // the last Tick skipped a frozen vault

	// Stack-side address translation (the ndpage backend): offloaded
	// accesses arriving at this stack's logic layer look up a per-stack TLB
	// over 4 KB pages; a miss defers the packet's dispatch by the tailored
	// page-walk latency through xlatQ. All nil/empty under the default
	// architecture, where the GPU owns translation and this path is a
	// strict no-op.
	xlat       *cache.Cache
	xlatQ      []xlatEntry
	xlatWalkPS timing.PS
	pageMask   uint64

	// pendingReads merges concurrent reads of the same line (the logic
	// layer's MSHR-like read-combining): one DRAM access serves them all.
	pendingReads map[uint64][]func(at timing.PS)

	// onWork, when set, is called when work enters the stack outside its own
	// Tick (the local NSU submitting a write): the DRAM domain is
	// wake-scheduled and this stack's slot must be re-armed.
	onWork func(at timing.PS)
}

type pendingReq struct {
	vault int
	req   *dram.Request
}

// xlatEntry is one packet waiting out its stack-side page walk. The walk
// latency is a constant, so entries are appended and drained in FIFO order —
// the queue is time-ordered by construction.
type xlatEntry struct {
	msg any
	due timing.PS
}

// New builds a stack.
func New(id int, cfg config.Config, mem *vm.System, fab *noc.Fabric, st *stats.Stats) *HMC {
	h := &HMC{ID: id, cfg: cfg, mem: mem, fab: fab, st: st,
		overflowCap:  8 * cfg.HMC.VaultQueue,
		pendingReads: make(map[uint64][]func(at timing.PS))}
	for v := 0; v < cfg.HMC.NumVaults; v++ {
		h.vaults = append(h.vaults, dram.NewVault(cfg.HMC))
	}
	if cfg.Arch.StackTranslation() {
		h.xlat = cache.New(config.CacheGeom{
			SizeBytes: cfg.Arch.EffStackTLBEntries() * cfg.Mem.PageBytes,
			Ways:      cfg.Arch.EffStackTLBWays(),
			LineBytes: cfg.Mem.PageBytes,
			MSHRs:     1,
		})
		h.xlatWalkPS = timing.PS(cfg.Arch.EffStackWalkCycles() * cfg.HMC.TCKps)
		h.pageMask = ^uint64(cfg.Mem.PageBytes - 1)
	}
	return h
}

// SetNSU attaches the stack's NSU.
func (h *HMC) SetNSU(n NSUPort) { h.nsu = n }

// SetFault attaches the fault injector (vault freezes).
func (h *HMC) SetFault(inj *fault.Injector) { h.flt = inj }

// SetWakeHook installs the out-of-tick work re-arm callback (wake
// scheduling).
func (h *HMC) SetWakeHook(f func(at timing.PS)) { h.onWork = f }

// EnableAudit attaches a DRAM bank-state auditor to every vault of this
// stack.
func (h *HMC) EnableAudit(a *audit.Auditor) {
	t := audit.DRAMTiming{
		TCKps: h.cfg.HMC.TCKps,
		TRCD:  h.cfg.HMC.TRCD,
		TRAS:  h.cfg.HMC.TRAS,
		TRP:   h.cfg.HMC.TRP,
		TCCD:  h.cfg.HMC.TCCD,
	}
	for i, v := range h.vaults {
		v.SetAudit(audit.NewVaultAudit(a, fmt.Sprintf("hmc%d/vault%d", h.ID, i), t, h.cfg.HMC.BanksPerVault))
	}
}

// Tick advances the stack by one DRAM clock: serve vaults, then dispatch
// arrived packets.
func (h *HMC) Tick(now timing.PS) {
	h.frozen = false
	for i, v := range h.vaults {
		if h.flt != nil && h.flt.VaultFrozen(now, h.ID, i) {
			h.frozen = true
			v.Frozen(now) // requests queue but nothing is served
			continue
		}
		v.Tick(now)
	}
	h.retryOverflow()
	if len(h.xlatQ) > 0 {
		h.drainXlat(now)
	}
	inbox := h.fab.HMCInbox(h.ID)
	for {
		if len(h.overflow) >= h.overflowCap {
			// Backpressure: stop draining the network inbox until the
			// overflow queue shrinks, instead of growing it without bound.
			if at, ok := inbox.NextAt(); ok && at <= now {
				h.st.HMCOverflowStall++
			}
			break
		}
		msg, ok := inbox.Pop(now)
		if !ok {
			break
		}
		h.dispatch(msg, now)
	}
}

func (h *HMC) retryOverflow() {
	kept := h.overflow[:0]
	for _, p := range h.overflow {
		if !h.vaults[p.vault].Enqueue(p.req) {
			kept = append(kept, p)
		}
	}
	h.overflow = kept
}

func (h *HMC) enqueue(vault int, req *dram.Request) {
	if !h.vaults[vault].Enqueue(req) {
		h.overflow = append(h.overflow, pendingReq{vault: vault, req: req})
		if n := int64(len(h.overflow)); n > h.st.HMCOverflowHWM {
			h.st.HMCOverflowHWM = n
		}
	}
}

// readLine schedules one line read, combining with an outstanding read of
// the same line if present.
func (h *HMC) readLine(line uint64, now timing.PS, done func(at timing.PS)) {
	if cbs, busy := h.pendingReads[line]; busy {
		h.pendingReads[line] = append(cbs, done)
		return
	}
	h.pendingReads[line] = []func(at timing.PS){done}
	loc := h.mem.Decode(line)
	h.enqueue(loc.Vault, &dram.Request{
		Line: line, Bank: loc.Bank, Row: loc.Row, Arrival: now,
		Done: func(at timing.PS) {
			cbs := h.pendingReads[line]
			delete(h.pendingReads, line)
			for _, cb := range cbs {
				cb(at)
			}
		},
	})
}

// dispatch routes one arrived message, first passing offloaded accesses
// through the stack-side translation stage when this stack owns translation
// (ndpage backend). A TLB miss parks the message in xlatQ for the page-walk
// latency; dispatchTranslated finishes the routing once the walk is paid.
func (h *HMC) dispatch(msg any, now timing.PS) {
	if h.xlat != nil {
		switch m := msg.(type) {
		case *core.RDFPacket:
			if h.deferXlat(m.Access.LineAddr, msg, now) {
				return
			}
		case *core.WritePacket:
			if h.deferXlat(m.Access.LineAddr, msg, now) {
				return
			}
		}
	}
	h.dispatchTranslated(msg, now)
}

// deferXlat runs one stack-TLB lookup for the page of addr. On a hit the
// caller proceeds immediately; on a miss the message is queued until the
// page walk completes and true is returned. The entry is filled at miss
// time, so concurrent accesses to the same page behind the walk hit.
func (h *HMC) deferXlat(addr uint64, msg any, now timing.PS) bool {
	page := addr & h.pageMask
	h.st.StackTLB.Accesses++
	if h.xlat.Lookup(page) {
		h.st.StackTLB.Hits++
		return false
	}
	h.xlat.Fill(page)
	h.st.StackTLB.Fills++
	h.xlatQ = append(h.xlatQ, xlatEntry{msg: msg, due: now + h.xlatWalkPS})
	return true
}

// drainXlat dispatches every queued message whose page walk has completed.
func (h *HMC) drainXlat(now timing.PS) {
	for len(h.xlatQ) > 0 && h.xlatQ[0].due <= now {
		e := h.xlatQ[0]
		copy(h.xlatQ, h.xlatQ[1:])
		h.xlatQ[len(h.xlatQ)-1] = xlatEntry{}
		h.xlatQ = h.xlatQ[:len(h.xlatQ)-1]
		h.dispatchTranslated(e.msg, now)
	}
}

func (h *HMC) dispatchTranslated(msg any, now timing.PS) {
	switch m := msg.(type) {
	case *core.ReadReq:
		// Baseline line fetch for the GPU's L2.
		line := m.LineAddr
		h.readLine(line, now, func(at timing.PS) {
			h.st.AddTraffic(stats.IntraHMC, int64(h.cfg.LineBytes()))
			h.fab.SendHMCToGPU(at, h.ID, core.ReadRespBytes(h.cfg.LineBytes()),
				&core.ReadResp{LineAddr: line})
		})

	case *core.WriteReq:
		// Baseline write-through store; no acknowledgment needed under the
		// GPU's relaxed consistency model.
		loc := h.mem.Decode(m.Access.LineAddr)
		h.st.AddTraffic(stats.IntraHMC, int64(m.Size()-core.HeaderBytes))
		h.enqueue(loc.Vault, &dram.Request{
			Line: m.Access.LineAddr, Bank: loc.Bank, Row: loc.Row,
			IsWrite: true, Arrival: now,
		})

	case *core.RDFPacket:
		// Read DRAM and forward the touched words to the target NSU
		// (Figure 6(a), steps 5-6).
		pkt := m
		h.readLine(m.Access.LineAddr, now, func(at timing.PS) {
			h.st.AddTraffic(stats.IntraHMC, int64(h.cfg.LineBytes()))
			resp := gpu.MakeRDFResp(h.mem, pkt)
			h.st.RDFRespPackets++
			if pkt.Target == h.ID {
				h.nsu.Deliver(resp, at)
			} else {
				h.fab.SendHMCToHMC(at, h.ID, pkt.Target, resp.Size(), resp)
			}
		})

	case *core.RDFResp:
		// Arriving for the local NSU: either forwarded from another stack
		// or generated by the GPU on a cache hit.
		h.nsu.Deliver(m, now)

	case *core.CmdPacket, *core.WTAPacket, *core.RDFRef:
		h.nsu.Deliver(m, now)

	case *core.WritePacket:
		// An NSU (local or remote) writes this stack's DRAM: commit, ack
		// the writer, and invalidate the GPU's cached copy (§4.2).
		loc := h.mem.Decode(m.Access.LineAddr)
		pkt := m
		h.st.AddTraffic(stats.IntraHMC, int64(m.Size()-core.HeaderBytes))
		h.enqueue(loc.Vault, &dram.Request{
			Line: m.Access.LineAddr, Bank: loc.Bank, Row: loc.Row,
			IsWrite: true, Arrival: now,
			Done: func(at timing.PS) {
				ackMsg := &core.WriteAck{ID: pkt.ID, Tag: pkt.Tag, Seq: pkt.Seq}
				if pkt.Source == h.ID {
					h.nsu.Deliver(ackMsg, at)
				} else {
					h.fab.SendHMCToHMC(at, h.ID, pkt.Source, ackMsg.Size(), ackMsg)
				}
				inval := &core.InvalPacket{LineAddr: pkt.Access.LineAddr, HomeHMC: h.ID}
				h.fab.SendHMCToGPU(at, h.ID, inval.Size(), inval)
			},
		})

	case *core.WriteAck:
		h.nsu.Deliver(m, now)

	case *core.AckPacket:
		panic("hmc: offload ack routed to an HMC")

	default:
		panic(fmt.Sprintf("hmc: unexpected message %T", msg))
	}
}

// SubmitNSUWrite lets the local NSU write its own stack without a network
// traversal (implements nsu.WriteSubmitter).
func (h *HMC) SubmitNSUWrite(p *core.WritePacket, now timing.PS) {
	if h.onWork != nil {
		h.onWork(now)
	}
	h.dispatch(p, now)
}

// Busy reports whether any vault, the overflow queue, or an in-flight stack
// page walk has work.
func (h *HMC) Busy() bool {
	if len(h.overflow) > 0 || len(h.pendingReads) > 0 || len(h.xlatQ) > 0 {
		return true
	}
	for _, v := range h.vaults {
		if !v.Idle() {
			return true
		}
	}
	return false
}

// NextWorkAt implements timing.Ticker: the stack can do work now if any
// vault has due work or the overflow queue is non-empty; otherwise it wakes
// at the earliest vault command/completion/refresh edge or packet arrival.
// The vaults' per-bank hints park the stack across pure DRAM-timing waits
// even with requests queued (each vault settles its BusyCycles over the
// parked stretch when it next ticks). A frozen vault records a non-busy edge
// that a later settle could not tell from a busy skipped one, so while the
// last Tick found a vault frozen the stack reports work now and ticks every
// edge; otherwise its wake never passes the next freeze edge, so the first
// tick at or after a freeze or thaw observes it exactly as a dense tick does,
// fault state being a pure function of time. pendingReads entries always
// have a backing request in a vault queue or the overflow, so they need no
// separate term.
func (h *HMC) NextWorkAt(now timing.PS) timing.PS {
	if len(h.overflow) > 0 || h.frozen {
		return now
	}
	wake := timing.Never
	if h.flt != nil {
		wake = h.flt.NextFreezeEdge(now, h.ID)
	}
	if len(h.xlatQ) > 0 {
		// The queue is FIFO time-ordered (constant walk latency), so the
		// head is the earliest walk completion.
		if due := h.xlatQ[0].due; due <= now {
			return now
		} else if due < wake {
			wake = due
		}
	}
	for _, v := range h.vaults {
		w := v.NextWorkAt(now)
		if w <= now {
			return now
		}
		if w < wake {
			wake = w
		}
	}
	if at, ok := h.fab.HMCInbox(h.ID).NextAt(); ok {
		if at <= now {
			return now
		}
		if at < wake {
			wake = at
		}
	}
	return wake
}

// VaultStats aggregates DRAM counters across vaults, with BusyCycles counted
// through DRAM cycle c.
func (h *HMC) VaultStats(c int64) dram.VaultStats {
	var agg dram.VaultStats
	for _, v := range h.vaults {
		s := v.Stats
		agg.Reads += s.Reads
		agg.Writes += s.Writes
		agg.Activations += s.Activations
		agg.RowHits += s.RowHits
		agg.Precharges += s.Precharges
		agg.QueueFullRejects += s.QueueFullRejects
		agg.Refreshes += s.Refreshes
		// Fold the unsettled cycles computationally: VaultStats backs
		// metrics probes, which must stay side-effect free.
		agg.BusyCycles += v.BusyCyclesThrough(c)
	}
	return agg
}

// NumVaults returns the stack's vault count (the busy-fraction denominator).
func (h *HMC) NumVaults() int { return len(h.vaults) }

// QueueDepth returns the stack's total backlog: requests queued or in flight
// at every vault plus entries in the retry-overflow queue. A metrics gauge;
// side-effect free.
func (h *HMC) QueueDepth() int {
	d := len(h.overflow) + len(h.xlatQ)
	for _, v := range h.vaults {
		d += v.Pending()
	}
	return d
}
