// Package audit implements a pluggable, zero-cost-when-disabled invariant
// checker for the simulated machine. Components hold a nil-able pointer to an
// audit object and call its hooks at the points where protocol or hardware
// state changes; when no auditor is attached every hook site reduces to one
// nil comparison, so the disabled cost is unmeasurable on the hot paths.
//
// The checkers cover the machine's load-bearing invariants:
//
//   - packet conservation across the memory network: every packet injected
//     into the fabric is ejected exactly once, never duplicated or lost, and
//     never traverses more hops than the network diameter (Network);
//   - offload-protocol legality per offload block: command opens the block,
//     RDF/WTA/write traffic only flows while it is open, the acknowledgment
//     closes it, and no block is left orphaned at drain (Network);
//   - DRAM bank-state legality: ACT/PRE/CAS ordering per bank respects
//     tRCD/tRAS/tRP/tCCD and the refresh window, re-derived independently of
//     the vault controller's own bookkeeping (VaultAudit);
//   - machine-level conservation checks (credits, cache statistics, energy
//     counter monotonicity) registered as closures via Auditor.Register and
//     evaluated on every fired SM edge plus once at drain.
//
// Violations are recorded, not panicked on, so a single run can surface every
// broken invariant at once; Auditor.Err summarizes them after the run.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"ndpgpu/internal/core"
	"ndpgpu/internal/timing"
)

// Violation is one observed invariant breach.
type Violation struct {
	At        timing.PS // simulated time of the observation
	Component string    // which piece of hardware broke the invariant
	Invariant string    // which invariant family
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("t=%dps %s [%s]: %s", v.At, v.Component, v.Invariant, v.Detail)
}

// maxRecorded bounds how many violations are stored verbatim; a machine with
// a systematically broken invariant would otherwise accumulate one record per
// cycle. The total count keeps incrementing past the cap.
const maxRecorded = 64

// Check is a registered invariant evaluation. It runs on every fired SM edge
// with final=false and once more after the run drains with final=true;
// drain-only invariants (credits fully returned, no orphaned state) should
// fire only when final is set.
type Check func(now timing.PS, final bool)

type namedCheck struct {
	name string
	fn   Check
}

// Auditor collects violations and drives the registered checks.
type Auditor struct {
	violations []Violation
	count      int64
	checks     []namedCheck
}

// New returns an empty auditor.
func New() *Auditor { return &Auditor{} }

// Register adds a named invariant check; checks run in registration order.
func (a *Auditor) Register(name string, fn Check) {
	a.checks = append(a.checks, namedCheck{name: name, fn: fn})
}

// Reportf records one violation.
func (a *Auditor) Reportf(at timing.PS, component, invariant, format string, args ...any) {
	a.count++
	if len(a.violations) < maxRecorded {
		a.violations = append(a.violations, Violation{
			At: at, Component: component, Invariant: invariant,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// RunChecks evaluates every registered check at the given time.
func (a *Auditor) RunChecks(now timing.PS, final bool) {
	for _, c := range a.checks {
		c.fn(now, final)
	}
}

// Violations returns the recorded violations (capped; see Count for the
// true total).
func (a *Auditor) Violations() []Violation { return a.violations }

// Count returns the total number of violations observed, including any
// beyond the recording cap.
func (a *Auditor) Count() int64 { return a.count }

// Err returns nil when no invariant was violated, else an error summarizing
// the first few violations.
func (a *Auditor) Err() error {
	if a.count == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s)", a.count)
	for i, v := range a.violations {
		if i == 8 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %s", v)
	}
	return fmt.Errorf("audit: %s", b.String())
}

// Ticker adapts the auditor to timing.Ticker so a clock domain can drive the
// registered checks on every fired edge. Its NextWorkAt is Never: the auditor
// itself never forces an edge, which keeps idle skipping intact — state
// cannot change on a skipped edge, so checking only fired edges loses no
// coverage.
func (a *Auditor) Ticker() timing.Ticker { return auditTicker{a} }

type auditTicker struct{ a *Auditor }

// Tick implements timing.Ticker.
func (t auditTicker) Tick(now timing.PS) { t.a.RunChecks(now, false) }

// NextWorkAt implements timing.Ticker.
func (t auditTicker) NextWorkAt(now timing.PS) timing.PS { return timing.Never }

// GPUNode is the src/dst sentinel for the GPU endpoint of a fabric route.
const GPUNode = -1

func nodeName(n int) string {
	if n == GPUNode {
		return "gpu"
	}
	return fmt.Sprintf("hmc%d", n)
}

func routeName(src, dst int) string {
	return nodeName(src) + "->" + nodeName(dst)
}

type packetInfo struct {
	sentAt   timing.PS
	arriveAt timing.PS
	src, dst int
}

type offloadInfo struct {
	openedAt     timing.PS
	target       int
	numLD, numST int
	tag          core.ProtoTag // fault runs: which instance/attempt is live
}

// Network audits the interconnect: packet conservation (keyed on packet
// identity — the simulator always allocates protocol packets fresh) and the
// offload-protocol state machine, observed at the moment packets enter the
// fabric. Local-stack shortcuts (an NSU writing its own vault, a logic layer
// delivering to its own NSU) intentionally bypass the fabric and are not
// network events; the command and acknowledgment legs of every offload always
// cross the fabric, so block lifetimes are still tracked exactly.
type Network struct {
	a       *Auditor
	maxHops int

	inflight map[any]packetInfo
	offloads map[core.OffloadID]offloadInfo

	// Lossy mode: under fault injection packets may legally be dropped
	// (link loss, CRC discard, unreachable route) and protocol packets may
	// legally be retransmitted or arrive stale. The conservation invariant
	// becomes "every packet is ejected exactly once OR explicitly reported
	// dropped", and the offload state machine is taught to distinguish a
	// retransmission (same or newer ProtoTag) from an illegal re-issue.
	// Off (the default), the original strict invariants apply unchanged.
	lossy bool

	// Lossy-mode tallies: legal events that the strict checkers would have
	// flagged; exposed so tests can assert faults actually exercised them.
	LegalDrops  int64 // packets reported via Dropped
	Retransmits int64 // command re-issues with a newer attempt/instance
	StaleObs    int64 // stale protocol packets tolerated
	Abandons    int64 // blocks closed by host fallback instead of an ack
}

// NewNetwork builds the fabric auditor. maxHops is the network diameter, the
// upper bound on legal per-packet hop counts.
func NewNetwork(a *Auditor, maxHops int) *Network {
	n := &Network{
		a:        a,
		maxHops:  maxHops,
		inflight: make(map[any]packetInfo),
		offloads: make(map[core.OffloadID]offloadInfo),
	}
	a.Register("network-drain", n.checkDrain)
	return n
}

// SetLossy switches the network auditor into fault-tolerant mode (see the
// lossy field) and raises the hop bound to maxHops, the routing layer's own
// detour safety bound — reroutes around dead links legally exceed the
// fault-free diameter.
func (n *Network) SetLossy(maxHops int) {
	n.lossy = true
	if maxHops > n.maxHops {
		n.maxHops = maxHops
	}
}

// Dropped records a packet the fabric legally lost (injected drop, CRC
// discard, or no live route). It accounts for the packet in place of the
// Inject/Eject pair, so conservation still holds at drain. Calling it
// outside lossy mode is a violation: the fault-free fabric never drops.
func (n *Network) Dropped(now timing.PS, src, dst int, msg any) {
	if !n.lossy {
		n.a.Reportf(now, routeName(src, dst), "packet-conservation",
			"%T dropped by a fault-free fabric", msg)
		return
	}
	n.LegalDrops++
}

// Abandon records that the GPU gave up on an offload block (host fallback
// after retry exhaustion or quarantine): the block closes without an ack,
// and any packets of it still in flight will be tolerated as stale.
func (n *Network) Abandon(now timing.PS, id core.OffloadID) {
	if _, open := n.offloads[id]; open {
		n.Abandons++
		delete(n.offloads, id)
	}
}

// Inject records a packet entering the fabric. src/dst are HMC ids or
// gpuNode (-1) for the GPU endpoint; hops is the number of memory-network
// links the packet will traverse (0 on GPU links and logic-layer-internal
// moves); arriveAt is the scheduled delivery time.
func (n *Network) Inject(now, arriveAt timing.PS, src, dst, hops int, msg any) {
	if _, dup := n.inflight[msg]; dup {
		n.a.Reportf(now, routeName(src, dst), "packet-conservation",
			"duplicate injection of in-flight %T", msg)
	}
	if hops > n.maxHops {
		n.a.Reportf(now, routeName(src, dst), "hop-bound",
			"%T traversed %d hops, network diameter is %d", msg, hops, n.maxHops)
	}
	if arriveAt < now {
		n.a.Reportf(now, routeName(src, dst), "packet-conservation",
			"%T scheduled to arrive at %dps, before injection", msg, arriveAt)
	}
	n.inflight[msg] = packetInfo{sentAt: now, arriveAt: arriveAt, src: src, dst: dst}
	n.observe(now, dst, msg)
}

// Eject records a packet leaving an inbox at its destination.
func (n *Network) Eject(now timing.PS, msg any) {
	p, ok := n.inflight[msg]
	if !ok {
		n.a.Reportf(now, "network", "packet-conservation",
			"ejected %T that was never injected", msg)
		return
	}
	if now < p.arriveAt {
		n.a.Reportf(now, routeName(p.src, p.dst), "packet-conservation",
			"%T ejected at %dps before its arrival time %dps", msg, now, p.arriveAt)
	}
	delete(n.inflight, msg)
}

// observe advances the offload-protocol state machine on packet injection.
// The command opens the (SM, warp) block; data packets require it open and
// carry sequence numbers inside the reserved buffer ranges; the
// acknowledgment closes it. Closing at ack injection is sound because the
// GPU cannot reuse the warp before the ack is delivered.
func (n *Network) observe(now timing.PS, dst int, msg any) {
	switch m := msg.(type) {
	case *core.CmdPacket:
		if o, open := n.offloads[m.ID]; open {
			if n.lossy && (m.Tag.Inst != o.tag.Inst || m.Tag.Attempt > o.tag.Attempt) {
				n.Retransmits++
			} else {
				n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", m.ID.SM, m.ID.Warp),
					"offload-protocol", "command re-issued while block opened at %dps is live", o.openedAt)
			}
		}
		if dst != m.Target {
			n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", m.ID.SM, m.ID.Warp),
				"offload-protocol", "command routed to hmc%d but targets nsu%d", dst, m.Target)
		}
		n.offloads[m.ID] = offloadInfo{openedAt: now, target: m.Target, numLD: m.NumLD, numST: m.NumST, tag: m.Tag}
	case *core.RDFPacket:
		o := n.requireOpen(now, m.ID, m.Tag, "RDF")
		if o != nil {
			n.checkSeq(now, m.ID, "RDF", m.Seq, o.numLD)
			if m.Target != o.target {
				n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", m.ID.SM, m.ID.Warp),
					"offload-protocol", "RDF targets nsu%d, block was issued to nsu%d", m.Target, o.target)
			}
		}
	case *core.RDFResp:
		if o := n.requireOpen(now, m.ID, m.Tag, "RDF response"); o != nil {
			n.checkSeq(now, m.ID, "RDF response", m.Seq, o.numLD)
		}
	case *core.RDFRef:
		if o := n.requireOpen(now, m.ID, m.Tag, "RDF reference"); o != nil {
			n.checkSeq(now, m.ID, "RDF reference", m.Seq, o.numLD)
		}
	case *core.WTAPacket:
		if o := n.requireOpen(now, m.ID, m.Tag, "WTA"); o != nil {
			n.checkSeq(now, m.ID, "WTA", m.Seq, o.numST)
		}
	case *core.WritePacket:
		if o := n.requireOpen(now, m.ID, m.Tag, "NSU write"); o != nil {
			n.checkSeq(now, m.ID, "NSU write", m.Seq, o.numST)
		}
	case *core.WriteAck:
		n.requireOpen(now, m.ID, m.Tag, "write ack")
	case *core.AckPacket:
		o, open := n.offloads[m.ID]
		switch {
		case !open && n.lossy:
			n.StaleObs++ // duplicate ack after the block already closed
			return
		case !open:
			n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", m.ID.SM, m.ID.Warp),
				"offload-protocol", "acknowledgment for a block that is not open")
		case n.lossy && o.tag.Inst != m.Tag.Inst:
			n.StaleObs++ // ack of a previous instance; must not close this one
			return
		}
		delete(n.offloads, m.ID)
	}
}

func (n *Network) requireOpen(now timing.PS, id core.OffloadID, tag core.ProtoTag, kind string) *offloadInfo {
	o, open := n.offloads[id]
	if !open {
		if n.lossy {
			n.StaleObs++ // late packet of an acked or abandoned block
			return nil
		}
		n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", id.SM, id.Warp),
			"offload-protocol", "%s packet for a block that is not open", kind)
		return nil
	}
	if n.lossy && tag.Inst < o.tag.Inst {
		// A straggler from an earlier instance of this warp slot, delayed in
		// the memory hierarchy past the abandon that closed its block and the
		// command that opened the current one. The receiver drops it by tag;
		// checking it against the new block's target or sequence ranges would
		// be comparing two different blocks.
		n.StaleObs++
		return nil
	}
	return &o
}

func (n *Network) checkSeq(now timing.PS, id core.OffloadID, kind string, seq, limit int) {
	if seq < 0 || seq >= limit {
		n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", id.SM, id.Warp),
			"offload-protocol", "%s sequence %d outside reserved range [0,%d)", kind, seq, limit)
	}
}

// checkDrain is the final-pass check: a drained machine has no packet in
// flight and no offload block open.
func (n *Network) checkDrain(now timing.PS, final bool) {
	if !final {
		return
	}
	if len(n.inflight) > 0 {
		// Deterministic report order: by injection time, then route.
		pkts := make([]packetInfo, 0, len(n.inflight))
		for _, p := range n.inflight {
			pkts = append(pkts, p)
		}
		sort.Slice(pkts, func(i, j int) bool {
			if pkts[i].sentAt != pkts[j].sentAt {
				return pkts[i].sentAt < pkts[j].sentAt
			}
			if pkts[i].src != pkts[j].src {
				return pkts[i].src < pkts[j].src
			}
			return pkts[i].dst < pkts[j].dst
		})
		n.a.Reportf(now, "network", "packet-conservation",
			"%d packet(s) lost: first injected at %dps on %s",
			len(pkts), pkts[0].sentAt, routeName(pkts[0].src, pkts[0].dst))
	}
	if len(n.offloads) > 0 {
		ids := make([]core.OffloadID, 0, len(n.offloads))
		for id := range n.offloads {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].SM != ids[j].SM {
				return ids[i].SM < ids[j].SM
			}
			return ids[i].Warp < ids[j].Warp
		})
		for _, id := range ids {
			n.a.Reportf(now, fmt.Sprintf("offload(sm%d,w%d)", id.SM, id.Warp),
				"offload-protocol", "block opened at %dps never acknowledged", n.offloads[id].openedAt)
		}
	}
}

// DRAMTiming is the subset of the DRAM timing parameters the bank-legality
// checks need. Cycle counts are in DRAM clocks; TCKps is the clock in
// picoseconds.
type DRAMTiming struct {
	TCKps int // DRAM clock period, ps
	TRCD  int // ACT -> CAS, cycles
	TRAS  int // ACT -> PRE, cycles
	TRP   int // PRE -> ACT, cycles
	TCCD  int // CAS -> CAS (shared vault data bus), cycles
}

type bankAudit struct {
	open     bool
	row      int64
	actAt    timing.PS
	preReady timing.PS // earliest legal ACT after the last PRE or refresh
}

// VaultAudit independently re-derives DRAM bank-state legality for one vault:
// the controller reports every row/column command it issues and the audit
// checks the ordering and spacing against the timing parameters, using its
// own mirror of the bank state rather than the controller's bookkeeping.
type VaultAudit struct {
	a    *Auditor
	name string
	t    DRAMTiming

	banks    []bankAudit
	lastCAS  timing.PS // vault-wide: the data bus is shared across banks
	refUntil timing.PS
}

// NewVaultAudit builds the audit mirror for one vault with the given bank
// count.
func NewVaultAudit(a *Auditor, name string, t DRAMTiming, banks int) *VaultAudit {
	return &VaultAudit{a: a, name: name, t: t, banks: make([]bankAudit, banks), lastCAS: -1 << 62}
}

func (v *VaultAudit) tck(n int) timing.PS { return timing.PS(n) * timing.PS(v.t.TCKps) }

// OnActivate checks one row activation.
func (v *VaultAudit) OnActivate(now timing.PS, bank int, row int64) {
	b := &v.banks[bank]
	if b.open {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"ACT bank %d row %d with row %d already open", bank, row, b.row)
	}
	if now < b.preReady {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"ACT bank %d at %dps, tRP expires at %dps", bank, now, b.preReady)
	}
	if now < v.refUntil {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"ACT bank %d during refresh (until %dps)", bank, v.refUntil)
	}
	b.open, b.row, b.actAt = true, row, now
}

// OnColumn checks one CAS (read or write burst).
func (v *VaultAudit) OnColumn(now timing.PS, bank int, row int64, write bool) {
	kind := "RD"
	if write {
		kind = "WR"
	}
	b := &v.banks[bank]
	switch {
	case !b.open:
		v.a.Reportf(now, v.name, "dram-bank-state", "%s bank %d with no open row", kind, bank)
	case b.row != row:
		v.a.Reportf(now, v.name, "dram-bank-state",
			"%s bank %d row %d but row %d is open", kind, bank, row, b.row)
	case now < b.actAt+v.tck(v.t.TRCD):
		v.a.Reportf(now, v.name, "dram-bank-state",
			"%s bank %d at %dps violates tRCD (ACT at %dps)", kind, bank, now, b.actAt)
	}
	if now < v.lastCAS+v.tck(v.t.TCCD) {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"%s bank %d at %dps violates tCCD (last CAS at %dps)", kind, bank, now, v.lastCAS)
	}
	if now < v.refUntil {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"%s bank %d during refresh (until %dps)", kind, bank, v.refUntil)
	}
	v.lastCAS = now
}

// OnPrecharge checks one precharge. start is the effective command time,
// which the controller may delay past now to honour tRAS.
func (v *VaultAudit) OnPrecharge(now, start timing.PS, bank int) {
	b := &v.banks[bank]
	if !b.open {
		v.a.Reportf(now, v.name, "dram-bank-state", "PRE bank %d with no open row", bank)
	}
	if start < b.actAt+v.tck(v.t.TRAS) {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"PRE bank %d at %dps violates tRAS (ACT at %dps)", bank, start, b.actAt)
	}
	if start < now {
		v.a.Reportf(now, v.name, "dram-bank-state",
			"PRE bank %d effective time %dps is in the past", bank, start)
	}
	b.open = false
	b.preReady = start + v.tck(v.t.TRP)
}

// OnRefresh checks one all-bank refresh blocking the vault until `until`.
func (v *VaultAudit) OnRefresh(now, until timing.PS) {
	if until < now {
		v.a.Reportf(now, v.name, "dram-bank-state", "refresh window ends at %dps, in the past", until)
	}
	for i := range v.banks {
		v.banks[i].open = false
		if v.banks[i].preReady < until {
			v.banks[i].preReady = until
		}
	}
	v.refUntil = until
}
