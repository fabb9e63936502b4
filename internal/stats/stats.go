// Package stats collects simulation statistics: cycle counts, the GPU
// no-issue-cycle breakdown of Figure 8, traffic by link class, cache hit
// rates, NDP protocol counters, and NSU utilization (Figure 11).
//
// Every per-packet/per-cycle counter is a flat struct field or a fixed-size
// array indexed by a small enum (NoIssue, Traffic) — never a map — so the
// hot-path increment is a single add with no hashing; keep it that way. The
// only slice, NSUICodeBytes, is written once per NSU at spawn/finalize, off
// the packet path.
package stats

import (
	"fmt"
	"strings"
)

// StallKind classifies a GPU SM cycle in which no instruction was issued
// (Figure 8 of the paper).
type StallKind int

const (
	// ExecUnitBusy: a warp had a ready instruction but the execution unit
	// (ALU or LSU) could not accept it.
	ExecUnitBusy StallKind = iota
	// DependencyStall: an operand was not ready (scoreboard hazard),
	// including cache and DRAM access latency.
	DependencyStall
	// WarpIdle: no warp had a valid instruction to issue — empty
	// instruction buffer, no active thread, synchronization, or (in the
	// NDP system) warps blocked on an offload acknowledgment.
	WarpIdle
	numStallKinds
)

// String implements fmt.Stringer.
func (k StallKind) String() string {
	switch k {
	case ExecUnitBusy:
		return "ExecUnitBusy"
	case DependencyStall:
		return "DependencyStall"
	case WarpIdle:
		return "WarpIdle"
	default:
		return fmt.Sprintf("StallKind(%d)", int(k))
	}
}

// TrafficClass labels a link over which bytes were moved.
type TrafficClass int

const (
	// GPULink: GPU off-chip links to the HMCs (both directions).
	GPULink TrafficClass = iota
	// MemNet: inter-HMC memory-network links.
	MemNet
	// IntraHMC: vault-to-logic-layer movement inside one stack.
	IntraHMC
	numTrafficClasses
)

// String implements fmt.Stringer.
func (t TrafficClass) String() string {
	switch t {
	case GPULink:
		return "GPULink"
	case MemNet:
		return "MemNet"
	case IntraHMC:
		return "IntraHMC"
	default:
		return fmt.Sprintf("TrafficClass(%d)", int(t))
	}
}

// CacheStats accumulates hit/miss counts for one cache.
type CacheStats struct {
	Accesses      int64
	Hits          int64
	MSHRStalls    int64 // accesses rejected because MSHRs were full
	Evictions     int64
	Fills         int64
	Invalidations int64
}

// Misses returns Accesses-Hits.
func (c CacheStats) Misses() int64 { return c.Accesses - c.Hits }

// HitRate returns the hit fraction, or 0 when there were no accesses.
func (c CacheStats) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Stats is the top-level statistics bundle for one simulation run.
type Stats struct {
	// Time.
	SMCycles  int64 // elapsed SM-clock cycles
	ElapsedPS int64 // elapsed simulated picoseconds
	NSUCycles int64 // elapsed NSU-clock cycles

	// GPU issue behaviour.
	IssuedInstrs    int64                // warp-instructions issued on SMs
	IssuedThreadOps int64                // thread-instructions (warp instr x active threads)
	NoIssue         [numStallKinds]int64 // per SM-cycle classification, summed over SMs
	IssueCycles     int64                // SM-cycles in which at least one instr issued

	// NSU behaviour.
	NSUInstrs       int64
	NSUWarpCycleSum int64   // sum over NSU cycles of occupied warp slots
	NSUActiveCycles int64   // NSU cycles with at least one live warp
	NSUICodeBytes   []int64 // per-NSU (indexed by NSU id): distinct instruction bytes touched
	NSUWarpsSpawned int64
	NSUStallRDWait  int64 // NSU warp-cycles stalled waiting for read data
	NSUStallWrAck   int64 // NSU warp-cycles stalled waiting for write acks

	// Memory system.
	L1D             CacheStats
	L1I             CacheStats
	L2              CacheStats
	TLB             CacheStats // per-SM translation lookaside buffers, aggregated
	StackTLB        CacheStats // per-stack NDP TLBs (ndpage backend), aggregated
	DRAMReads       int64      // 128B read accesses at vaults
	DRAMWrites      int64
	DRAMActivations int64 // row activations
	DRAMRowHits     int64

	// Traffic in bytes by class.
	Traffic [numTrafficClasses]int64

	// NDP protocol counters.
	OffloadBlocksSeen      int64 // offload-block instances encountered
	OffloadBlocksOffloaded int64
	OffloadCmdPackets      int64
	RDFPackets             int64
	RDFCacheHits           int64 // RDF requests served from GPU caches
	WTAPackets             int64
	RDFRespPackets         int64
	AckPackets             int64
	InvalPackets           int64
	InvalBytes             int64
	PendingBufStalls       int64 // cycles a warp waited on pending-buffer space
	CreditStalls           int64 // reservation attempts rejected for lack of credits
	AckLatencySumPS        int64 // total offload begin->ack latency
	AckLatencyCount        int64

	// Per-offload-block instruction throughput, used by the dynamic ratio
	// controller and reported for debugging.
	OffloadRegionInstrs int64

	// Resilience counters (all zero on the fault-free path).
	OffloadRetries   int64 // offload instances re-sent after a timeout
	OffloadTimeouts  int64 // per-block timeouts that fired
	FallbackBlocks   int64 // blocks re-executed host-side after retry exhaustion
	QuarantinedNSUs  int64 // stacks written off by the offload controller
	ReroutedHops     int64 // mesh hops taken off the dimension-order path
	RouteUnreachable int64 // mesh packets dropped: no live path to destination
	DroppedPackets   int64 // mesh packets lost to injected drops
	CorruptedPackets int64 // mesh packets discarded at the CRC check
	StaleProtoPkts   int64 // protocol packets discarded as stale (old inst/attempt)
	NSUAbortedWarps  int64 // NSU warps abandoned past their abort deadline
	HMCOverflowHWM   int64 // max retry-overflow queue depth across stacks
	HMCOverflowStall int64 // inbox pops deferred because the overflow queue was full

	// Offload-ratio trace: ratio chosen at each epoch boundary.
	RatioTrace []float64

	// Energy in picojoules by component (filled by the energy model).
	Energy EnergyBreakdown
}

// EnergyBreakdown is the Figure 10 component split, in picojoules.
type EnergyBreakdown struct {
	GPU      float64 // SM dynamic+static, on-chip caches and wires
	NSU      float64
	IntraHMC float64 // logic-layer NoC within each stack
	OffChip  float64 // GPU links + memory network SerDes
	DRAM     float64 // activations + row reads/writes
}

// Total returns the summed energy.
func (e EnergyBreakdown) Total() float64 {
	return e.GPU + e.NSU + e.IntraHMC + e.OffChip + e.DRAM
}

// New returns an empty Stats ready for accumulation.
func New() *Stats {
	return &Stats{}
}

// AddNoIssue records one no-issue SM cycle of kind k.
func (s *Stats) AddNoIssue(k StallKind) { s.NoIssue[k]++ }

// AddNoIssueN records n no-issue SM cycles of kind k in one step (used to
// charge the cycles a parked SM slept through).
func (s *Stats) AddNoIssueN(k StallKind, n int64) { s.NoIssue[k] += n }

// SetNSUICode records the distinct instruction-byte footprint of one NSU,
// growing the per-NSU slice as needed.
func (s *Stats) SetNSUICode(id int, bytes int64) {
	for len(s.NSUICodeBytes) <= id {
		s.NSUICodeBytes = append(s.NSUICodeBytes, 0)
	}
	s.NSUICodeBytes[id] = bytes
}

// NoIssueTotal returns the total number of no-issue SM cycles.
func (s *Stats) NoIssueTotal() int64 {
	var t int64
	for _, v := range s.NoIssue {
		t += v
	}
	return t
}

// AddTraffic records n bytes moved on a link of class c.
func (s *Stats) AddTraffic(c TrafficClass, n int64) { s.Traffic[c] += n }

// IPC returns issued warp-instructions per SM-cycle (aggregate over SMs).
func (s *Stats) IPC() float64 {
	if s.SMCycles == 0 {
		return 0
	}
	return float64(s.IssuedInstrs) / float64(s.SMCycles)
}

// NSUOccupancy returns the mean fraction of NSU warp slots occupied while
// the simulation ran, given the number of slots per NSU and the NSU count.
func (s *Stats) NSUOccupancy(slotsPerNSU, numNSUs int) float64 {
	if s.NSUCycles == 0 || slotsPerNSU == 0 || numNSUs == 0 {
		return 0
	}
	return float64(s.NSUWarpCycleSum) / (float64(s.NSUCycles) * float64(slotsPerNSU) * float64(numNSUs))
}

// ICacheUtilization returns the mean fraction of NSU instruction-cache bytes
// that held live NSU code, across NSUs.
func (s *Stats) ICacheUtilization(icacheBytes int) float64 {
	if len(s.NSUICodeBytes) == 0 || icacheBytes == 0 {
		return 0
	}
	var sum float64
	for _, b := range s.NSUICodeBytes {
		u := float64(b) / float64(icacheBytes)
		if u > 1 {
			u = 1
		}
		sum += u
	}
	return sum / float64(len(s.NSUICodeBytes))
}

// OffChipTraffic returns total bytes crossing the GPU's off-chip links.
func (s *Stats) OffChipTraffic() int64 { return s.Traffic[GPULink] }

// InvalOverhead returns invalidation traffic as a fraction of GPU off-chip
// traffic (§4.2 reports up to 1.42%, 0.38% average).
func (s *Stats) InvalOverhead() float64 {
	if s.Traffic[GPULink] == 0 {
		return 0
	}
	return float64(s.InvalBytes) / float64(s.Traffic[GPULink])
}

// String renders a human-readable multi-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles(SM)=%d ipc=%.3f issued=%d\n", s.SMCycles, s.IPC(), s.IssuedInstrs)
	fmt.Fprintf(&b, "no-issue: exec-busy=%d dep-stall=%d warp-idle=%d\n",
		s.NoIssue[ExecUnitBusy], s.NoIssue[DependencyStall], s.NoIssue[WarpIdle])
	fmt.Fprintf(&b, "L1D hit=%.3f (%d/%d)  L2 hit=%.3f (%d/%d)\n",
		s.L1D.HitRate(), s.L1D.Hits, s.L1D.Accesses, s.L2.HitRate(), s.L2.Hits, s.L2.Accesses)
	fmt.Fprintf(&b, "dram: reads=%d writes=%d act=%d rowhit=%d\n",
		s.DRAMReads, s.DRAMWrites, s.DRAMActivations, s.DRAMRowHits)
	fmt.Fprintf(&b, "traffic: gpu-link=%d memnet=%d intra-hmc=%d inval=%d\n",
		s.Traffic[GPULink], s.Traffic[MemNet], s.Traffic[IntraHMC], s.InvalBytes)
	fmt.Fprintf(&b, "ndp: seen=%d offloaded=%d cmd=%d rdf=%d (cache-hit %d) wta=%d ack=%d\n",
		s.OffloadBlocksSeen, s.OffloadBlocksOffloaded, s.OffloadCmdPackets,
		s.RDFPackets, s.RDFCacheHits, s.WTAPackets, s.AckPackets)
	if s.FaultActivity() {
		fmt.Fprintf(&b, "resilience: retries=%d timeouts=%d fallback=%d quarantined=%d rerouted=%d unreachable=%d dropped=%d corrupt=%d stale=%d nsu-aborts=%d overflow-hwm=%d\n",
			s.OffloadRetries, s.OffloadTimeouts, s.FallbackBlocks, s.QuarantinedNSUs,
			s.ReroutedHops, s.RouteUnreachable, s.DroppedPackets, s.CorruptedPackets,
			s.StaleProtoPkts, s.NSUAbortedWarps, s.HMCOverflowHWM)
	}
	return b.String()
}

// FaultActivity reports whether any resilience counter is nonzero, i.e.
// whether injected faults actually perturbed the run.
func (s *Stats) FaultActivity() bool {
	return s.OffloadRetries|s.OffloadTimeouts|s.FallbackBlocks|s.QuarantinedNSUs|
		s.ReroutedHops|s.RouteUnreachable|s.DroppedPackets|s.CorruptedPackets|
		s.StaleProtoPkts|s.NSUAbortedWarps|s.HMCOverflowStall != 0
}

// fold adds src's cache counters into c.
func (c *CacheStats) fold(src CacheStats) {
	c.Accesses += src.Accesses
	c.Hits += src.Hits
	c.MSHRStalls += src.MSHRStalls
	c.Evictions += src.Evictions
	c.Fills += src.Fills
	c.Invalidations += src.Invalidations
}

// FoldInto adds the counter bundle src into dst, e.g. to total the legs of
// a benchmark pass.
//
// Every integer counter is a plain sum, which commutes, with two exceptions:
// HMCOverflowHWM is a high-water mark (max-merge) and NSUICodeBytes is
// per-NSU indexed (max-merge per index). RatioTrace and Energy are per-run
// series — appended at epoch boundaries and filled by the energy model after
// the run — and are not merged here.
// TestFoldIntoCoversAllCounters enforces by reflection that every integer
// field of Stats is handled.
func FoldInto(dst, src *Stats) {
	dst.SMCycles += src.SMCycles
	dst.ElapsedPS += src.ElapsedPS
	dst.NSUCycles += src.NSUCycles

	dst.IssuedInstrs += src.IssuedInstrs
	dst.IssuedThreadOps += src.IssuedThreadOps
	for k := range dst.NoIssue {
		dst.NoIssue[k] += src.NoIssue[k]
	}
	dst.IssueCycles += src.IssueCycles

	dst.NSUInstrs += src.NSUInstrs
	dst.NSUWarpCycleSum += src.NSUWarpCycleSum
	dst.NSUActiveCycles += src.NSUActiveCycles
	for id, b := range src.NSUICodeBytes {
		for len(dst.NSUICodeBytes) <= id {
			dst.NSUICodeBytes = append(dst.NSUICodeBytes, 0)
		}
		if b > dst.NSUICodeBytes[id] {
			dst.NSUICodeBytes[id] = b
		}
	}
	dst.NSUWarpsSpawned += src.NSUWarpsSpawned
	dst.NSUStallRDWait += src.NSUStallRDWait
	dst.NSUStallWrAck += src.NSUStallWrAck

	dst.L1D.fold(src.L1D)
	dst.L1I.fold(src.L1I)
	dst.L2.fold(src.L2)
	dst.TLB.fold(src.TLB)
	dst.StackTLB.fold(src.StackTLB)
	dst.DRAMReads += src.DRAMReads
	dst.DRAMWrites += src.DRAMWrites
	dst.DRAMActivations += src.DRAMActivations
	dst.DRAMRowHits += src.DRAMRowHits

	for c := range dst.Traffic {
		dst.Traffic[c] += src.Traffic[c]
	}

	dst.OffloadBlocksSeen += src.OffloadBlocksSeen
	dst.OffloadBlocksOffloaded += src.OffloadBlocksOffloaded
	dst.OffloadCmdPackets += src.OffloadCmdPackets
	dst.RDFPackets += src.RDFPackets
	dst.RDFCacheHits += src.RDFCacheHits
	dst.WTAPackets += src.WTAPackets
	dst.RDFRespPackets += src.RDFRespPackets
	dst.AckPackets += src.AckPackets
	dst.InvalPackets += src.InvalPackets
	dst.InvalBytes += src.InvalBytes
	dst.PendingBufStalls += src.PendingBufStalls
	dst.CreditStalls += src.CreditStalls
	dst.AckLatencySumPS += src.AckLatencySumPS
	dst.AckLatencyCount += src.AckLatencyCount

	dst.OffloadRegionInstrs += src.OffloadRegionInstrs

	dst.OffloadRetries += src.OffloadRetries
	dst.OffloadTimeouts += src.OffloadTimeouts
	dst.FallbackBlocks += src.FallbackBlocks
	dst.QuarantinedNSUs += src.QuarantinedNSUs
	dst.ReroutedHops += src.ReroutedHops
	dst.RouteUnreachable += src.RouteUnreachable
	dst.DroppedPackets += src.DroppedPackets
	dst.CorruptedPackets += src.CorruptedPackets
	dst.StaleProtoPkts += src.StaleProtoPkts
	dst.NSUAbortedWarps += src.NSUAbortedWarps
	if src.HMCOverflowHWM > dst.HMCOverflowHWM {
		dst.HMCOverflowHWM = src.HMCOverflowHWM
	}
	dst.HMCOverflowStall += src.HMCOverflowStall
}
