// Package core implements the paper's primary contribution: the partitioned
// execution protocol between GPU SMs and NSUs. It defines the offload packet
// formats of Figure 4, the credit-based NDP buffer manager of §4.3, the
// target-NSU selection policy of §4.1.1 (evaluated in Figure 5), and the
// offload-decision mechanisms of §6-§7 (naive, static ratio, dynamic
// hill-climbing ratio, and cache-locality-aware).
package core

import (
	"math/bits"

	"ndpgpu/internal/config"
)

// HeaderBytes is the common packet header: offload packet ID (SM ID, warp
// ID, sequence number), address/PC field, active thread mask, target NSU ID
// (Figure 4).
const HeaderBytes = 16

// WordBytes is the per-thread data word size.
const WordBytes = 4

// SmallBytes is the size of short control messages (write acks, cache
// invalidations): an address plus a tag.
const SmallBytes = 8

// OffloadID identifies one in-flight offloaded warp: at most one offload is
// active per (SM, warp) at a time, and the per-memory-instruction sequence
// number is carried separately in each packet.
type OffloadID struct {
	SM   int32
	Warp int32
}

// ProtoTag disambiguates retransmissions under fault injection: Inst is a
// per-warp offload-instance counter (a warp slot runs many blocks over a
// run) and Attempt counts retries of the current instance. Both ride in the
// existing sequence-number field of the Figure 4 header, so they add no
// modeled bytes and are ignored (left zero) on the fault-free path.
type ProtoTag struct {
	Inst    int32
	Attempt int16
}

// RegSet carries register values for the active threads of a warp.
type RegSet struct {
	Regs []RegVals
}

// RegVals is one architectural register's per-thread values. Mask, when
// nonzero, narrows the transfer to the threads the register was actually
// written for (predicated offload blocks produce partial results).
type RegVals struct {
	Reg  int16
	Mask uint32
	Vals [config.WarpWidth]uint64
}

// Bytes returns the payload size of the register transfer for the given
// active mask (register size x #regs x #active threads, Figure 4(a)).
func (r RegSet) Bytes(mask uint32) int {
	return WordBytes * len(r.Regs) * bits.OnesCount32(mask)
}

// CmdPacket initiates offloaded execution on the target NSU (Figure 4(a)).
type CmdPacket struct {
	ID      OffloadID
	Tag     ProtoTag
	BlockID int
	Mask    uint32 // active thread mask
	Target  int    // target NSU / HMC id
	In      RegSet // registers transferred GPU -> NSU
	NumLD   int    // read-data buffer entries reserved
	NumST   int    // write-address buffer entries reserved
}

// Size returns the packet size in bytes.
func (p *CmdPacket) Size() int { return HeaderBytes + p.In.Bytes(p.Mask) }

// LineAccess describes one coalesced cache-line access: which threads touch
// the line and each covered thread's word offset within it.
type LineAccess struct {
	LineAddr uint64
	Mask     uint32                  // threads covered by this packet
	Offsets  [config.WarpWidth]uint8 // word index within the line, per thread
	Aligned  bool                    // offset_i == i (no offset list needed, §4.1.1)
}

// RDFPacket is a read-and-forward request (Figure 4(b)): the GPU asks the
// line's home vault to read DRAM and forward the touched words to the
// target NSU.
type RDFPacket struct {
	ID     OffloadID
	Tag    ProtoTag
	Seq    int // load index within the block
	Target int
	Access LineAccess
	// TotalPkts is how many RDF packets the GPU generated for this load
	// instruction, so the NSU can tell when its read-data entry is complete.
	TotalPkts int
}

// Size returns the packet size in bytes; misaligned accesses append one
// offset byte per covered thread.
func (p *RDFPacket) Size() int {
	if p.Access.Aligned {
		return HeaderBytes
	}
	return HeaderBytes + bits.OnesCount32(p.Access.Mask)
}

// RDFResp carries the touched data words to the target NSU (Figure 4(c)).
// It is generated either by the GPU (on a cache hit) or by the home vault.
type RDFResp struct {
	ID        OffloadID
	Tag       ProtoTag
	Seq       int
	Mask      uint32
	Data      [config.WarpWidth]uint32
	TotalPkts int
	FromCache bool
}

// Size returns the packet size: header plus one word per covered thread —
// only the words actually accessed are included (§4.4).
func (p *RDFResp) Size() int { return HeaderBytes + WordBytes*bits.OnesCount32(p.Mask) }

// RDFRef asks the target NSU to serve a line from its read-only cache
// instead of shipping the data again (the optional §7.1 extension). The GPU
// only sends it for lines its per-NSU directory knows the NSU holds.
type RDFRef struct {
	ID        OffloadID
	Tag       ProtoTag
	Seq       int
	Access    LineAccess
	TotalPkts int
}

// Size returns the packet size (same as an RDF request: no data payload).
func (p *RDFRef) Size() int {
	if p.Access.Aligned {
		return HeaderBytes
	}
	return HeaderBytes + bits.OnesCount32(p.Access.Mask)
}

// WTAPacket provides the write address for a store instruction to the
// target NSU (Figure 4(b)).
type WTAPacket struct {
	ID        OffloadID
	Tag       ProtoTag
	Seq       int // store index within the block
	Target    int
	Access    LineAccess
	TotalPkts int
}

// Size returns the packet size in bytes.
func (p *WTAPacket) Size() int {
	if p.Access.Aligned {
		return HeaderBytes
	}
	return HeaderBytes + bits.OnesCount32(p.Access.Mask)
}

// WritePacket carries store data from the NSU to a destination vault
// (possibly in another stack, over the memory network).
type WritePacket struct {
	ID     OffloadID
	Tag    ProtoTag
	Seq    int
	Source int // NSU that issued the write (ack destination)
	Access LineAccess
	Data   [config.WarpWidth]uint32
}

// Size returns the packet size: header plus the written words.
func (p *WritePacket) Size() int { return HeaderBytes + WordBytes*bits.OnesCount32(p.Access.Mask) }

// WriteAck acknowledges a WritePacket back to the issuing NSU.
type WriteAck struct {
	ID  OffloadID
	Tag ProtoTag
	Seq int
}

// Size returns the packet size.
func (p *WriteAck) Size() int { return SmallBytes }

// InvalPacket invalidates a line in the GPU caches after an NSU write
// reaches DRAM (§4.2 coherence mechanism).
type InvalPacket struct {
	LineAddr uint64
	HomeHMC  int
}

// Size returns the packet size.
func (p *InvalPacket) Size() int { return SmallBytes }

// AckPacket signals completion of an offloaded block to the GPU and carries
// the live-out register values (§4.1.2 OFLD.END). Each register transfers
// only the lanes it was written for.
type AckPacket struct {
	ID   OffloadID
	Tag  ProtoTag
	Mask uint32
	Out  RegSet
}

// Size returns the packet size: header plus one word per written lane.
func (p *AckPacket) Size() int {
	n := HeaderBytes
	for _, rv := range p.Out.Regs {
		m := rv.Mask
		if m == 0 {
			m = p.Mask
		}
		n += WordBytes * bits.OnesCount32(m)
	}
	return n
}

// Baseline (non-NDP) memory messages, used for like-for-like traffic and
// energy accounting.

// ReadReq is a baseline GPU cache-line read request.
type ReadReq struct {
	LineAddr uint64
}

// Size returns the request size (address + command).
func (p *ReadReq) Size() int { return HeaderBytes }

// ReadResp is the baseline read completion carrying a full cache line back
// to the GPU's L2.
type ReadResp struct {
	LineAddr uint64
}

// ReadRespBytes is the size of a baseline read response carrying a full
// cache line.
func ReadRespBytes(lineBytes int) int { return HeaderBytes + lineBytes }

// WriteReq is a baseline write-through store of the touched words.
type WriteReq struct {
	Access LineAccess
	Data   [config.WarpWidth]uint32
}

// Size returns the request size: header plus written words.
func (p *WriteReq) Size() int { return HeaderBytes + WordBytes*bits.OnesCount32(p.Access.Mask) }
