// Package analyzer performs the compile-time analysis of §3 of the paper:
// it identifies offload blocks in a kernel, scores them with
//
//	Score = GPUTrafficReduction - OffloadOverhead     (Equation 1)
//
// rewrites the GPU code with OFLD.BEG / OFLD.END brackets, marks the ALU
// instructions that compute memory addresses (executed on the GPU) and the
// remaining ALU instructions with @NSU (executed on the memory stack), and
// generates the corresponding NSU code with the address-calculation
// instructions removed (Figure 3).
//
// Per §3.1, a candidate block never contains scratchpad accesses, barriers,
// or control flow, and never spans basic blocks. Per §4.4, a load whose
// address derives from previously loaded data (an indirect load, e.g.
// B[A[i]]) is carved into its own offload block regardless of score,
// because offloading it avoids fetching entire divergent cache lines
// across the GPU links; back-to-back indirect loads merge into one block
// so a burst of gathers costs a single offload round trip.
package analyzer

import (
	"fmt"

	"ndpgpu/internal/core"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
)

// Block describes one offload block after analysis.
type Block struct {
	ID int

	// GPU-code range [BegPC, EndPC] in the rewritten code, where BegPC is
	// the OFLDBEG instruction and EndPC the OFLDEND.
	BegPC, EndPC int

	// NSUCode is the translated code (Figure 3(b)): OFLDBEG, loads/stores
	// without address operands, the @NSU ALU instructions, OFLDEND.
	NSUCode []isa.Instr

	NumLD, NumST int

	// RegsIn are transferred GPU->NSU in the offload command packet;
	// RegsOut are returned in the acknowledgment packet.
	RegsIn, RegsOut []isa.Reg

	Score    int  // Equation 1 score, in bytes per thread
	Indirect bool // indirect-gather block (§4.4), offloaded regardless of score
}

// NSUInstrs returns the instruction count of the translated block, the
// quantity Table 1 reports (brackets excluded).
func (b *Block) NSUInstrs() int { return len(b.NSUCode) - 2 }

// Program is the analysis result: rewritten GPU code plus block metadata.
type Program struct {
	Kernel *kernel.Kernel // rewritten: Code contains OFLD brackets
	Blocks []*Block
}

// Analyze rewrites the kernel for partitioned execution. The input kernel is
// not modified.
func Analyze(k *kernel.Kernel) (*Program, error) {
	leaders := findLeaders(k.Code)
	liveIn := liveness(k.Code)

	// Carve candidate regions and decide blocks, on the ORIGINAL code.
	regions := carveRegions(k.Code, leaders)

	// Rewrite: copy instructions, inserting brackets around accepted
	// regions, and remember old->new PC mapping for branch fixup.
	var out []isa.Instr
	pcMap := make([]int, len(k.Code)+1)
	var blocks []*Block
	regIdx := 0
	for pc := 0; pc < len(k.Code); pc++ {
		pcMap[pc] = len(out)
		for regIdx < len(regions) && regions[regIdx].start == pc {
			r := regions[regIdx]
			regIdx++
			blk := buildBlock(k.Code, liveIn, &r, len(blocks))
			// A region rejected for transfer overhead may become profitable
			// once its non-memory tail is dropped (e.g. a reduction whose
			// min-update tail forces loop state through the transfers), so
			// retry with progressively shorter tails.
			for blk == nil && r.end > r.start && !k.Code[r.end].Op.IsMem() {
				r.end--
				blk = buildBlock(k.Code, liveIn, &r, len(blocks))
			}
			if blk == nil {
				continue
			}
			// Tail trim: pull trailing non-memory instructions out of the
			// block while that does not increase the register-transfer
			// cost. A reduction block (loads + accumulate, no store) then
			// returns only its result instead of round-tripping loop
			// state, matching the paper's ~0.4-regs-per-thread transfer
			// averages.
			for r.end > r.start && !k.Code[r.end].Op.IsMem() {
				r2 := region{start: r.start, end: r.end - 1, indirect: r.indirect}
				blk2 := buildBlock(k.Code, liveIn, &r2, blk.ID)
				if blk2 == nil ||
					len(blk2.RegsIn)+len(blk2.RegsOut) > len(blk.RegsIn)+len(blk.RegsOut) {
					break
				}
				r, blk = r2, blk2
			}
			// Emit OFLDBEG.
			beg := isa.New(isa.OFLDBEG)
			beg.BlockID = blk.ID
			blk.BegPC = len(out)
			out = append(out, beg)
			// Emit region body with annotations.
			for i := r.start; i <= r.end; i++ {
				in := k.Code[i]
				in.BlockID = blk.ID
				if gpuExecutable(in.Op) {
					if r.addrCalc[i-r.start] {
						in.AddrCalc = true
					} else {
						in.AtNSU = true
					}
				}
				out = append(out, in)
			}
			end := isa.New(isa.OFLDEND)
			end.BlockID = blk.ID
			blk.EndPC = len(out)
			out = append(out, end)
			blocks = append(blocks, blk)
			pc = r.end // continue after region
			goto nextPC
		}
		out = append(out, k.Code[pc])
	nextPC:
	}
	pcMap[len(k.Code)] = len(out)

	// Fix branch targets.
	for i := range out {
		if out[i].Op == isa.BRA || out[i].Op == isa.BRP {
			out[i].Imm = int64(pcMap[out[i].Imm])
		}
	}

	nk := *k
	nk.Code = out
	if err := nk.Validate(); err != nil {
		return nil, fmt.Errorf("analyzer: rewritten kernel invalid: %w", err)
	}
	return &Program{Kernel: &nk, Blocks: blocks}, nil
}

// findLeaders marks basic-block leader PCs.
func findLeaders(code []isa.Instr) []bool {
	leaders := make([]bool, len(code)+1)
	leaders[0] = true
	for pc, in := range code {
		switch in.Op {
		case isa.BRA, isa.BRP:
			leaders[in.Imm] = true
			if pc+1 <= len(code) {
				leaders[pc+1] = true
			}
		case isa.BAR, isa.EXIT:
			if pc+1 <= len(code) {
				leaders[pc+1] = true
			}
		}
	}
	return leaders
}

// region is a candidate offload region in original-code coordinates.
type region struct {
	start, end int // inclusive
	addrCalc   []bool
	indirect   bool // single indirect load
}

// offloadable reports whether the opcode may appear inside an offload block.
func offloadable(op isa.Opcode) bool {
	switch op.Class() {
	case isa.ClassALU, isa.ClassMem, isa.ClassConst:
		return true
	default:
		return false
	}
}

// gpuExecutable reports whether an in-block instruction can execute on the
// GPU side (ALU work and constant loads; both sides can run them).
func gpuExecutable(op isa.Opcode) bool {
	return op.IsALU() || op.Class() == isa.ClassConst
}

// carveRegions splits the code into maximal candidate regions within basic
// blocks. Two taint scopes drive the cuts:
//
//   - regionTaint: registers derived from loads of the CURRENT region. An
//     address or predicate depending on them cannot be produced by the GPU
//     while the block is offloaded, so the region is cut there.
//   - globalTaint: registers derived from any earlier load. An address
//     depending on them makes the load "indirect" in the §4.4 sense
//     (x = B[A[i]]): the GPU can compute the address (the producing value
//     is on the GPU by then — offloaded blocks return it in the ack), and
//     the load is carved into its own single-instruction offload block to
//     save divergent-fetch bandwidth.
func carveRegions(code []isa.Instr, leaders []bool) []region {
	var regions []region
	start := -1
	regionTaint := map[isa.Reg]bool{}
	globalTaint := map[isa.Reg]bool{}

	flush := func(end int) {
		if start >= 0 && start <= end {
			regions = append(regions, region{start: start, end: end})
		}
		start = -1
		regionTaint = map[isa.Reg]bool{}
	}

	taintStep := func(in isa.Instr, taint map[isa.Reg]bool) {
		if in.Op == isa.LD {
			taint[in.Dst] = true
			return
		}
		if !in.Op.WritesDst() {
			return
		}
		if readsTainted(in, taint) {
			taint[in.Dst] = true
		} else {
			delete(taint, in.Dst)
		}
	}

	for pc := 0; pc < len(code); pc++ {
		if leaders[pc] {
			flush(pc - 1)
			// A loop back-edge may revive region taint; globalTaint stays
			// conservative (never cleared across blocks).
		}
		in := code[pc]
		if !offloadable(in.Op) {
			flush(pc - 1)
			continue
		}
		if start < 0 {
			start = pc
		}
		if in.Op.IsMem() {
			regionHit := sliceTouches(code, start, pc, regionTaint, true)
			globalHit := sliceTouches(code, start, pc, globalTaint, false)
			predRegionTaint := in.Pred != isa.RNone && regionTaint[in.Pred]
			switch {
			case in.Op == isa.LD && (regionHit || globalHit):
				// Indirect load: close the preceding region and emit this
				// load as a §4.4 block. Back-to-back indirect loads merge
				// into one block so a burst of gathers costs one offload
				// round trip instead of one per load.
				flush(pc - 1)
				if k := len(regions) - 1; k >= 0 && regions[k].indirect && regions[k].end == pc-1 {
					regions[k].end = pc
				} else {
					regions = append(regions, region{start: pc, end: pc, indirect: true})
				}
				start = -1
				regionTaint = map[isa.Reg]bool{}
				taintStep(in, globalTaint)
				globalTaint[in.Dst] = true
				continue
			case in.Op == isa.ST && regionHit:
				// Store whose address needs same-region memory data: the
				// GPU cannot generate its WTA inside an offloaded block.
				flush(pc - 1)
				taintStep(in, globalTaint)
				continue
			case predRegionTaint:
				// Mask depends on same-region memory data: restart the
				// region here so the predicate source lands before it.
				flush(pc - 1)
				start = pc
			}
		}
		taintStep(in, regionTaint)
		taintStep(in, globalTaint)
	}
	flush(len(code) - 1)
	return regions
}

func readsTainted(in isa.Instr, taint map[isa.Reg]bool) bool {
	for i := 0; i < in.Op.SrcCount(); i++ {
		if taint[in.Src[i]] {
			return true
		}
	}
	if in.Pred != isa.RNone && taint[in.Pred] {
		return true
	}
	return false
}

// sliceTouches reports whether the backward address slice of the memory op
// at pc (within [start,pc)) depends on tainted data. With inRegionLoads
// set, hitting any in-region load terminates with true (region scope);
// otherwise in-region loads are looked up in the taint map like leaves.
func sliceTouches(code []isa.Instr, start, pc int, taint map[isa.Reg]bool, inRegionLoads bool) bool {
	wanted := map[isa.Reg]bool{code[pc].Src[0]: true}
	for i := pc - 1; i >= start; i-- {
		in := code[i]
		if !in.Op.WritesDst() || !wanted[in.Dst] {
			continue
		}
		if in.Op == isa.LD {
			if inRegionLoads {
				return true // address depends on same-region memory data
			}
			return true // loads always produce memory-derived data
		}
		delete(wanted, in.Dst)
		for s := 0; s < in.Op.SrcCount(); s++ {
			wanted[in.Src[s]] = true
		}
	}
	// Leaves: registers defined before the region.
	for r := range wanted {
		if taint[r] {
			return true
		}
	}
	return false
}

// liveness computes per-instruction live-in register sets (as bitmasks over
// the 64 architectural registers) with a standard backward dataflow over
// the instruction-level CFG.
func liveness(code []isa.Instr) []uint64 {
	n := len(code)
	liveIn := make([]uint64, n)
	use := make([]uint64, n)
	def := make([]uint64, n)
	for pc, in := range code {
		for s := 0; s < in.Op.SrcCount(); s++ {
			use[pc] |= 1 << uint(in.Src[s])
		}
		if in.Pred != isa.RNone {
			use[pc] |= 1 << uint(in.Pred)
		}
		if in.Op.WritesDst() {
			def[pc] = 1 << uint(in.Dst)
		}
	}
	succs := func(pc int) (a, b int) {
		a, b = -1, -1
		switch code[pc].Op {
		case isa.BRA:
			a = int(code[pc].Imm)
		case isa.BRP:
			a, b = int(code[pc].Imm), pc+1
		case isa.EXIT:
		default:
			a = pc + 1
		}
		if a >= n {
			a = -1
		}
		if b >= n {
			b = -1
		}
		return
	}
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			var out uint64
			a, b := succs(pc)
			if a >= 0 {
				out |= liveIn[a]
			}
			if b >= 0 {
				out |= liveIn[b]
			}
			in := use[pc] | (out &^ def[pc])
			if in != liveIn[pc] {
				liveIn[pc] = in
				changed = true
			}
		}
	}
	return liveIn
}

// ctrlRegs collects registers read by control-flow instructions anywhere in
// the program; computation feeding control must stay on the GPU, where all
// control flow executes.
func ctrlRegs(code []isa.Instr) map[isa.Reg]bool {
	regs := map[isa.Reg]bool{}
	for _, in := range code {
		if in.Op == isa.BRP {
			regs[in.Src[0]] = true
		}
	}
	return regs
}

// buildBlock computes annotations, NSU code, register transfers, and the
// score for one region; returns nil if the region should not become a block.
// It may shrink r.end when a GPU-side instruction would need in-region
// memory data (which only the NSU will have).
func buildBlock(code []isa.Instr, liveIn []uint64, r *region, id int) *Block {
	ctrl := ctrlRegs(code)
retry:
	numLD, numST := 0, 0
	for i := r.start; i <= r.end; i++ {
		switch code[i].Op {
		case isa.LD:
			numLD++
		case isa.ST:
			numST++
		}
	}
	if numLD+numST == 0 {
		return nil
	}

	n := r.end - r.start + 1
	r.addrCalc = make([]bool, n)

	// GPU-side marking. A register is GPU-needed if it is a memory-op
	// address operand or feeds control flow. Any in-region instruction
	// writing a GPU-needed register is marked GPU-side (addrCalc), and its
	// sources become GPU-needed in turn. The fixpoint is position-blind on
	// purpose: it also catches loop-carried address chains (an induction
	// update after the last store still feeds the next instance's
	// addresses, so it must execute on the GPU).
	// Memory-op predicates join the GPU-needed set alongside addresses:
	// the GPU computes each packet's active thread mask, so it must be
	// able to evaluate the predicate (the NSU evaluates it too; the
	// producer is duplicated to both sides when needed).
	wanted := map[isa.Reg]bool{}
	for i := r.start; i <= r.end; i++ {
		if code[i].Op.IsMem() {
			wanted[code[i].Src[0]] = true
			if code[i].Pred != isa.RNone {
				wanted[code[i].Pred] = true
			}
		}
	}
	for rg := range ctrl {
		wanted[rg] = true
	}
	for changed := true; changed; {
		changed = false
		for i := r.start; i <= r.end; i++ {
			in := code[i]
			if !gpuExecutable(in.Op) || !in.Op.WritesDst() || r.addrCalc[i-r.start] || !wanted[in.Dst] {
				continue
			}
			r.addrCalc[i-r.start] = true
			changed = true
			for s := 0; s < in.Op.SrcCount(); s++ {
				wanted[in.Src[s]] = true
			}
			if in.Pred != isa.RNone {
				wanted[in.Pred] = true
			}
		}
	}

	// A GPU-side instruction must never read in-region memory data: the
	// loaded values exist only on the NSU during offloaded execution. If
	// one does, shrink the region to end just before the first violator.
	// When a loop can re-enter the region, the check is cyclic: a GPU-side
	// read may also see the previous iteration's load results, so the
	// taint set is pre-seeded with every load destination.
	reentrant := false
	for pc, in := range code {
		if (in.Op == isa.BRA || in.Op == isa.BRP) && pc >= r.end && int(in.Imm) <= r.start {
			reentrant = true
			break
		}
	}
	loadDst := map[isa.Reg]bool{}
	if reentrant {
		for i := r.start; i <= r.end; i++ {
			if code[i].Op == isa.LD {
				loadDst[code[i].Dst] = true
			}
		}
	}
	for i := r.start; i <= r.end; i++ {
		in := code[i]
		if r.addrCalc[i-r.start] {
			for s := 0; s < in.Op.SrcCount(); s++ {
				if loadDst[in.Src[s]] {
					if i-1 < r.start {
						return nil
					}
					r.end = i - 1
					goto retry
				}
			}
		}
		if in.Op == isa.LD {
			loadDst[in.Dst] = true
		} else if in.Op.WritesDst() {
			delete(loadDst, in.Dst)
		}
	}

	// NSU-side instruction set: all non-addr-calc instructions, plus any
	// addr-calc instruction whose result is read by an NSU-side
	// instruction (duplicated on both sides). Resolve by reverse scan.
	nsuSide := make([]bool, n)
	neededByNSU := map[isa.Reg]bool{}
	for pass := 0; pass < n; pass++ { // fixpoint; n passes suffice
		changed := false
		neededByNSU = map[isa.Reg]bool{}
		for i := n - 1; i >= 0; i-- {
			in := code[r.start+i]
			include := false
			switch {
			case in.Op.IsMem():
				include = true
			case !r.addrCalc[i]:
				include = true
			case in.Op.WritesDst() && neededByNSU[in.Dst]:
				include = true // duplicated addr-calc
			}
			if include {
				if !nsuSide[i] {
					nsuSide[i] = true
					changed = true
				}
				if in.Op == isa.LD {
					// NSU load reads no data registers (data comes from the
					// read-data buffer) but does evaluate its predicate.
					delete(neededByNSU, in.Dst)
					if in.Pred != isa.RNone {
						neededByNSU[in.Pred] = true
					}
					continue
				}
				if in.Op.WritesDst() {
					delete(neededByNSU, in.Dst)
				}
				srcStart := 0
				if in.Op == isa.ST {
					srcStart = 1 // address register not read on NSU
				}
				for s := srcStart; s < in.Op.SrcCount(); s++ {
					neededByNSU[in.Src[s]] = true
				}
				if in.Pred != isa.RNone {
					neededByNSU[in.Pred] = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// RegsIn: registers read by NSU-side code before definition there.
	defined := map[isa.Reg]bool{}
	var regsIn []isa.Reg
	seenIn := map[isa.Reg]bool{}
	addIn := func(r isa.Reg) {
		if r != isa.RNone && !defined[r] && !seenIn[r] {
			seenIn[r] = true
			regsIn = append(regsIn, r)
		}
	}
	for i := 0; i < n; i++ {
		if !nsuSide[i] {
			continue
		}
		in := code[r.start+i]
		if in.Op == isa.LD {
			addIn(in.Pred)
			defined[in.Dst] = true
			continue
		}
		srcStart := 0
		if in.Op == isa.ST {
			srcStart = 1
		}
		for s := srcStart; s < in.Op.SrcCount(); s++ {
			addIn(in.Src[s])
		}
		if in.Pred != isa.RNone {
			addIn(in.Pred)
		}
		if in.Op.WritesDst() {
			defined[in.Dst] = true
		}
	}

	// RegsOut: NSU-written registers read anywhere outside the region.
	writtenNSU := map[isa.Reg]bool{}
	for i := 0; i < n; i++ {
		in := code[r.start+i]
		if nsuSide[i] && in.Op.WritesDst() {
			// Duplicated addr-calc also executes on the GPU, so its result
			// is already present there; no transfer back needed.
			if !(gpuExecutable(in.Op) && r.addrCalc[i]) {
				writtenNSU[in.Dst] = true
			}
		}
	}
	// RegsOut = NSU-written registers live at the region exit, from a real
	// backward-dataflow liveness over the CFG. This also captures
	// loop-carried uses: a back edge into the region makes accumulators
	// live at the exit automatically.
	var liveOut uint64
	if r.end+1 < len(code) {
		liveOut = liveIn[r.end+1]
	}
	var regsOut []isa.Reg
	for rg := range writtenNSU {
		if liveOut&(1<<uint(rg)) != 0 {
			regsOut = append(regsOut, rg)
		}
	}
	sortRegs(regsOut)

	// Equation 1, in bytes per thread: each load or store moves one data
	// word, and each transferred register costs one word.
	traffic := (numLD + numST) * core.WordBytes
	overhead := (len(regsIn) + len(regsOut)) * core.WordBytes
	score := traffic - overhead
	if !r.indirect && score <= 0 {
		return nil
	}

	// Generate NSU code.
	nsu := []isa.Instr{brk(isa.OFLDBEG, id)}
	for i := 0; i < n; i++ {
		if !nsuSide[i] {
			continue
		}
		in := code[r.start+i]
		switch in.Op {
		case isa.LD:
			t := isa.New(isa.LD)
			t.Dst = in.Dst
			t.Pred, t.PredNeg = in.Pred, in.PredNeg
			t.BlockID = id
			nsu = append(nsu, t)
		case isa.ST:
			t := isa.New(isa.ST)
			t.Src[1] = in.Src[1] // value only; address comes from the WTA buffer
			t.Pred, t.PredNeg = in.Pred, in.PredNeg
			t.BlockID = id
			nsu = append(nsu, t)
		default:
			t := in
			t.BlockID = id
			t.AtNSU = false
			t.AddrCalc = false
			nsu = append(nsu, t)
		}
	}
	nsu = append(nsu, brk(isa.OFLDEND, id))

	return &Block{
		ID:       id,
		NSUCode:  nsu,
		NumLD:    numLD,
		NumST:    numST,
		RegsIn:   regsIn,
		RegsOut:  regsOut,
		Score:    score,
		Indirect: r.indirect,
	}
}

// sortRegs orders a register list for deterministic output.
func sortRegs(rs []isa.Reg) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func brk(op isa.Opcode, id int) isa.Instr {
	in := isa.New(op)
	in.BlockID = id
	return in
}
