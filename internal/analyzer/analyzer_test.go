package analyzer

import (
	"testing"

	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
)

// vaddKernel: the Figure 2/3 example. c[i] = a[i] + b[i].
func vaddKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder()
	b.OpImm(isa.SHLI, 16, kernel.RegGTID, 2) // byte offset (addr calc)
	b.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	b.Op3(isa.ADD, 18, kernel.RegParam0+1, 16)
	b.Op3(isa.ADD, 19, kernel.RegParam0+2, 16)
	b.Ld(20, 17, 0)
	b.Ld(21, 18, 0)
	b.Op3(isa.FADD, 22, 20, 21)
	b.St(19, 0, 22)
	b.Exit()
	return b.MustBuild("vadd", 4, 64, 0x1000, 0x2000, 0x3000)
}

func TestVaddSingleBlock(t *testing.T) {
	p, err := Analyze(vaddKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(p.Blocks))
	}
	blk := p.Blocks[0]
	if blk.NumLD != 2 || blk.NumST != 1 {
		t.Fatalf("NumLD/NumST = %d/%d, want 2/1", blk.NumLD, blk.NumST)
	}
	// NSU code: ofld.beg, ld, ld, fadd, st, ofld.end -> 4 instructions.
	if blk.NSUInstrs() != 4 {
		t.Fatalf("NSU instrs = %d, want 4\n%v", blk.NSUInstrs(), blk.NSUCode)
	}
	// fadd result is dead after the store: no registers transferred.
	if len(blk.RegsIn) != 0 || len(blk.RegsOut) != 0 {
		t.Fatalf("RegsIn=%v RegsOut=%v, want none", blk.RegsIn, blk.RegsOut)
	}
	// Score: 3 mem ops x 4 B - 0 = 12.
	if blk.Score != 12 {
		t.Fatalf("score = %d, want 12", blk.Score)
	}
}

func TestVaddRewriteShape(t *testing.T) {
	p, err := Analyze(vaddKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	code := p.Kernel.Code
	blk := p.Blocks[0]
	if code[blk.BegPC].Op != isa.OFLDBEG || code[blk.EndPC].Op != isa.OFLDEND {
		t.Fatal("brackets not placed at BegPC/EndPC")
	}
	// Address-calc ALU marked, compute ALU marked @NSU.
	var addrCalc, atNSU int
	for _, in := range code[blk.BegPC+1 : blk.EndPC] {
		if in.AddrCalc {
			addrCalc++
		}
		if in.AtNSU {
			atNSU++
		}
	}
	if addrCalc != 4 { // shli + 3 adds
		t.Fatalf("addr-calc instrs = %d, want 4", addrCalc)
	}
	if atNSU != 1 { // fadd
		t.Fatalf("@NSU instrs = %d, want 1", atNSU)
	}
	// NSU code must not contain the address calculations.
	for _, in := range blk.NSUCode {
		if in.Op == isa.SHLI || in.Op == isa.ADD {
			t.Fatalf("address-calc op %v leaked into NSU code", in.Op)
		}
	}
}

// indirectKernel: x = B[A[i]] (the §4.4 pattern).
func indirectKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder()
	b.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 17, kernel.RegParam0, 16) // &A[i]
	b.Ld(18, 17, 0)                          // idx = A[i]
	b.OpImm(isa.SHLI, 19, 18, 2)
	b.Op3(isa.ADD, 20, kernel.RegParam0+1, 19) // &B[idx]
	b.Ld(21, 20, 0)                            // x = B[idx]  <- indirect
	b.OpImm(isa.SHLI, 22, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 23, kernel.RegParam0+2, 22)
	b.St(23, 0, 21)
	b.Exit()
	return b.MustBuild("indirect", 4, 64, 0x1000, 0x2000, 0x3000)
}

func TestIndirectLoadSplitsOwnBlock(t *testing.T) {
	p, err := Analyze(indirectKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	var indirect *Block
	for _, blk := range p.Blocks {
		if blk.Indirect {
			if indirect != nil {
				t.Fatal("more than one indirect block")
			}
			indirect = blk
		}
	}
	if indirect == nil {
		t.Fatalf("no indirect block found; blocks: %+v", p.Blocks)
	}
	if indirect.NumLD != 1 || indirect.NumST != 0 {
		t.Fatalf("indirect block LD/ST = %d/%d, want 1/0", indirect.NumLD, indirect.NumST)
	}
	if indirect.NSUInstrs() != 1 {
		t.Fatalf("indirect NSU instrs = %d, want 1", indirect.NSUInstrs())
	}
	// The loaded value (r21) is consumed by the later store -> transferred back.
	found := false
	for _, r := range indirect.RegsOut {
		if r == 21 {
			found = true
		}
	}
	if !found {
		t.Fatalf("r21 not in RegsOut: %v", indirect.RegsOut)
	}
}

func TestScratchpadExcluded(t *testing.T) {
	b := kernel.NewBuilder()
	b.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	b.Ld(18, 17, 0)
	b.Sts(16, 0, 18) // scratchpad store: breaks the region
	b.Bar()
	b.Lds(19, 16, 0)
	b.St(17, 0, 19)
	b.Exit()
	k := b.MustBuild("smem", 4, 64, 0x1000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range p.Blocks {
		for _, in := range blk.NSUCode {
			if in.Op == isa.LDS || in.Op == isa.STS || in.Op == isa.BAR {
				t.Fatalf("scratchpad/sync op %v inside offload block", in.Op)
			}
		}
	}
}

func TestBlocksNeverSpanBasicBlocks(t *testing.T) {
	// Unrolled-by-4 accumulation loop: enough loads per block instance to
	// amortize the accumulator round-trip (tight 1-load loops score <= 0).
	b := kernel.NewBuilder()
	loop := b.NewLabel()
	b.MovI(16, 4)
	b.OpImm(isa.SHLI, 17, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 18, kernel.RegParam0, 17)
	b.Bind(loop)
	b.Ld(19, 18, 0)
	b.Ld(22, 18, 4)
	b.Ld(23, 18, 8)
	b.Ld(24, 18, 12)
	b.Op3(isa.FADD, 19, 19, 22)
	b.Op3(isa.FADD, 23, 23, 24)
	b.Op3(isa.FADD, 20, 19, 23)
	b.St(18, 0, 20)
	b.OpImm(isa.ADDI, 18, 18, 512)
	b.OpImm(isa.ADDI, 16, 16, -1)
	b.Setp(isa.CmpGT, 21, 16, 25)
	b.Brp(21, loop)
	b.Exit()
	k := b.MustBuild("loop", 4, 64, 0x1000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) == 0 {
		t.Fatal("expected at least one block in the loop body")
	}
	// Rewritten code must still validate (branch targets fixed up).
	if err := p.Kernel.Validate(); err != nil {
		t.Fatalf("rewritten kernel invalid: %v", err)
	}
	// No branch may live inside an offload block.
	for _, blk := range p.Blocks {
		for _, in := range p.Kernel.Code[blk.BegPC+1 : blk.EndPC] {
			if in.Op.Class() == isa.ClassCtrl {
				t.Fatalf("control op %v inside offload block", in.Op)
			}
		}
	}
}

func TestBranchTargetsRemapped(t *testing.T) {
	b := kernel.NewBuilder()
	loop := b.NewLabel()
	b.MovI(16, 4)
	b.Bind(loop)
	b.OpImm(isa.SHLI, 17, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 18, kernel.RegParam0, 17)
	b.Ld(19, 18, 0)
	b.Op3(isa.FADD, 19, 19, 19)
	b.St(18, 0, 19)
	b.OpImm(isa.ADDI, 16, 16, -1)
	b.Setp(isa.CmpGT, 20, 16, 21)
	b.Brp(20, loop)
	b.Exit()
	k := b.MustBuild("loop2", 4, 64, 0x1000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	// Find the BRP and check it targets the movi+1 position in NEW code.
	for _, in := range p.Kernel.Code {
		if in.Op == isa.BRP {
			tgt := p.Kernel.Code[in.Imm]
			// The loop head in the rewritten code is the first instruction
			// after movi: either shli or an inserted OFLDBEG.
			if tgt.Op != isa.SHLI && tgt.Op != isa.OFLDBEG {
				t.Fatalf("branch target remapped to %v", tgt.Op)
			}
		}
	}
}

func TestRegisterTransferIn(t *testing.T) {
	// Figure 3: MUL F2, F0, F1 where F0 is computed before the block.
	b := kernel.NewBuilder()
	b.Op2(isa.I2F, 16, kernel.RegGTID) // F0 computed outside region? No: ALU is offloadable.
	b.Bar()                            // force region boundary so r16 is pre-block
	b.OpImm(isa.SHLI, 17, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 18, kernel.RegParam0, 17)
	b.Ld(19, 18, 0)
	b.Op3(isa.FMUL, 20, 16, 19) // reads pre-block r16
	b.Op3(isa.ADD, 21, kernel.RegParam0+1, 17)
	b.St(21, 0, 20)
	b.Exit()
	k := b.MustBuild("regin", 4, 64, 0x1000, 0x2000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(p.Blocks))
	}
	blk := p.Blocks[0]
	if len(blk.RegsIn) != 1 || blk.RegsIn[0] != 16 {
		t.Fatalf("RegsIn = %v, want [16]", blk.RegsIn)
	}
	// Score: 2 mem x 4 - 1 reg x 4 = 4.
	if blk.Score != 4 {
		t.Fatalf("score = %d, want 4", blk.Score)
	}
}

func TestNegativeScoreRejected(t *testing.T) {
	// One store of a GPU-computed value, plus needing many regs in: the
	// overhead exceeds the traffic reduction, so no block is formed.
	b := kernel.NewBuilder()
	b.Op2(isa.I2F, 16, kernel.RegGTID)
	b.Op2(isa.I2F, 17, kernel.RegCTAID)
	b.Bar() // r16, r17 now pre-block
	b.OpImm(isa.SHLI, 18, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 19, kernel.RegParam0, 18)
	b.Op3(isa.FADD, 20, 16, 17) // needs two regs in
	b.St(19, 0, 20)             // one store: traffic 4, overhead 8
	b.Exit()
	k := b.MustBuild("negscore", 4, 64, 0x1000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 0 {
		t.Fatalf("blocks = %d, want 0 (score must be negative): %+v", len(p.Blocks), p.Blocks[0])
	}
}

func TestDuplicatedAddrCalcNotReturned(t *testing.T) {
	// The byte-offset shli feeds both the address and (via i2f) the stored
	// value: it is duplicated to both sides but must not appear in RegsOut.
	b := kernel.NewBuilder()
	b.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	b.Ld(18, 17, 0)
	b.Op2(isa.I2F, 19, 16) // reads the addr-calc value
	b.Op3(isa.FADD, 20, 18, 19)
	b.St(17, 0, 20)
	b.Exit()
	k := b.MustBuild("dual", 4, 64, 0x1000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(p.Blocks))
	}
	blk := p.Blocks[0]
	for _, r := range blk.RegsOut {
		if r == 16 {
			t.Fatal("duplicated addr-calc result r16 wrongly in RegsOut")
		}
	}
	// NSU code needs the shli duplicated (r16 read by i2f) or r16 as RegIn.
	hasShli := false
	for _, in := range blk.NSUCode {
		if in.Op == isa.SHLI {
			hasShli = true
		}
	}
	regIn16 := false
	for _, r := range blk.RegsIn {
		if r == 16 {
			regIn16 = true
		}
	}
	if !hasShli && !regIn16 {
		t.Fatal("NSU code can not compute r16: neither duplicated nor transferred")
	}
}

func TestAnalyzeIsIdempotentOnInput(t *testing.T) {
	k := vaddKernel(t)
	before := len(k.Code)
	if _, err := Analyze(k); err != nil {
		t.Fatal(err)
	}
	if len(k.Code) != before {
		t.Fatal("Analyze mutated its input kernel")
	}
	for _, in := range k.Code {
		if in.Op == isa.OFLDBEG || in.Op == isa.OFLDEND {
			t.Fatal("Analyze inserted brackets into the input")
		}
	}
}

func TestTable1StyleCounts(t *testing.T) {
	// VADD's offload block has 4 NSU instructions in Table 1 (2 LD, 1 ALU,
	// 1 ST). Our vadd matches.
	p, err := Analyze(vaddKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Blocks[0].NSUInstrs(); got != 4 {
		t.Fatalf("VADD NSU instrs = %d, want 4 (Table 1)", got)
	}
}

// TestTailTrimDropsReductionTail: a reduction block (loads + accumulate +
// min-update tail) should end at the arithmetic producing the result, with
// the comparison/select tail left to the GPU — one register out instead of
// a loop-state round trip.
func TestTailTrimDropsReductionTail(t *testing.T) {
	b := kernel.NewBuilder()
	loop := b.NewLabel()
	b.MovI(16, 4)          // loop counter
	b.MovI(20, 0x7F800000) // best = +inf bits
	b.MovI(21, 0)          // best index
	b.OpImm(isa.SHLI, 17, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 18, kernel.RegParam0, 17)
	b.Bind(loop)
	b.MovI(25, 0) // dist
	for f := 0; f < 4; f++ {
		b.Ld(26, 18, int64(4*f))
		b.Op4(isa.FMA, 25, 26, 26, 25)
	}
	b.Setp(isa.CmpFLT, 27, 25, 20)
	b.Op4(isa.SEL, 20, 25, 20, 27)
	b.Op4(isa.SEL, 21, 16, 21, 27)
	b.OpImm(isa.ADDI, 18, 18, 1024)
	b.OpImm(isa.ADDI, 16, 16, -1)
	b.MovI(28, 0)
	b.Setp(isa.CmpGT, 29, 16, 28)
	b.Brp(29, loop)
	b.Op3(isa.ADD, 30, kernel.RegParam0+1, 17)
	b.St(30, 0, 21)
	b.Exit()
	k := b.MustBuild("kmnish", 2, 64, 0x1000, 0x2000)

	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	var blk *Block
	for _, c := range p.Blocks {
		if c.NumLD == 4 {
			blk = c
		}
	}
	if blk == nil {
		t.Fatalf("no 4-load block found: %+v", p.Blocks)
	}
	// Tail trim leaves only the dist result to transfer back, not the
	// best/bestIdx loop state.
	if len(blk.RegsIn)+len(blk.RegsOut) > 2 {
		t.Fatalf("transfers not minimized: in=%v out=%v", blk.RegsIn, blk.RegsOut)
	}
	for _, in := range blk.NSUCode {
		if in.Op == isa.SEL || in.Op == isa.SETP {
			t.Fatalf("min-update tail (%v) left inside the block", in.Op)
		}
	}
}

// TestLDCStaysInBlocks: constant loads are legal NSU instructions (Table 2
// gives the NSU a constant cache) and never become RDF traffic.
func TestLDCStaysInBlocks(t *testing.T) {
	b := kernel.NewBuilder()
	b.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	b.Ld(18, 17, 0)
	b.Ldc(19, kernel.RegParam0+1, 4)
	b.Op3(isa.FMUL, 20, 18, 19)
	b.St(17, 0, 20)
	b.Exit()
	k := b.MustBuild("ldc", 2, 64, 0x1000, 0x2000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(p.Blocks))
	}
	blk := p.Blocks[0]
	if blk.NumLD != 1 {
		t.Fatalf("NumLD = %d: LDC must not count as a global load", blk.NumLD)
	}
	found := false
	for _, in := range blk.NSUCode {
		if in.Op == isa.LDC {
			found = true
		}
	}
	if !found {
		t.Fatal("LDC missing from NSU code")
	}
}

// TestMergedIndirectRegion: back-to-back indirect gathers form one block so
// a burst costs one offload round trip.
func TestMergedIndirectRegion(t *testing.T) {
	b := kernel.NewBuilder()
	b.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	b.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	b.Ld(18, 17, 0) // idx0
	b.Ld(19, 17, 4) // idx1
	b.OpImm(isa.SHLI, 20, 18, 2)
	b.Op3(isa.ADD, 20, kernel.RegParam0+1, 20)
	b.OpImm(isa.SHLI, 21, 19, 2)
	b.Op3(isa.ADD, 21, kernel.RegParam0+1, 21)
	b.Ld(22, 20, 0) // gather 0
	b.Ld(23, 21, 0) // gather 1 (adjacent: merges)
	b.Op3(isa.FADD, 24, 22, 23)
	b.Op3(isa.ADD, 25, kernel.RegParam0+2, 16)
	b.St(25, 0, 24)
	b.Exit()
	k := b.MustBuild("gather2", 2, 64, 0x1000, 0x2000, 0x3000)
	p, err := Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	var merged *Block
	for _, c := range p.Blocks {
		if c.Indirect {
			if merged != nil {
				t.Fatal("adjacent gathers were not merged into one block")
			}
			merged = c
		}
	}
	if merged == nil || merged.NumLD != 2 {
		t.Fatalf("merged indirect block missing or wrong: %+v", merged)
	}
}
