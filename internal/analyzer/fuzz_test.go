package analyzer

import (
	"math/rand"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/interp"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/vm"
)

// randomProgram generates a random (possibly offload-hostile) kernel mixing
// ALU chains, loads, stores, constant loads, predication, scratchpad, and a
// uniform loop.
func randomProgram(rng *rand.Rand) *kernel.Kernel {
	kb := kernel.NewBuilder()
	kb.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	kb.Op3(isa.ADD, 17, kernel.RegParam0, 16)   // input base
	kb.Op3(isa.ADD, 18, kernel.RegParam0+1, 16) // output base
	kb.OpImm(isa.ANDI, 19, kernel.RegGTID, 1)   // predicate

	live := []isa.Reg{16, 17}
	next := isa.Reg(24)
	var loop *kernel.Label
	loopOpen := false
	if rng.Intn(2) == 0 {
		kb.MovI(20, int64(2+rng.Intn(3)))
		loop = kb.NewLabel()
		kb.Bind(loop)
		loopOpen = true
	}

	steps := 3 + rng.Intn(12)
	for s := 0; s < steps && next < 58; s++ {
		switch rng.Intn(8) {
		case 0, 1:
			kb.Ld(next, 17, int64(4*rng.Intn(4)))
			live = append(live, next)
			next++
		case 2:
			pc := kb.Ld(next, 17, 0)
			kb.Predicate(pc, 19, rng.Intn(2) == 0)
			live = append(live, next)
			next++
		case 3:
			kb.Ldc(next, kernel.RegParam0, int64(4*rng.Intn(4)))
			live = append(live, next)
			next++
		case 4, 5:
			a := live[rng.Intn(len(live))]
			b := live[rng.Intn(len(live))]
			ops := []isa.Opcode{isa.FADD, isa.FMUL, isa.ADD, isa.XOR, isa.MIN}
			kb.Op3(ops[rng.Intn(len(ops))], next, a, b)
			live = append(live, next)
			next++
		case 6:
			v := live[rng.Intn(len(live))]
			kb.St(18, int64(4*rng.Intn(4)), v)
		case 7:
			// Indirect address: load an index, use it as an address.
			kb.Ld(next, 17, 0)
			kb.OpImm(isa.ANDI, next+1, next, 0xFF)
			kb.OpImm(isa.SHLI, next+1, next+1, 2)
			kb.Op3(isa.ADD, next+1, kernel.RegParam0, next+1)
			kb.Ld(next+2, next+1, 0)
			live = append(live, next+2)
			next += 3
		}
	}
	kb.St(18, 0, live[len(live)-1])
	if loopOpen {
		kb.OpImm(isa.ADDI, 20, 20, -1)
		kb.MovI(21, 0)
		kb.Setp(isa.CmpGT, 22, 20, 21)
		kb.Brp(22, loop)
	}
	kb.Exit()
	return kb.MustBuild("fuzz", 2, 64, 0x10000, 0x20000)
}

// TestAnalyzerFuzzInvariants checks structural invariants of the analysis
// over many random programs:
//
//  1. the rewritten kernel validates and its brackets nest properly;
//  2. offload blocks contain only ALU/const/memory instructions;
//  3. no GPU-side (addr-calc) instruction reads a register produced by an
//     in-region load;
//  4. NSU code contains no control flow, scratchpad, or address-calc ops;
//  5. register-transfer lists are duplicate-free.
func TestAnalyzerFuzzInvariants(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k := randomProgram(rng)
		prog, err := Analyze(k)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, k.Disassemble())
		}
		code := prog.Kernel.Code

		depth := 0
		for pc, in := range code {
			switch in.Op {
			case isa.OFLDBEG:
				depth++
				if depth != 1 {
					t.Fatalf("trial %d: nested OFLDBEG at pc %d", trial, pc)
				}
			case isa.OFLDEND:
				depth--
				if depth != 0 {
					t.Fatalf("trial %d: unmatched OFLDEND at pc %d", trial, pc)
				}
			case isa.BRA, isa.BRP, isa.BAR, isa.EXIT, isa.LDS, isa.STS:
				if depth != 0 {
					t.Fatalf("trial %d: %v inside offload block at pc %d", trial, in.Op, pc)
				}
			}
		}
		if depth != 0 {
			t.Fatalf("trial %d: unbalanced brackets", trial)
		}

		for _, b := range prog.Blocks {
			loadDst := map[isa.Reg]bool{}
			if reenterable(code, b.BegPC, b.EndPC) {
				for _, in := range code[b.BegPC+1 : b.EndPC] {
					if in.Op == isa.LD {
						loadDst[in.Dst] = true
					}
				}
			}
			for _, in := range code[b.BegPC+1 : b.EndPC] {
				if in.AddrCalc {
					for s := 0; s < in.Op.SrcCount(); s++ {
						if loadDst[in.Src[s]] {
							t.Fatalf("trial %d block %d: GPU-side %v reads load data r%d",
								trial, b.ID, in, in.Src[s])
						}
					}
				}
				if in.Op == isa.LD {
					loadDst[in.Dst] = true
				} else if in.Op.WritesDst() {
					delete(loadDst, in.Dst)
				}
			}
			for _, in := range b.NSUCode {
				switch in.Op.Class() {
				case isa.ClassCtrl, isa.ClassSmem:
					t.Fatalf("trial %d block %d: %v in NSU code", trial, b.ID, in.Op)
				}
			}
			seen := map[isa.Reg]bool{}
			for _, r := range b.RegsIn {
				if seen[r] {
					t.Fatalf("trial %d block %d: duplicate RegsIn %d", trial, b.ID, r)
				}
				seen[r] = true
			}
			seen = map[isa.Reg]bool{}
			for _, r := range b.RegsOut {
				if seen[r] {
					t.Fatalf("trial %d block %d: duplicate RegsOut %d", trial, b.ID, r)
				}
				seen[r] = true
			}
		}
	}
}

// reenterable reports whether a backward branch can re-enter [beg, end].
func reenterable(code []isa.Instr, beg, end int) bool {
	for pc, in := range code {
		if (in.Op == isa.BRA || in.Op == isa.BRP) && pc >= end && int(in.Imm) <= beg {
			return true
		}
	}
	return false
}

// TestRewritePreservesSemantics runs random programs through the reference
// interpreter before and after the offload rewrite: inserting brackets,
// remapping branches, and annotating instructions must never change what
// the kernel computes (the interpreter executes @NSU instructions in place
// and treats the brackets as no-ops).
func TestRewritePreservesSemantics(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		k := randomProgram(rng)

		runOnce := func(kk *kernel.Kernel) []uint32 {
			mem := vm.New(config.Default())
			in := mem.Alloc(1 << 12)
			out := mem.Alloc(1 << 12)
			dataRng := rand.New(rand.NewSource(int64(trial)))
			for off := uint64(0); off < 1<<12; off += 4 {
				mem.Write32(in+off, dataRng.Uint32())
				mem.Write32(out+off, 0)
			}
			run := *kk
			run.Params = []uint64{in, out}
			if err := interp.Run(&run, mem); err != nil {
				t.Fatalf("trial %d: interp: %v\n%s", trial, err, kk.Disassemble())
			}
			words := make([]uint32, 1<<10)
			for i := range words {
				words[i] = mem.Read32(out + uint64(4*i))
			}
			return words
		}

		before := runOnce(k)
		prog, err := Analyze(k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		after := runOnce(prog.Kernel)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("trial %d: rewrite changed output word %d: %#x -> %#x\nbefore:\n%s\nafter:\n%s",
					trial, i, before[i], after[i], k.Disassemble(), prog.Kernel.Disassemble())
			}
		}
	}
}
