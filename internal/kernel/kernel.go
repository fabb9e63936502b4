// Package kernel represents GPU kernels in the virtual ISA, their launch
// geometry, and a small builder DSL used by the workload generators.
//
// Register ABI at thread spawn:
//
//	r0 = global thread id  (ctaid*ntid + tid)
//	r1 = CTA id
//	r2 = thread id within the CTA
//	r3 = threads per CTA (ntid)
//	r4..r(4+len(Params)-1) = kernel parameters (array base addresses, scalars)
//
// Workloads allocate scratch registers from r16 upward by convention.
package kernel

import (
	"fmt"

	"ndpgpu/internal/isa"
)

// ABI register assignments.
const (
	RegGTID   isa.Reg = 0
	RegCTAID  isa.Reg = 1
	RegTID    isa.Reg = 2
	RegNTID   isa.Reg = 3
	RegParam0 isa.Reg = 4
)

// Kernel is a compiled kernel plus its launch configuration.
type Kernel struct {
	Name      string
	Code      []isa.Instr
	GridDim   int // number of CTAs
	BlockDim  int // threads per CTA (multiple of warp width)
	Params    []uint64
	RegsUsed  int // highest register index used + 1 (for occupancy limits)
	SmemBytes int // scratchpad bytes per CTA
}

// Threads returns the total thread count of the launch.
func (k *Kernel) Threads() int { return k.GridDim * k.BlockDim }

// Validate checks the kernel's code and geometry.
func (k *Kernel) Validate() error {
	if k.BlockDim <= 0 || k.GridDim <= 0 {
		return fmt.Errorf("kernel %s: non-positive launch geometry %dx%d", k.Name, k.GridDim, k.BlockDim)
	}
	if len(k.Code) == 0 {
		return fmt.Errorf("kernel %s: empty code", k.Name)
	}
	for pc, in := range k.Code {
		if err := in.Validate(len(k.Code)); err != nil {
			return fmt.Errorf("kernel %s pc=%d: %w", k.Name, pc, err)
		}
	}
	if k.Code[len(k.Code)-1].Op != isa.EXIT && k.Code[len(k.Code)-1].Op != isa.BRA {
		return fmt.Errorf("kernel %s: code must end in exit or branch", k.Name)
	}
	return nil
}

// Disassemble renders the kernel code with PC labels.
func (k *Kernel) Disassemble() string {
	out := ""
	for pc, in := range k.Code {
		out += fmt.Sprintf("%4d: %s\n", pc, in.String())
	}
	return out
}

// Builder assembles kernel code instruction by instruction.
type Builder struct {
	code    []isa.Instr
	maxReg  isa.Reg
	pending []fixup // forward-branch fixups
}

type fixup struct {
	pc    int
	label *Label
}

// Label is a branch target that may be bound after the branch is emitted.
type Label struct {
	pc    int
	bound bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

func (b *Builder) track(rs ...isa.Reg) {
	for _, r := range rs {
		if r != isa.RNone && r > b.maxReg {
			b.maxReg = r
		}
	}
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Instr) int {
	b.track(in.Dst, in.Src[0], in.Src[1], in.Src[2], in.Pred)
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// Op3 emits a three-operand register instruction: dst = op(a, b).
func (b *Builder) Op3(op isa.Opcode, dst, a, bb isa.Reg) int {
	in := isa.New(op)
	in.Dst, in.Src[0], in.Src[1] = dst, a, bb
	return b.Emit(in)
}

// Op4 emits a four-operand register instruction: dst = op(a, b, c).
func (b *Builder) Op4(op isa.Opcode, dst, a, bb, c isa.Reg) int {
	in := isa.New(op)
	in.Dst, in.Src[0], in.Src[1], in.Src[2] = dst, a, bb, c
	return b.Emit(in)
}

// OpImm emits an immediate-form instruction: dst = op(a, imm).
func (b *Builder) OpImm(op isa.Opcode, dst, a isa.Reg, imm int64) int {
	in := isa.New(op)
	in.Dst, in.Src[0], in.Imm = dst, a, imm
	return b.Emit(in)
}

// Op2 emits a two-operand instruction: dst = op(a).
func (b *Builder) Op2(op isa.Opcode, dst, a isa.Reg) int {
	in := isa.New(op)
	in.Dst, in.Src[0] = dst, a
	return b.Emit(in)
}

// MovI emits dst = imm.
func (b *Builder) MovI(dst isa.Reg, imm int64) int {
	in := isa.New(isa.MOVI)
	in.Dst, in.Imm = dst, imm
	return b.Emit(in)
}

// Setp emits dst = cmp(a, b) ? 1 : 0.
func (b *Builder) Setp(cmp isa.CmpOp, dst, a, bb isa.Reg) int {
	in := isa.New(isa.SETP)
	in.Dst, in.Src[0], in.Src[1], in.Cmp = dst, a, bb, cmp
	return b.Emit(in)
}

// Ld emits dst = mem[addr+off].
func (b *Builder) Ld(dst, addr isa.Reg, off int64) int {
	in := isa.New(isa.LD)
	in.Dst, in.Src[0], in.Imm = dst, addr, off
	return b.Emit(in)
}

// St emits mem[addr+off] = src.
func (b *Builder) St(addr isa.Reg, off int64, src isa.Reg) int {
	in := isa.New(isa.ST)
	in.Src[0], in.Src[1], in.Imm = addr, src, off
	return b.Emit(in)
}

// Ldc emits dst = const[addr+off] (read-only constant memory).
func (b *Builder) Ldc(dst, addr isa.Reg, off int64) int {
	in := isa.New(isa.LDC)
	in.Dst, in.Src[0], in.Imm = dst, addr, off
	return b.Emit(in)
}

// Lds emits dst = smem[addr+off].
func (b *Builder) Lds(dst, addr isa.Reg, off int64) int {
	in := isa.New(isa.LDS)
	in.Dst, in.Src[0], in.Imm = dst, addr, off
	return b.Emit(in)
}

// Sts emits smem[addr+off] = src.
func (b *Builder) Sts(addr isa.Reg, off int64, src isa.Reg) int {
	in := isa.New(isa.STS)
	in.Src[0], in.Src[1], in.Imm = addr, src, off
	return b.Emit(in)
}

// Bar emits a CTA barrier.
func (b *Builder) Bar() int { return b.Emit(isa.New(isa.BAR)) }

// NewLabel creates an unbound label.
func (b *Builder) NewLabel() *Label { return &Label{} }

// Bind binds the label to the next instruction.
func (b *Builder) Bind(l *Label) {
	l.pc, l.bound = len(b.code), true
	rest := b.pending[:0]
	for _, f := range b.pending {
		if f.label == l {
			b.code[f.pc].Imm = int64(l.pc)
		} else {
			rest = append(rest, f)
		}
	}
	b.pending = rest
}

// Bra emits an unconditional branch to the label.
func (b *Builder) Bra(l *Label) int {
	in := isa.New(isa.BRA)
	pc := b.Emit(in)
	b.ref(pc, l)
	return pc
}

// Brp emits a branch-if-nonzero on reg to the label. The condition must be
// warp-uniform at runtime.
func (b *Builder) Brp(cond isa.Reg, l *Label) int {
	in := isa.New(isa.BRP)
	in.Src[0] = cond
	pc := b.Emit(in)
	b.ref(pc, l)
	return pc
}

func (b *Builder) ref(pc int, l *Label) {
	if l.bound {
		b.code[pc].Imm = int64(l.pc)
	} else {
		b.pending = append(b.pending, fixup{pc: pc, label: l})
	}
}

// Predicate attaches a predicate register to the instruction at pc: it will
// execute only in threads where (reg != 0) != neg.
func (b *Builder) Predicate(pc int, pred isa.Reg, neg bool) {
	b.code[pc].Pred = pred
	b.code[pc].PredNeg = neg
	b.track(pred)
}

// Exit emits the thread-exit instruction.
func (b *Builder) Exit() int { return b.Emit(isa.New(isa.EXIT)) }

// Build finalizes the code, checking that all labels were bound.
func (b *Builder) Build(name string, grid, block int, params ...uint64) (*Kernel, error) {
	if len(b.pending) > 0 {
		return nil, fmt.Errorf("kernel %s: %d unbound branch targets", name, len(b.pending))
	}
	k := &Kernel{
		Name:     name,
		Code:     append([]isa.Instr(nil), b.code...),
		GridDim:  grid,
		BlockDim: block,
		Params:   append([]uint64(nil), params...),
		RegsUsed: int(b.maxReg) + 1,
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// MustBuild is Build that panics on error; for use in workload constructors
// whose code is fixed at compile time.
func (b *Builder) MustBuild(name string, grid, block int, params ...uint64) *Kernel {
	k, err := b.Build(name, grid, block, params...)
	if err != nil {
		panic(err)
	}
	return k
}
