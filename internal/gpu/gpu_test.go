package gpu

import (
	"slices"
	"testing"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// harness builds a minimal GPU around a kernel for white-box tests.
func harness(t *testing.T, k *kernel.Kernel) (*GPU, *SM, *warp) {
	t.Helper()
	cfg := config.Default()
	cfg.GPU.NumSMs = 1
	mem := vm.New(cfg)
	mem.Alloc(1 << 20)
	prog, err := analyzer.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.New()
	fab := noc.NewFabric(cfg, st)
	g := New(cfg, prog, mem, fab, st, core.Never{})
	sm := g.sms[0]
	sm.refill()
	if sm.warps[0] == nil {
		t.Fatal("no warp resident")
	}
	return g, sm, sm.warps[0]
}

func simpleKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	kb := kernel.NewBuilder()
	kb.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	kb.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	kb.Ld(18, 17, 0)
	kb.Op3(isa.FADD, 19, 18, 18)
	kb.St(17, 0, 19)
	kb.Exit()
	return kb.MustBuild("k", 1, 32, 0x10000)
}

func TestCoalesceContiguous(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	// 32 consecutive words starting line-aligned: one aligned access.
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(4*tid)
	}
	lines := sm.coalesce(w, in, 0xFFFFFFFF)
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	if !lines[0].Aligned {
		t.Fatal("identity offsets must classify as aligned (§4.1.1)")
	}
	if lines[0].Mask != 0xFFFFFFFF {
		t.Fatalf("mask = %#x", lines[0].Mask)
	}
}

func TestCoalesceBroadcastMisaligned(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + 8 // all threads read word 2
	}
	lines := sm.coalesce(w, in, 0xFFFFFFFF)
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	if lines[0].Aligned {
		t.Fatal("broadcast access must be misaligned (offset_i != i)")
	}
	for tid := 0; tid < 32; tid++ {
		if lines[0].Offsets[tid] != 2 {
			t.Fatalf("offset[%d] = %d, want 2", tid, lines[0].Offsets[tid])
		}
	}
}

func TestCoalesceDivergent(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	// 128-byte stride: every thread its own line.
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(128*tid)
	}
	lines := sm.coalesce(w, in, 0xFFFFFFFF)
	if len(lines) != 32 {
		t.Fatalf("lines = %d, want 32", len(lines))
	}
}

func TestCoalesceRespectsMask(t *testing.T) {
	_, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(128*tid)
	}
	lines := sm.coalesce(w, in, 0x1) // one active thread
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
}

func TestMaxResidentCTAsRegisterLimit(t *testing.T) {
	kb := kernel.NewBuilder()
	kb.MovI(60, 1) // forces RegsUsed = 61
	kb.Exit()
	k := kb.MustBuild("fat", 64, 256)
	_, sm, _ := harness(t, k)
	// 61 regs x 256 threads = 15616 regs/CTA; 32768/15616 = 2 CTAs.
	if got := sm.maxResidentCTAs(); got != 2 {
		t.Fatalf("resident CTAs = %d, want 2 (register limit)", got)
	}
}

func TestBlockInfos(t *testing.T) {
	mem := vm.New(config.Default())
	mem.Alloc(1 << 16)
	prog, err := analyzer.Analyze(simpleKernel(t))
	if err != nil {
		t.Fatal(err)
	}
	infos := BlockInfos(prog)
	if len(infos) != len(prog.Blocks) {
		t.Fatalf("infos = %d, blocks = %d", len(infos), len(prog.Blocks))
	}
	for i, b := range prog.Blocks {
		if infos[i].NumLD != b.NumLD || infos[i].NumST != b.NumST {
			t.Fatalf("info %d mismatch", i)
		}
	}
}

func TestStallClassificationWarpIdle(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	// Force the warp into the ack-wait state: no issuable instruction.
	w.waitAck = true
	before := g.st.NoIssue[stats.WarpIdle]
	sm.tick(1429)
	if g.st.NoIssue[stats.WarpIdle] != before+1 {
		t.Fatalf("ack-blocked warp not classified as warp idle: %+v", g.st.NoIssue)
	}
}

func TestStallClassificationDependency(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	w.pc = 3                 // fadd r19, r18, r18
	w.regReady[18] = 1 << 50 // operand far in the future
	sm.tick(1429)            // cold L1I fetch first
	before := g.st.NoIssue[stats.DependencyStall]
	sm.tick(1 << 40) // fetch long since complete; operand still pending
	if g.st.NoIssue[stats.DependencyStall] != before+1 {
		t.Fatalf("operand hazard not classified as dependency stall: %+v", g.st.NoIssue)
	}
}

// TestSchedulerOrderGTO drives the GTO scheduler through whole ticks: the
// greedy slot issues while it can; once it blocks, the lowest ready slot
// issues and becomes the greedy one.
func TestSchedulerOrderGTO(t *testing.T) {
	kb := kernel.NewBuilder()
	for r := isa.Reg(16); r < 24; r++ {
		kb.MovI(r, int64(r)) // independent ALU ops: every warp can issue
	}
	kb.Exit()
	_, sm, _ := harness(t, kb.MustBuild("gto", 1, 128))
	sm.l1i.Fill(0) // the whole kernel sits in one code line: no fetch stalls
	pcs := func() []int {
		var out []int
		for _, w := range sm.warps[:4] {
			out = append(out, w.pc)
		}
		return out
	}
	now := timing.PS(1429)
	step := func(want ...int) {
		t.Helper()
		sm.tick(now)
		now += 1429
		if got := pcs(); !slices.Equal(got, want) {
			t.Fatalf("warp pcs = %v, want %v", got, want)
		}
	}
	sm.greedyWarp = 2
	step(0, 0, 1, 0) // the greedy slot issues first...
	step(0, 0, 2, 0) // ...and keeps issuing while it can
	sm.warps[2].regReady[18] = 1 << 50
	step(1, 0, 2, 0) // blocked: the lowest ready slot issues instead
	step(2, 0, 2, 0) // and is greedy from then on
	if sm.greedyWarp != 0 {
		t.Fatalf("greedy slot = %d, want 0", sm.greedyWarp)
	}
}

// TestBlockedWarpFetchesOnce pins the fetch model: a warp keeps its fetched
// instruction in a one-entry buffer while the scoreboard blocks it, so a
// cold fetch and n blocked cycles cost one L1I access, not one per cycle.
func TestBlockedWarpFetchesOnce(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	w.pc = 3                 // fadd r19, r18, r18
	w.regReady[18] = 1 << 50 // operand far in the future
	g.cycles++
	sm.tick(1429) // cold L1I miss: fill and wait
	const n = 10
	for i := 0; i < n; i++ {
		g.cycles++
		sm.tick(1<<40 + timing.PS(i)*1429) // fetch done; operand pending
	}
	g.CollectCacheStats(g.cycles)
	if l1i := g.st.L1I; l1i.Accesses != 1 || l1i.Fills != 1 {
		t.Fatalf("L1I accesses = %d, fills = %d; want one fetch for %d blocked cycles",
			l1i.Accesses, l1i.Fills, n)
	}
	if got := g.st.NoIssue[stats.DependencyStall]; got != n {
		t.Fatalf("dependency stalls = %d, want %d", got, n)
	}
}

func TestTLBCountsTranslations(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	in := isa.New(isa.LD)
	in.Dst, in.Src[0] = 18, 17
	// Dense access: one page.
	for tid := 0; tid < 32; tid++ {
		w.regs[17][tid] = 0x10000 + uint64(4*tid)
	}
	if !sm.setupMem(w, in, 0) {
		t.Fatal("setupMem failed")
	}
	if sm.tlb.Stats.Accesses != 1 {
		t.Fatalf("TLB accesses = %d, want 1 (one page)", sm.tlb.Stats.Accesses)
	}
	if sm.tlb.Stats.Hits != 0 {
		t.Fatal("cold TLB should miss")
	}
	// The page walk delays the micro-ops.
	if w.memq[0].readyAt == 0 {
		t.Fatal("TLB miss did not delay the access")
	}
	// Same page again: a hit, no delay.
	w.memq = nil
	w.pc = 2
	if !sm.setupMem(w, in, 1_000_000_000) {
		t.Fatal("setupMem failed")
	}
	if sm.tlb.Stats.Hits != 1 {
		t.Fatalf("TLB hits = %d, want 1", sm.tlb.Stats.Hits)
	}
	if w.memq[0].readyAt > 1_000_000_000 {
		t.Fatal("TLB hit should not delay the access")
	}
	_ = g
}

func TestMaxResidentCTAsScratchpadLimit(t *testing.T) {
	kb := kernel.NewBuilder()
	kb.Exit()
	k := kb.MustBuild("smem", 64, 64)
	k.SmemBytes = 20 << 10 // 20 KB per CTA of a 48 KB scratchpad
	_, sm, _ := harness(t, k)
	if got := sm.maxResidentCTAs(); got != 2 {
		t.Fatalf("resident CTAs = %d, want 2 (scratchpad limit)", got)
	}
}

// TestKeptPickRetry blocks a warp at its first offloaded load on a target
// with no command credit. Its retries must each be one Reserve call, with no
// coalescing, and must not wake the SM; a credit return unparks it, and
// after a page swap moves the line's page the warp votes again and reserves
// on the new home.
func TestKeptPickRetry(t *testing.T) {
	g, sm, w := harness(t, simpleKernel(t))
	g.dec = core.Always{}
	const line = 0x10000 // every lane's address falls in this one line
	home := g.mem.HMCOf(line)
	g.bufmgr.Reserve(home, 1, 0)
	for g.bufmgr.Reserve(home, 0, 0) {
	}
	now := timing.PS(0)
	for i := 0; sm.creditWait[home] == 0; i++ {
		if i == 1000 {
			t.Fatal("warp never blocked at its first offloaded load")
		}
		now += g.smPeriod
		sm.tick(now)
	}
	if !w.off.picked || w.off.target != home || w.off.targetKnown {
		t.Fatalf("blocked context: picked=%v target=%d known=%v; want a kept pick of stack %d",
			w.off.picked, w.off.target, w.off.targetKnown, home)
	}
	if sm.wake != timing.Never {
		t.Fatalf("credit-blocked SM parked until %d, want Never", sm.wake)
	}

	before, stalls := g.work, g.st.CreditStalls
	now += g.smPeriod
	sm.tick(now)
	if g.work.Coalesces != before.Coalesces || g.work.Reserves != before.Reserves+1 {
		t.Fatalf("retry made %d coalesce and %d Reserve calls, want 0 and 1",
			g.work.Coalesces-before.Coalesces, g.work.Reserves-before.Reserves)
	}
	if g.st.CreditStalls != stalls+1 {
		t.Fatalf("retry counted %d credit stalls, want 1", g.st.CreditStalls-stalls)
	}

	// A read-data credit leaves the target without a command credit: no
	// reservation can succeed, so the SM stays parked. A command credit
	// unparks it.
	g.bufmgr.Return(home, core.ReadDataBuffer, 1)
	if sm.wake == 0 {
		t.Fatal("a return that leaves no command credit unparked the SM")
	}
	g.bufmgr.Return(home, core.CmdBuffer, 1)
	if sm.wake != 0 {
		t.Fatal("a command-credit return did not unpark the waiting SM")
	}
	g.bufmgr.Reserve(home, 0, 0) // another SM takes the credit first
	now += g.smPeriod
	sm.tick(now)
	if sm.wake != timing.Never || !w.off.picked {
		t.Fatalf("failed retry: wake=%d picked=%v, want a parked SM keeping its pick",
			sm.wake, w.off.picked)
	}

	other := (home + 1) % g.cfg.NumHMCs
	g.mem.PlacePage(line, other)
	g.DropPicks()
	if w.off.picked || sm.wake != 0 {
		t.Fatalf("DropPicks left picked=%v, wake=%d", w.off.picked, sm.wake)
	}
	avail := g.bufmgr.Available(other, core.CmdBuffer)
	now += g.smPeriod
	sm.tick(now)
	if !w.off.targetKnown || w.off.target != other {
		t.Fatalf("after the swap: target=%d known=%v, want stack %d reserved",
			w.off.target, w.off.targetKnown, other)
	}
	if got := g.bufmgr.Available(other, core.CmdBuffer); got != avail-1 {
		t.Fatalf("stack %d command credits = %d, want %d", other, got, avail-1)
	}
}
