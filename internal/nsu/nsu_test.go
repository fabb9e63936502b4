package nsu

import (
	"testing"

	"ndpgpu/internal/analyzer"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// creditLog records credit returns.
type creditLog struct {
	returns map[core.BufferKind]int
}

func (c *creditLog) Return(target int, kind core.BufferKind, n int) {
	if c.returns == nil {
		c.returns = map[core.BufferKind]int{}
	}
	c.returns[kind] += n
}

// writeSink accepts local writes and immediately acknowledges them.
type writeSink struct {
	n    *NSU
	pkts []*core.WritePacket
}

func (ws *writeSink) SubmitNSUWrite(p *core.WritePacket, now timing.PS) {
	ws.pkts = append(ws.pkts, p)
	ws.n.Deliver(&core.WriteAck{ID: p.ID, Seq: p.Seq}, now)
}

// vaddProgram builds the canonical c = a + b program and returns its block.
func vaddProgram(t *testing.T, mem *vm.System) (*analyzer.Program, *analyzer.Block) {
	t.Helper()
	kb := kernel.NewBuilder()
	kb.OpImm(isa.SHLI, 16, kernel.RegGTID, 2)
	kb.Op3(isa.ADD, 17, kernel.RegParam0, 16)
	kb.Op3(isa.ADD, 18, kernel.RegParam0+1, 16)
	kb.Op3(isa.ADD, 19, kernel.RegParam0+2, 16)
	kb.Ld(20, 17, 0)
	kb.Ld(21, 18, 0)
	kb.Op3(isa.FADD, 22, 20, 21)
	kb.St(19, 0, 22)
	kb.Exit()
	k := kb.MustBuild("vadd", 1, 32, 0, 0, 0)
	prog, err := analyzer.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(prog.Blocks))
	}
	return prog, prog.Blocks[0]
}

func setup(t *testing.T) (*NSU, *creditLog, *writeSink, *noc.Fabric, *vm.System, *analyzer.Block) {
	t.Helper()
	cfg := config.Default()
	mem := vm.New(cfg)
	base := mem.Alloc(1 << 16)
	// Pin the test pages to stack 0 so local writes are acked by the fake
	// write sink instead of disappearing into an unwired remote stack.
	for off := uint64(0); off < 1<<16; off += 4096 {
		mem.PlacePage(base+off, 0)
	}
	st := stats.New()
	fab := noc.NewFabric(cfg, st)
	prog, blk := vaddProgram(t, mem)
	credits := &creditLog{}
	n := New(0, cfg, prog, mem, fab, st, credits)
	ws := &writeSink{n: n}
	n.SetLocalWriter(ws)
	return n, credits, ws, fab, mem, blk
}

func fullMask() uint32 { return 0xFFFFFFFF }

// aligned builds a LineAccess covering all 32 threads of one line.
func aligned(line uint64) core.LineAccess {
	la := core.LineAccess{LineAddr: line, Mask: fullMask(), Aligned: true}
	for t := 0; t < 32; t++ {
		la.Offsets[t] = uint8(t)
	}
	return la
}

func respFor(id core.OffloadID, seq int, base float32) *core.RDFResp {
	r := &core.RDFResp{ID: id, Seq: seq, Mask: fullMask(), TotalPkts: 1}
	for t := 0; t < 32; t++ {
		r.Data[t] = uint32(isa.FromF32(base + float32(t)))
	}
	return r
}

func TestFullOffloadRoundTrip(t *testing.T) {
	n, credits, ws, fab, mem, blk := setup(t)
	id := core.OffloadID{SM: 3, Warp: 7}
	line := mem.LineAddr(0x2000)

	n.Deliver(&core.CmdPacket{ID: id, BlockID: blk.ID, Mask: fullMask(),
		NumLD: 2, NumST: 1}, 0)
	n.Deliver(respFor(id, 0, 1), 0)
	n.Deliver(respFor(id, 1, 10), 0)
	n.Deliver(&core.WTAPacket{ID: id, Seq: 0, Access: aligned(line), TotalPkts: 1}, 0)

	now := timing.PS(0)
	for i := 0; i < 100 && fab.GPUInbox().Len() == 0; i++ {
		now += 2857
		n.Tick(now)
	}
	msg, ok := fab.GPUInbox().Pop(1 << 40)
	if !ok {
		t.Fatal("no acknowledgment emitted")
	}
	ack, ok := msg.(*core.AckPacket)
	if !ok || ack.ID != id {
		t.Fatalf("unexpected message %#v", msg)
	}
	// Functional result written to memory at the store: a[t]+b[t] = 11+2t.
	for tid := 0; tid < 32; tid++ {
		want := float32(1+tid) + float32(10+tid)
		if got := mem.ReadF32(line + uint64(4*tid)); got != want {
			t.Fatalf("mem[%d] = %v, want %v", tid, got, want)
		}
	}
	if len(ws.pkts) != 1 {
		t.Fatalf("write packets = %d, want 1", len(ws.pkts))
	}
	// Credits: 1 cmd (at spawn), 2 read-data, 1 write-addr.
	if credits.returns[core.CmdBuffer] != 1 ||
		credits.returns[core.ReadDataBuffer] != 2 ||
		credits.returns[core.WriteAddrBuffer] != 1 {
		t.Fatalf("credit returns = %v", credits.returns)
	}
	if n.Busy(now) {
		t.Fatal("NSU should be idle after the block completes")
	}
}

func TestLoadStallsUntilAllResponses(t *testing.T) {
	n, _, _, fab, _, blk := setup(t)
	id := core.OffloadID{SM: 0, Warp: 0}
	n.Deliver(&core.CmdPacket{ID: id, BlockID: blk.ID, Mask: fullMask(), NumLD: 2, NumST: 1}, 0)

	// First response covers only half the threads.
	half := respFor(id, 0, 1)
	half.Mask = 0x0000FFFF
	n.Deliver(half, 0)
	for i := 1; i <= 50; i++ {
		n.Tick(timing.PS(i) * 2857)
	}
	if n.st.NSUStallRDWait == 0 {
		t.Fatal("expected read-data stalls with partial responses")
	}
	if fab.GPUInbox().Len() != 0 {
		t.Fatal("block must not complete with missing data")
	}
	// Complete the masks and the rest of the protocol.
	rest := respFor(id, 0, 1)
	rest.Mask = 0xFFFF0000
	n.Deliver(rest, 0)
	n.Deliver(respFor(id, 1, 5), 0)
	n.Deliver(&core.WTAPacket{ID: id, Seq: 0, Access: aligned(0x2000), TotalPkts: 1}, 0)
	for i := 51; i <= 150 && fab.GPUInbox().Len() == 0; i++ {
		n.Tick(timing.PS(i) * 2857)
	}
	if fab.GPUInbox().Len() == 0 {
		t.Fatal("block never completed")
	}
}

func TestOutOfOrderDelivery(t *testing.T) {
	// Data may arrive before the command (the NDP buffers are indexed by
	// offload packet ID, not by warp slot).
	n, _, _, fab, _, blk := setup(t)
	id := core.OffloadID{SM: 1, Warp: 2}
	n.Deliver(respFor(id, 0, 1), 0)
	n.Deliver(respFor(id, 1, 2), 0)
	n.Deliver(&core.WTAPacket{ID: id, Seq: 0, Access: aligned(0x3000), TotalPkts: 1}, 0)
	n.Deliver(&core.CmdPacket{ID: id, BlockID: blk.ID, Mask: fullMask(), NumLD: 2, NumST: 1}, 0)
	for i := 1; i <= 100 && fab.GPUInbox().Len() == 0; i++ {
		n.Tick(timing.PS(i) * 2857)
	}
	if fab.GPUInbox().Len() == 0 {
		t.Fatal("out-of-order delivery broke the block")
	}
}

func TestOccupancyCounting(t *testing.T) {
	n, _, _, _, _, blk := setup(t)
	if n.Occupied() != 0 {
		t.Fatal("fresh NSU occupied")
	}
	n.Deliver(&core.CmdPacket{ID: core.OffloadID{SM: 0, Warp: 1}, BlockID: blk.ID,
		Mask: fullMask(), NumLD: 2, NumST: 1}, 0)
	n.Tick(2857)
	if n.Occupied() != 1 {
		t.Fatalf("occupied = %d, want 1", n.Occupied())
	}
	if n.ICodeBytes() == 0 {
		t.Fatal("I-cache footprint not recorded")
	}
}

func TestWarpSlotsExhaustion(t *testing.T) {
	n, _, _, _, _, blk := setup(t)
	cfg := config.Default()
	for i := 0; i < cfg.NSU.NumWarps+5; i++ {
		n.Deliver(&core.CmdPacket{ID: core.OffloadID{SM: 0, Warp: int32(i)},
			BlockID: blk.ID, Mask: fullMask(), NumLD: 2, NumST: 1}, 0)
	}
	n.Tick(2857)
	if n.Occupied() != cfg.NSU.NumWarps {
		t.Fatalf("occupied = %d, want %d (slots exhausted)", n.Occupied(), cfg.NSU.NumWarps)
	}
	if !n.Busy(2857) {
		t.Fatal("queued commands must keep the NSU busy")
	}
}

func TestTemporalSIMTSlots(t *testing.T) {
	n, _, _, _, _, _ := setup(t)
	n.cfg.NSU.PhysSIMDWidth = 8
	if got := n.simtSlots(0xFFFFFFFF); got != 4 {
		t.Fatalf("32 active / phys 8 = %d slots, want 4", got)
	}
	if got := n.simtSlots(0x7); got != 1 {
		t.Fatalf("3 active / phys 8 = %d slots, want 1", got)
	}
	if got := n.simtSlots(0); got != 1 {
		t.Fatalf("0 active = %d slots, want 1", got)
	}
	n.cfg.NSU.PhysSIMDWidth = 32
	if got := n.simtSlots(0xFFFFFFFF); got != 1 {
		t.Fatalf("full width = %d slots, want 1", got)
	}
}

func TestNarrowSIMTStillCorrect(t *testing.T) {
	// A narrow datapath changes timing, never results.
	nsu8, _, _, fab, mem, blk := setup(t)
	nsu8.cfg.NSU.PhysSIMDWidth = 8
	id := core.OffloadID{SM: 9, Warp: 1}
	line := mem.LineAddr(0x4000)
	nsu8.Deliver(&core.CmdPacket{ID: id, BlockID: blk.ID, Mask: fullMask(), NumLD: 2, NumST: 1}, 0)
	nsu8.Deliver(respFor(id, 0, 2), 0)
	nsu8.Deliver(respFor(id, 1, 5), 0)
	nsu8.Deliver(&core.WTAPacket{ID: id, Seq: 0, Access: aligned(line), TotalPkts: 1}, 0)
	for i := 1; i <= 200 && fab.GPUInbox().Len() == 0; i++ {
		nsu8.Tick(timing.PS(i) * 2857)
	}
	if fab.GPUInbox().Len() == 0 {
		t.Fatal("narrow-SIMT block never completed")
	}
	for tid := 0; tid < 32; tid++ {
		want := float32(2+tid) + float32(5+tid)
		if got := mem.ReadF32(line + uint64(4*tid)); got != want {
			t.Fatalf("mem[%d] = %v, want %v", tid, got, want)
		}
	}
}

// TestStallWindowHint pins the NSU's idle hint under a stall window: a
// parked NSU never sleeps past its next fault edge, a tick before the window
// sees no stall even after a query at the window's time (a route lookup at a
// future hop time), and a stalled tick keeps it busy (CatchUp cannot express
// a stalled edge).
func TestStallWindowHint(t *testing.T) {
	n, _, _, fab, _, _ := setup(t)
	cfg := config.Default()
	fc := config.FaultConfig{Events: []config.FaultEvent{{
		Kind: "nsustall", AtPS: 100_000, DurPS: 50_000, HMC: 0}}}
	inj := fault.New(fc, cfg.NumHMCs, cfg.HMC.NumVaults, fab.Dims(), fab.Ring())
	n.SetFault(inj, 1<<40)

	n.Tick(n.period) // empty tick: parks the NSU with nothing to wake it
	if got := n.NextWorkAt(n.period); got != 100_000 {
		t.Fatalf("idle NSU wakes at %d, want the stall edge 100000", got)
	}
	inj.TopoVersion(100_000)
	n.Tick(2 * n.period)
	if got := n.NextWorkAt(2 * n.period); got != 100_000 {
		t.Fatalf("NSU ticked before its stall wakes at %d, want the stall edge 100000", got)
	}
	stalled := (100_000/n.period + 1) * n.period
	n.Tick(stalled)
	if got := n.NextWorkAt(stalled); got != stalled {
		t.Fatalf("stalled NSU wakes at %d, want now", got)
	}
	n.Tick(150_000 + n.period)
	if got := n.NextWorkAt(150_000 + n.period); got != timing.Never {
		t.Fatalf("idle NSU after the stall wakes at %d, want Never", got)
	}
}

// nsuCounters is the part of the statistics bundle an NSU charges per cycle.
type nsuCounters struct{ occ, active, rdWait, wrAck int64 }

func counters(st *stats.Stats) nsuCounters {
	return nsuCounters{st.NSUWarpCycleSum, st.NSUActiveCycles, st.NSUStallRDWait, st.NSUStallWrAck}
}

func (a nsuCounters) sub(b nsuCounters) nsuCounters {
	return nsuCounters{a.occ - b.occ, a.active - b.active, a.rdWait - b.rdWait, a.wrAck - b.wrAck}
}

// TestParkingContract pins how an NSU parks itself from its own tick: an
// empty tick with a warp in its ALU latency parks it until the warp's
// readyAt; a warp stalled on read data parks it with no wake, and CatchUp
// then charges exactly what dense ticks charge; a Deliver makes it due.
func TestParkingContract(t *testing.T) {
	t.Run("ALU latency", func(t *testing.T) {
		n, _, _, _, _, blk := setup(t)
		id := core.OffloadID{SM: 0, Warp: 0}
		n.Deliver(&core.CmdPacket{ID: id, BlockID: blk.ID, Mask: fullMask(), NumLD: 2, NumST: 1}, 0)
		n.Deliver(respFor(id, 0, 1), 0)
		n.Deliver(respFor(id, 1, 2), 0)
		w := &n.warps[0]
		now := timing.PS(0)
		for i := 0; i < 20; i++ {
			now += n.period
			n.Tick(now)
			if n.NextWorkAt(now) > now {
				break
			}
		}
		if w.pc == 0 || !w.block.NSUCode[w.pc-1].Op.IsALU() {
			t.Fatalf("parked at pc %d, want just past the ALU op", w.pc)
		}
		if w.readyAt <= now {
			t.Fatalf("warp ready at %d, not in its latency at %d", w.readyAt, now)
		}
		if got := n.NextWorkAt(now); got != w.readyAt {
			t.Fatalf("parked until %d, want readyAt %d", got, w.readyAt)
		}
		// A dense tick inside the latency repeats the parked tick exactly.
		before := counters(n.st)
		n.Tick(now + n.period)
		if got := n.NextWorkAt(now + n.period); got != w.readyAt {
			t.Fatalf("dense tick parked until %d, want %d", got, w.readyAt)
		}
		if d := counters(n.st).sub(before); d != (nsuCounters{occ: 1, active: 1}) {
			t.Fatalf("dense tick charged %+v, want one occupied cycle", d)
		}
	})

	// parkOnRead returns an NSU whose one warp waits at its first load for
	// read data that never arrives, and the time of its last tick.
	parkOnRead := func(t *testing.T) (*NSU, timing.PS) {
		n, _, _, _, _, blk := setup(t)
		n.Deliver(&core.CmdPacket{ID: core.OffloadID{}, BlockID: blk.ID, Mask: fullMask(), NumLD: 2, NumST: 1}, 0)
		n.Tick(n.period)     // spawn and OFLD.BEG
		n.Tick(2 * n.period) // LD: no read data
		return n, 2 * n.period
	}

	t.Run("read-data stall", func(t *testing.T) {
		const cycles = 5
		parked, now := parkOnRead(t)
		if got := parked.NextWorkAt(now); got != timing.Never {
			t.Fatalf("RD-stalled NSU wakes at %d, want Never", got)
		}
		before := counters(parked.st)
		parked.CatchUp(int64(now/parked.period) + cycles)
		skipped := counters(parked.st).sub(before)

		dense, now := parkOnRead(t)
		before = counters(dense.st)
		for i := 1; i <= cycles; i++ {
			dense.Tick(now + timing.PS(i)*dense.period)
		}
		ticked := counters(dense.st).sub(before)
		if want := (nsuCounters{occ: cycles, active: cycles, rdWait: cycles}); skipped != want || ticked != want {
			t.Fatalf("CatchUp over %d cycles charged %+v, %d dense ticks %+v, want %+v",
				cycles, skipped, cycles, ticked, want)
		}
	})

	t.Run("Deliver makes it due", func(t *testing.T) {
		n, now := parkOnRead(t)
		woke := timing.Never
		n.SetWakeHook(func(at timing.PS) { woke = at })
		at := now + n.period/2
		n.Deliver(respFor(core.OffloadID{}, 0, 1), at)
		if woke != at {
			t.Fatalf("wake hook called with %d, want %d", woke, at)
		}
		if got := n.NextWorkAt(at); got > at {
			t.Fatalf("NSU with fresh read data parked until %d", got)
		}
	})
}
