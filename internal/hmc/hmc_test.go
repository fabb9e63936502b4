package hmc

import (
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/dram"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/noc"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// nsuSink records messages the logic layer routes to the NSU.
type nsuSink struct{ msgs []any }

func (s *nsuSink) Deliver(msg any, now timing.PS) { s.msgs = append(s.msgs, msg) }

func setup(t *testing.T) (*HMC, *nsuSink, *noc.Fabric, *vm.System, uint64) {
	t.Helper()
	cfg := config.Default()
	mem := vm.New(cfg)
	base := mem.Alloc(1 << 16)
	st := stats.New()
	fab := noc.NewFabric(cfg, st)
	// Find a line homed on stack 0.
	var line uint64
	for off := uint64(0); ; off += 4096 {
		if mem.HMCOf(base+off) == 0 {
			line = mem.LineAddr(base + off)
			break
		}
	}
	h := New(0, cfg, mem, fab, st)
	sink := &nsuSink{}
	h.SetNSU(sink)
	return h, sink, fab, mem, line
}

func spin(h *HMC, upto timing.PS) {
	for now := timing.PS(0); now <= upto; now += 1500 {
		h.Tick(now)
	}
}

func TestBaselineReadProducesResponse(t *testing.T) {
	h, _, fab, _, line := setup(t)
	fab.SendGPUToHMC(0, 0, 16, &core.ReadReq{LineAddr: line})
	spin(h, 1_000_000)
	msg, ok := fab.GPUInbox().Pop(1 << 40)
	if !ok {
		t.Fatal("no read response")
	}
	resp, ok := msg.(*core.ReadResp)
	if !ok || resp.LineAddr != line {
		t.Fatalf("unexpected response %#v", msg)
	}
	if h.Busy() {
		t.Fatal("stack should quiesce")
	}
}

func TestReadCombiningMergesSameLine(t *testing.T) {
	h, _, fab, _, line := setup(t)
	for i := 0; i < 10; i++ {
		fab.SendGPUToHMC(0, 0, 16, &core.ReadReq{LineAddr: line})
	}
	spin(h, 1_000_000)
	n := 0
	for {
		if _, ok := fab.GPUInbox().Pop(1 << 40); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("responses = %d, want 10", n)
	}
	if got := h.VaultStats(0).Reads; got >= 10 {
		t.Fatalf("DRAM reads = %d; same-line reads should combine", got)
	}
}

func TestRDFReadForwardsToLocalNSU(t *testing.T) {
	h, sink, fab, mem, line := setup(t)
	mem.Write32(line+8, 0xabcd)
	rdf := &core.RDFPacket{ID: core.OffloadID{SM: 1, Warp: 1}, Seq: 0, Target: 0, TotalPkts: 1}
	rdf.Access.LineAddr = line
	rdf.Access.Mask = 1 << 2
	rdf.Access.Offsets[2] = 2
	fab.SendGPUToHMC(0, 0, rdf.Size(), rdf)
	spin(h, 1_000_000)
	if len(sink.msgs) != 1 {
		t.Fatalf("NSU received %d messages, want 1", len(sink.msgs))
	}
	resp, ok := sink.msgs[0].(*core.RDFResp)
	if !ok || resp.Data[2] != 0xabcd {
		t.Fatalf("bad RDF response: %#v", sink.msgs[0])
	}
}

func TestRDFReadForwardsToRemoteNSU(t *testing.T) {
	h, sink, fab, _, line := setup(t)
	rdf := &core.RDFPacket{ID: core.OffloadID{SM: 1, Warp: 1}, Seq: 0, Target: 5, TotalPkts: 1}
	rdf.Access.LineAddr = line
	rdf.Access.Mask = 1
	fab.SendGPUToHMC(0, 0, rdf.Size(), rdf)
	spin(h, 1_000_000)
	if len(sink.msgs) != 0 {
		t.Fatal("response for a remote target must not go to the local NSU")
	}
	if _, ok := fab.HMCInbox(5).Pop(1 << 40); !ok {
		t.Fatal("response did not reach the target stack over the memory network")
	}
}

func TestNSUWriteAcksAndInvalidates(t *testing.T) {
	h, sink, fab, mem, line := setup(t)
	wp := &core.WritePacket{ID: core.OffloadID{SM: 2, Warp: 3}, Seq: 0, Source: 0}
	wp.Access.LineAddr = line
	wp.Access.Mask = 1
	wp.Data[0] = 42
	h.SubmitNSUWrite(wp, 0)
	spin(h, 1_000_000)
	// Local source: ack delivered directly to the NSU.
	if len(sink.msgs) != 1 {
		t.Fatalf("NSU messages = %d, want 1 write ack", len(sink.msgs))
	}
	if _, ok := sink.msgs[0].(*core.WriteAck); !ok {
		t.Fatalf("expected write ack, got %#v", sink.msgs[0])
	}
	// Invalidate toward the GPU (§4.2).
	msg, ok := fab.GPUInbox().Pop(1 << 40)
	if !ok {
		t.Fatal("no invalidation sent to the GPU")
	}
	inv, ok := msg.(*core.InvalPacket)
	if !ok || inv.LineAddr != line || inv.HomeHMC != 0 {
		t.Fatalf("bad invalidation %#v", msg)
	}
	if h.VaultStats(0).Writes != 1 {
		t.Fatalf("DRAM writes = %d", h.VaultStats(0).Writes)
	}
	_ = mem
}

func TestRemoteWriteAckOverMemNet(t *testing.T) {
	h, sink, fab, _, line := setup(t)
	wp := &core.WritePacket{ID: core.OffloadID{SM: 2, Warp: 3}, Seq: 0, Source: 6}
	wp.Access.LineAddr = line
	wp.Access.Mask = 1
	fab.SendHMCToHMC(0, 6, 0, wp.Size(), wp)
	spin(h, 1_000_000)
	if len(sink.msgs) != 0 {
		t.Fatal("remote writer's ack wrongly delivered locally")
	}
	if _, ok := fab.HMCInbox(6).Pop(1 << 40); !ok {
		t.Fatal("write ack did not return to the source stack")
	}
}

func TestBaselineWriteNoResponse(t *testing.T) {
	h, _, fab, _, line := setup(t)
	wr := &core.WriteReq{}
	wr.Access.LineAddr = line
	wr.Access.Mask = 0xF
	fab.SendGPUToHMC(0, 0, wr.Size(), wr)
	spin(h, 1_000_000)
	if fab.GPUInbox().Len() != 0 {
		t.Fatal("baseline writes are fire-and-forget under relaxed consistency")
	}
	if h.VaultStats(0).Writes != 1 {
		t.Fatalf("writes = %d", h.VaultStats(0).Writes)
	}
}

func TestVaultOverflowRetries(t *testing.T) {
	h, _, fab, mem, _ := setup(t)
	// Flood the stack far past the 64-entry vault queues with distinct
	// lines homed on stack 0.
	extra := mem.Alloc(1 << 21)
	sent := 0
	for off := uint64(0); off < 1<<21 && sent < 200; off += 4096 {
		mem.PlacePage(extra+off, 0)
		fab.SendGPUToHMC(0, 0, 16, &core.ReadReq{LineAddr: mem.LineAddr(extra + off)})
		sent++
	}
	spin(h, 20_000_000)
	got := 0
	for {
		if _, ok := fab.GPUInbox().Pop(1 << 41); !ok {
			break
		}
		got++
	}
	if got != sent {
		t.Fatalf("responses = %d, want %d (overflow queue must retry)", got, sent)
	}
}

// TestFrozenVaultHint pins the stack's idle hint under a vault freeze: the
// wake never passes the next freeze edge, a tick before the window sees no
// freeze even after a query at the window's time (a route lookup at a future
// hop time), a tick that skipped a frozen vault keeps the stack busy (a
// vault's settle cannot tell a frozen edge from a skipped busy one), and the
// thawed stack parks.
func TestFrozenVaultHint(t *testing.T) {
	h, _, fab, mem, line := setup(t)
	cfg := config.Default()
	fc := config.FaultConfig{Events: []config.FaultEvent{{
		Kind: "vaultfreeze", AtPS: 30_000, DurPS: 30_000, HMC: 0, Vault: mem.Decode(line).Vault}}}
	inj := fault.New(fc, cfg.NumHMCs, cfg.HMC.NumVaults, fab.Dims(), fab.Ring())
	h.SetFault(inj)

	h.Tick(0)
	if got := h.NextWorkAt(0); got != 30_000 {
		t.Fatalf("idle stack wakes at %d, want the freeze edge 30000", got)
	}
	inj.TopoVersion(30_000)
	h.Tick(1_500)
	if got := h.NextWorkAt(1_500); got != 30_000 {
		t.Fatalf("stack ticked before its freeze wakes at %d, want the freeze edge 30000", got)
	}
	h.Tick(30_000)
	if got := h.NextWorkAt(30_000); got != 30_000 {
		t.Fatalf("stack with a frozen vault wakes at %d, want now", got)
	}
	h.Tick(60_000)
	if got := h.NextWorkAt(60_000); got <= 60_000 {
		t.Fatalf("thawed idle stack reports work at %d", got)
	}
}

// TestFrozenVaultChargesNoBusyCycle pins BusyCycles under a vault freeze: a
// vault frozen with a request queued charges none of its frozen edges, so it
// ends exactly as busy as an unfrozen vault serving the same request, whether
// the engine parks the stack between ticks or ticks it on every edge.
func TestFrozenVaultChargesNoBusyCycle(t *testing.T) {
	const thaw = 30_000
	busy := func(freeze, dense bool) int64 {
		h, _, fab, mem, line := setup(t)
		cfg := config.Default()
		loc := mem.Decode(line)
		if freeze {
			fc := config.FaultConfig{Events: []config.FaultEvent{{
				Kind: "vaultfreeze", AtPS: 0, DurPS: thaw, HMC: 0, Vault: loc.Vault}}}
			h.SetFault(fault.New(fc, cfg.NumHMCs, cfg.HMC.NumVaults, fab.Dims(), fab.Ring()))
		}
		h.enqueue(loc.Vault, &dram.Request{Line: line, Bank: loc.Bank, Row: loc.Row})
		e := timing.NewEngine()
		e.SetIdleSkip(!dense)
		e.SetWakeCheck(true)
		d := e.AddDomain("dram", timing.PS(cfg.HMC.TCKps))
		d.AttachScheduled(h)
		e.RunUntil(func() bool { return false }, 4*thaw)
		return h.VaultStats(d.Cycles).BusyCycles
	}
	want := busy(false, true)
	if want == 0 {
		t.Fatal("unfrozen vault charged no busy cycle for a queued read")
	}
	for _, dense := range []bool{true, false} {
		if got := busy(true, dense); got != want {
			t.Errorf("dense=%v: frozen vault charged %d busy cycles, unfrozen %d", dense, got, want)
		}
	}
}
