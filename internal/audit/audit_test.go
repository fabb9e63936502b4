package audit

import (
	"strings"
	"testing"

	"ndpgpu/internal/core"
	"ndpgpu/internal/timing"
)

func violationsMatching(a *Auditor, substr string) int {
	n := 0
	for _, v := range a.Violations() {
		if strings.Contains(v.String(), substr) {
			n++
		}
	}
	return n
}

func TestAuditorErr(t *testing.T) {
	a := New()
	if err := a.Err(); err != nil {
		t.Fatalf("clean auditor Err = %v, want nil", err)
	}
	a.Reportf(100, "x", "inv", "boom %d", 7)
	err := a.Err()
	if err == nil {
		t.Fatal("Err = nil after a violation")
	}
	if !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("Err = %v, want detail included", err)
	}
	if a.Count() != 1 {
		t.Fatalf("Count = %d, want 1", a.Count())
	}
}

func TestAuditorRecordingCap(t *testing.T) {
	a := New()
	for i := 0; i < maxRecorded+50; i++ {
		a.Reportf(timing.PS(i), "x", "inv", "v%d", i)
	}
	if got := len(a.Violations()); got != maxRecorded {
		t.Fatalf("recorded %d violations, want cap %d", got, maxRecorded)
	}
	if a.Count() != int64(maxRecorded+50) {
		t.Fatalf("Count = %d, want %d", a.Count(), maxRecorded+50)
	}
}

func TestAuditorTickerRunsChecks(t *testing.T) {
	a := New()
	var calls, finals int
	a.Register("probe", func(now timing.PS, final bool) {
		calls++
		if final {
			finals++
		}
	})
	tk := a.Ticker()
	tk.Tick(10)
	tk.Tick(20)
	a.RunChecks(30, true)
	if calls != 3 || finals != 1 {
		t.Fatalf("calls=%d finals=%d, want 3/1", calls, finals)
	}
	// Never keeps the SM domain skippable with the auditor attached.
	if got := tk.NextWorkAt(10); got != timing.Never {
		t.Fatalf("NextWorkAt = %d, want Never", got)
	}
}

func TestNetworkConservationClean(t *testing.T) {
	a := New()
	n := NewNetwork(a, 3)
	p1, p2 := &core.ReadReq{}, &core.ReadResp{}
	n.Inject(100, 150, GPUNode, 2, 0, p1)
	n.Eject(150, p1)
	n.Inject(200, 260, 2, GPUNode, 0, p2)
	n.Eject(300, p2)
	a.RunChecks(400, true)
	if err := a.Err(); err != nil {
		t.Fatalf("clean inject/eject flow: %v", err)
	}
}

func TestNetworkDuplicateInjection(t *testing.T) {
	a := New()
	n := NewNetwork(a, 3)
	p := &core.ReadReq{}
	n.Inject(100, 150, GPUNode, 2, 0, p)
	n.Inject(110, 160, GPUNode, 2, 0, p)
	if violationsMatching(a, "duplicate injection") != 1 {
		t.Fatalf("duplicate injection not flagged: %v", a.Violations())
	}
}

func TestNetworkEjectUnknown(t *testing.T) {
	a := New()
	n := NewNetwork(a, 3)
	n.Eject(100, &core.ReadReq{})
	if violationsMatching(a, "never injected") != 1 {
		t.Fatalf("unknown ejection not flagged: %v", a.Violations())
	}
}

func TestNetworkLossAtDrain(t *testing.T) {
	a := New()
	n := NewNetwork(a, 3)
	n.Inject(100, 150, 1, 2, 1, &core.ReadReq{})
	a.RunChecks(500, false) // non-final pass must not flag in-flight packets
	if a.Count() != 0 {
		t.Fatalf("in-flight packet flagged before drain: %v", a.Violations())
	}
	a.RunChecks(1000, true)
	if violationsMatching(a, "lost") != 1 {
		t.Fatalf("lost packet not flagged at drain: %v", a.Violations())
	}
}

func TestNetworkHopBound(t *testing.T) {
	a := New()
	n := NewNetwork(a, 3)
	p := &core.WritePacket{}
	n.Inject(100, 200, 0, 7, 4, p) // 4 hops on a diameter-3 hypercube
	if violationsMatching(a, "hop") == 0 {
		t.Fatalf("hop-bound violation not flagged: %v", a.Violations())
	}
}

// offloadCmd builds a command packet opening block (sm, warp) on target.
func offloadCmd(sm, warp int32, target, numLD, numST int) *core.CmdPacket {
	return &core.CmdPacket{
		ID: core.OffloadID{SM: sm, Warp: warp}, Target: target,
		NumLD: numLD, NumST: numST,
	}
}

func TestProtocolLifecycleClean(t *testing.T) {
	a := New()
	n := NewNetwork(a, 3)
	id := core.OffloadID{SM: 0, Warp: 3}
	cmd := offloadCmd(0, 3, 2, 1, 1)
	n.Inject(100, 150, GPUNode, 2, 0, cmd)
	n.Eject(150, cmd)
	rdf := &core.RDFPacket{ID: id, Seq: 0, Target: 2}
	n.Inject(160, 200, GPUNode, 5, 0, rdf)
	n.Eject(200, rdf)
	resp := &core.RDFResp{ID: id, Seq: 0}
	n.Inject(210, 260, 5, 2, 1, resp)
	n.Eject(260, resp)
	wta := &core.WTAPacket{ID: id, Seq: 0, Target: 2}
	n.Inject(270, 300, GPUNode, 2, 0, wta)
	n.Eject(300, wta)
	wr := &core.WritePacket{ID: id, Seq: 0, Source: 2}
	n.Inject(310, 350, 2, 6, 1, wr)
	n.Eject(350, wr)
	wack := &core.WriteAck{ID: id, Seq: 0}
	n.Inject(360, 400, 6, 2, 1, wack)
	n.Eject(400, wack)
	ack := &core.AckPacket{ID: id}
	n.Inject(410, 460, 2, GPUNode, 0, ack)
	n.Eject(460, ack)
	a.RunChecks(500, true)
	if err := a.Err(); err != nil {
		t.Fatalf("legal offload lifecycle flagged: %v", err)
	}
}

func TestProtocolViolations(t *testing.T) {
	t.Run("DataBeforeCommand", func(t *testing.T) {
		a := New()
		n := NewNetwork(a, 3)
		n.Inject(100, 150, GPUNode, 2, 0, &core.RDFPacket{ID: core.OffloadID{SM: 1, Warp: 2}, Target: 2})
		if violationsMatching(a, "not open") != 1 {
			t.Fatalf("RDF before command not flagged: %v", a.Violations())
		}
	})
	t.Run("Reopen", func(t *testing.T) {
		a := New()
		n := NewNetwork(a, 3)
		n.Inject(100, 150, GPUNode, 2, 0, offloadCmd(1, 2, 2, 1, 0))
		n.Inject(200, 250, GPUNode, 2, 0, offloadCmd(1, 2, 2, 1, 0))
		if violationsMatching(a, "re-issued") != 1 {
			t.Fatalf("command reopen not flagged: %v", a.Violations())
		}
	})
	t.Run("SeqOutOfRange", func(t *testing.T) {
		a := New()
		n := NewNetwork(a, 3)
		id := core.OffloadID{SM: 1, Warp: 2}
		n.Inject(100, 150, GPUNode, 2, 0, offloadCmd(1, 2, 2, 1, 0))
		n.Inject(160, 200, GPUNode, 2, 0, &core.RDFPacket{ID: id, Seq: 1, Target: 2})
		if violationsMatching(a, "outside reserved range") != 1 {
			t.Fatalf("out-of-range sequence not flagged: %v", a.Violations())
		}
	})
	t.Run("OrphanAtDrain", func(t *testing.T) {
		a := New()
		n := NewNetwork(a, 3)
		cmd := offloadCmd(1, 2, 2, 1, 0)
		n.Inject(100, 150, GPUNode, 2, 0, cmd)
		n.Eject(150, cmd)
		a.RunChecks(1000, true)
		if violationsMatching(a, "never acknowledged") != 1 {
			t.Fatalf("orphaned block not flagged: %v", a.Violations())
		}
	})
	t.Run("AckWithoutOpen", func(t *testing.T) {
		a := New()
		n := NewNetwork(a, 3)
		n.Inject(100, 150, 2, GPUNode, 0, &core.AckPacket{ID: core.OffloadID{SM: 1, Warp: 2}})
		if violationsMatching(a, "not open") != 1 {
			t.Fatalf("stray ack not flagged: %v", a.Violations())
		}
	})
}

// ddr is a small DRAM timing set for the vault-audit tests: tCK=1000 ps,
// tRCD=2, tRAS=5, tRP=2, tCCD=1.
var ddr = DRAMTiming{TCKps: 1000, TRCD: 2, TRAS: 5, TRP: 2, TCCD: 1}

func TestVaultAuditLegalSequence(t *testing.T) {
	a := New()
	v := NewVaultAudit(a, "v0", ddr, 2)
	v.OnActivate(0, 0, 7)
	v.OnActivate(1000, 1, 3)       // independent bank
	v.OnColumn(2000, 0, 7, false)  // ACT+tRCD
	v.OnColumn(3000, 0, 7, true)   // +tCCD
	v.OnPrecharge(5000, 5000, 0)   // ACT+tRAS
	v.OnActivate(7000, 0, 9)       // PRE+tRP
	v.OnColumn(9000, 0, 9, false)  // ACT+tRCD
	v.OnColumn(10000, 1, 3, false) // bus free again
	if err := a.Err(); err != nil {
		t.Fatalf("legal DRAM sequence flagged: %v", err)
	}
}

func TestVaultAuditViolations(t *testing.T) {
	t.Run("EarlyCAS", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnActivate(0, 0, 7)
		v.OnColumn(1000, 0, 7, false) // tRCD is 2000 ps
		if violationsMatching(a, "tRCD") != 1 {
			t.Fatalf("tRCD violation not flagged: %v", a.Violations())
		}
	})
	t.Run("CASClosedBank", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnColumn(1000, 0, 7, false)
		if violationsMatching(a, "no open row") != 1 {
			t.Fatalf("CAS to closed bank not flagged: %v", a.Violations())
		}
	})
	t.Run("CASWrongRow", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnActivate(0, 0, 7)
		v.OnColumn(2000, 0, 8, false)
		if violationsMatching(a, "row 7 is open") != 1 {
			t.Fatalf("row mismatch not flagged: %v", a.Violations())
		}
	})
	t.Run("EarlyCCD", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 2)
		v.OnActivate(0, 0, 7)
		v.OnActivate(0, 1, 3)
		v.OnColumn(2000, 0, 7, false)
		v.OnColumn(2500, 1, 3, false) // bus busy until 3000
		if violationsMatching(a, "tCCD") != 1 {
			t.Fatalf("tCCD violation not flagged: %v", a.Violations())
		}
	})
	t.Run("ActOpenBank", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnActivate(0, 0, 7)
		v.OnActivate(3000, 0, 8)
		if violationsMatching(a, "already open") != 1 {
			t.Fatalf("double activate not flagged: %v", a.Violations())
		}
	})
	t.Run("EarlyPrecharge", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnActivate(0, 0, 7)
		v.OnPrecharge(3000, 3000, 0) // tRAS is 5000 ps
		if violationsMatching(a, "tRAS") != 1 {
			t.Fatalf("tRAS violation not flagged: %v", a.Violations())
		}
	})
	t.Run("EarlyActAfterPrecharge", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnActivate(0, 0, 7)
		v.OnPrecharge(5000, 5000, 0)
		v.OnActivate(6000, 0, 9) // tRP is 2000 ps
		if violationsMatching(a, "tRP") != 1 {
			t.Fatalf("tRP violation not flagged: %v", a.Violations())
		}
	})
	t.Run("ActDuringRefresh", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnRefresh(1000, 9000)
		v.OnActivate(5000, 0, 7)
		if violationsMatching(a, "refresh") == 0 {
			t.Fatalf("activate during refresh not flagged: %v", a.Violations())
		}
	})
	t.Run("RefreshClosesRows", func(t *testing.T) {
		a := New()
		v := NewVaultAudit(a, "v0", ddr, 1)
		v.OnActivate(0, 0, 7)
		v.OnRefresh(6000, 9000)
		v.OnColumn(9000, 0, 7, false) // row was closed by refresh
		if violationsMatching(a, "no open row") != 1 {
			t.Fatalf("CAS after refresh-close not flagged: %v", a.Violations())
		}
	})
}
