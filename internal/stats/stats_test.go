package stats

import (
	"strings"
	"testing"
)

func TestStallKindStrings(t *testing.T) {
	if ExecUnitBusy.String() != "ExecUnitBusy" ||
		DependencyStall.String() != "DependencyStall" ||
		WarpIdle.String() != "WarpIdle" {
		t.Fatal("stall kind names wrong")
	}
	if !strings.Contains(StallKind(99).String(), "99") {
		t.Fatal("unknown stall kind should embed its value")
	}
}

func TestTrafficClassStrings(t *testing.T) {
	if GPULink.String() != "GPULink" || MemNet.String() != "MemNet" || IntraHMC.String() != "IntraHMC" {
		t.Fatal("traffic class names wrong")
	}
}

func TestCacheStats(t *testing.T) {
	c := CacheStats{Accesses: 10, Hits: 7}
	if c.Misses() != 3 {
		t.Fatalf("misses = %d", c.Misses())
	}
	if c.HitRate() != 0.7 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
}

func TestNoIssueAccounting(t *testing.T) {
	s := New()
	s.AddNoIssue(ExecUnitBusy)
	s.AddNoIssue(WarpIdle)
	s.AddNoIssue(WarpIdle)
	if s.NoIssueTotal() != 3 {
		t.Fatalf("total = %d", s.NoIssueTotal())
	}
	if s.NoIssue[WarpIdle] != 2 {
		t.Fatalf("warp idle = %d", s.NoIssue[WarpIdle])
	}
}

func TestTrafficAndOverhead(t *testing.T) {
	s := New()
	s.AddTraffic(GPULink, 1000)
	s.AddTraffic(MemNet, 500)
	s.InvalBytes = 10
	if s.OffChipTraffic() != 1000 {
		t.Fatalf("off-chip = %d", s.OffChipTraffic())
	}
	if got := s.InvalOverhead(); got != 0.01 {
		t.Fatalf("inval overhead = %v", got)
	}
	if (New()).InvalOverhead() != 0 {
		t.Fatal("zero-traffic overhead should be 0")
	}
}

func TestIPC(t *testing.T) {
	s := New()
	s.SMCycles = 100
	s.IssuedInstrs = 250
	if s.IPC() != 2.5 {
		t.Fatalf("ipc = %v", s.IPC())
	}
	if (New()).IPC() != 0 {
		t.Fatal("zero-cycle IPC should be 0")
	}
}

func TestNSUOccupancy(t *testing.T) {
	s := New()
	s.NSUCycles = 100
	s.NSUWarpCycleSum = 100 * 48 * 8 / 2 // half full across 8 NSUs
	if got := s.NSUOccupancy(48, 8); got != 0.5 {
		t.Fatalf("occupancy = %v", got)
	}
	if s.NSUOccupancy(0, 8) != 0 {
		t.Fatal("zero slots should be 0")
	}
}

func TestICacheUtilization(t *testing.T) {
	s := New()
	s.SetNSUICode(0, 1024)
	s.SetNSUICode(1, 2048)
	if got := s.ICacheUtilization(4096); got != (0.25+0.5)/2 {
		t.Fatalf("util = %v", got)
	}
	// Footprints above the cache size clamp to 1.
	s.SetNSUICode(1, 1<<20)
	if got := s.ICacheUtilization(4096); got != (0.25+1.0)/2 {
		t.Fatalf("clamped util = %v", got)
	}
}

func TestEnergyTotal(t *testing.T) {
	e := EnergyBreakdown{GPU: 1, NSU: 2, IntraHMC: 3, OffChip: 4, DRAM: 5}
	if e.Total() != 15 {
		t.Fatalf("total = %v", e.Total())
	}
}

func TestStringContainsCounters(t *testing.T) {
	s := New()
	s.SMCycles = 42
	s.RDFPackets = 7
	out := s.String()
	if !strings.Contains(out, "cycles(SM)=42") || !strings.Contains(out, "rdf=7") {
		t.Fatalf("summary missing fields: %s", out)
	}
}
