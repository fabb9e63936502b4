package config

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPresetsValidate(t *testing.T) {
	for name, c := range map[string]Config{
		"MoreCore":      MoreCore(Default()),
		"DoubleCompute": DoubleCompute(),
		"HalfNSUClock":  HalfNSUClock(),
		"NSU RO cache":  WithNSUReadOnlyCache(),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestMoreCoreAddsOneSMPerHMC(t *testing.T) {
	base := Default()
	mc := MoreCore(base)
	if got, want := mc.GPU.NumSMs, base.GPU.NumSMs+base.NumHMCs; got != want {
		t.Fatalf("MoreCore SMs = %d, want %d", got, want)
	}
}

func TestDoubleComputeDoublesSMs(t *testing.T) {
	base, dc := Default(), DoubleCompute()
	if dc.GPU.NumSMs != 2*base.GPU.NumSMs {
		t.Fatalf("DoubleCompute SMs = %d, want %d", dc.GPU.NumSMs, 2*base.GPU.NumSMs)
	}
}

func TestHalfNSUClock(t *testing.T) {
	if got := HalfNSUClock().NSU.ClockMHz; got != 175 {
		t.Fatalf("HalfNSUClock = %d MHz, want 175", got)
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 32 << 10, Ways: 4, LineBytes: 128}
	if got := g.Sets(); got != 64 {
		t.Fatalf("Sets() = %d, want 64", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestCacheGeomRejectsNonPow2Sets(t *testing.T) {
	g := CacheGeom{SizeBytes: 3 * 128 * 4, Ways: 4, LineBytes: 128} // 3 sets
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two set count")
	}
}

func TestCacheGeomRejectsZero(t *testing.T) {
	if err := (CacheGeom{}).Validate(); err == nil {
		t.Fatal("expected error for zero geometry")
	}
}

func TestValidateRejectsBadHMCCount(t *testing.T) {
	c := Default()
	c.NumHMCs = 6
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two HMC count")
	}
	c.NumHMCs = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for zero HMC count")
	}
}

func TestValidateRejectsBadThreadCount(t *testing.T) {
	c := Default()
	c.GPU.MaxThreadsPerSM = 1000 // not a multiple of 32
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-multiple thread count")
	}
}

func TestValidateRejectsBadPageSize(t *testing.T) {
	c := Default()
	c.Mem.PageBytes = 3000
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for non-power-of-two page size")
	}
}

func TestValidateRejectsReinterpretedFaults(t *testing.T) {
	for _, ev := range []FaultEvent{
		{Kind: "nsufail", AtPS: 1, DurPS: 5},
		{Kind: "linkdown", AtPS: 1, Dim: 3}, // 3 dimensions on 8 stacks
	} {
		c := Default()
		c.Fault.Events = []FaultEvent{ev}
		if err := c.Validate(); err == nil {
			t.Errorf("accepted %+v", ev)
		}
	}
	c := Default()
	c.Fault.Events = []FaultEvent{{Kind: "linkdown", AtPS: 1, Dim: 2}, {Kind: "nsufail", AtPS: 1}}
	if err := c.Validate(); err != nil {
		t.Errorf("rejected a valid schedule: %v", err)
	}
	for n, want := range map[int]int{1: 1, 2: 1, 4: 2, 8: 3, 16: 4} {
		if got := LinkDims(n); got != want {
			t.Errorf("LinkDims(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestValidateNamesBadField covers inputs that once passed Validate and then
// panicked in a constructor, hung until the simulated time limit, or ran with
// an infinite or negative link time: each must now fail naming its field.
func TestValidateNamesBadField(t *testing.T) {
	cases := []struct {
		name  string
		set   func(*Config)
		field string
	}{
		{"no NSU warps", func(c *Config) { c.NSU.NumWarps = 0 }, "NSU.NumWarps"},
		{"negative NSU warps", func(c *Config) { c.NSU.NumWarps = -1 }, "NSU.NumWarps"},
		{"no TLB entries", func(c *Config) { c.GPU.TLBEntries = 0 }, "GPU.TLBEntries"},
		{"negative TLB entries", func(c *Config) { c.GPU.TLBEntries = -1 }, "GPU.TLBEntries"},
		{"TLB entries below ways", func(c *Config) { c.GPU.TLBEntries = 3 }, "GPU.TLBEntries"},
		{"TLB entries not a multiple of ways", func(c *Config) { c.GPU.TLBEntries = 12 }, "GPU.TLBEntries"},
		{"L2 slice below one set", func(c *Config) { c.GPU.L2.SizeBytes = 2048 }, "GPU.L2.SizeBytes"},
		{"RO cache below one set", func(c *Config) { c.NSU.ReadOnlyCacheBytes = 100 }, "NSU.ReadOnlyCacheBytes"},
		{"RO cache not a multiple of a set", func(c *Config) { c.NSU.ReadOnlyCacheBytes = 3000 }, "NSU.ReadOnlyCacheBytes"},
		{"negative RO cache", func(c *Config) { c.NSU.ReadOnlyCacheBytes = -1 }, "NSU.ReadOnlyCacheBytes"},
		{"no vault queue", func(c *Config) { c.HMC.VaultQueue = 0 }, "HMC.VaultQueue"},
		{"negative vault queue", func(c *Config) { c.HMC.VaultQueue = -1 }, "HMC.VaultQueue"},
		{"no pending entries", func(c *Config) { c.NDP.PendingEntries = 0 }, "NDP.PendingEntries"},
		{"negative pending entries", func(c *Config) { c.NDP.PendingEntries = -1 }, "NDP.PendingEntries"},
		{"zero GPU link", func(c *Config) { c.GPU.LinkGBps = 0 }, "GPU.LinkGBps"},
		{"negative GPU link", func(c *Config) { c.GPU.LinkGBps = -20 }, "GPU.LinkGBps"},
		{"zero mesh link", func(c *Config) { c.HMC.NetLinkGBps = 0 }, "HMC.NetLinkGBps"},
		{"negative mesh link", func(c *Config) { c.HMC.NetLinkGBps = -5 }, "HMC.NetLinkGBps"},
		{"NaN GPU link", func(c *Config) { c.GPU.LinkGBps = math.NaN() }, "GPU.LinkGBps"},
		// Links so slow a run takes days of host time, or so slow the time
		// per byte overflows: below 1/16 of the 20 GB/s default.
		{"1e-6 GPU link", func(c *Config) { c.GPU.LinkGBps = 1e-6 }, "GPU.LinkGBps"},
		{"1e-17 GPU link", func(c *Config) { c.GPU.LinkGBps = 1e-17 }, "GPU.LinkGBps"},
		{"1.2 GPU link", func(c *Config) { c.GPU.LinkGBps = 1.2 }, "GPU.LinkGBps"},
		{"1e-6 mesh link", func(c *Config) { c.HMC.NetLinkGBps = 1e-6 }, "HMC.NetLinkGBps"},
		{"1e-17 mesh link", func(c *Config) { c.HMC.NetLinkGBps = 1e-17 }, "HMC.NetLinkGBps"},
		{"1.2 mesh link", func(c *Config) { c.HMC.NetLinkGBps = 1.2 }, "HMC.NetLinkGBps"},
		{"no CTAs per SM", func(c *Config) { c.GPU.MaxCTAsPerSM = 0 }, "GPU.MaxCTAsPerSM"},
		{"negative CTAs per SM", func(c *Config) { c.GPU.MaxCTAsPerSM = -1 }, "GPU.MaxCTAsPerSM"},
		{"hypercube without the links", func(c *Config) { c.NumHMCs = 16 }, "HMC.NetLinksPerHMC"},
		// Counts a constructor allocates per entry, just past 16x their
		// defaults, and values that would ask the host for terabytes.
		{"stacks", func(c *Config) { c.NumHMCs = 256; c.HMC.NetLinksPerHMC = 8 }, "NumHMCs"},
		{"SMs", func(c *Config) { c.GPU.NumSMs = 1025 }, "GPU.NumSMs"},
		{"max SMs", func(c *Config) { c.GPU.NumSMs = math.MaxInt32 }, "GPU.NumSMs"},
		{"threads per SM", func(c *Config) { c.GPU.MaxThreadsPerSM = 16*1536 + 32 }, "GPU.MaxThreadsPerSM"},
		{"TLB entries", func(c *Config) { c.GPU.TLBEntries = 2048 }, "GPU.TLBEntries"},
		{"2^30 TLB entries", func(c *Config) { c.GPU.TLBEntries = 1 << 30 }, "GPU.TLBEntries"},
		{"L1I", func(c *Config) { c.GPU.L1I.SizeBytes = 128 << 10 }, "GPU.L1I.SizeBytes"},
		{"L1D", func(c *Config) { c.GPU.L1D.SizeBytes = 1 << 20 }, "GPU.L1D.SizeBytes"},
		{"L2", func(c *Config) { c.GPU.L2.SizeBytes = 64 << 20 }, "GPU.L2.SizeBytes"},
		{"vaults", func(c *Config) { c.HMC.NumVaults = 512 }, "HMC.NumVaults"},
		{"banks", func(c *Config) { c.HMC.BanksPerVault = 512 }, "HMC.BanksPerVault"},
		{"NSU warps", func(c *Config) { c.NSU.NumWarps = 769 }, "NSU.NumWarps"},
		{"max NSU warps", func(c *Config) { c.NSU.NumWarps = math.MaxInt32 }, "NSU.NumWarps"},
		{"RO cache", func(c *Config) { c.NSU.ReadOnlyCacheBytes = 256 << 10 }, "NSU.ReadOnlyCacheBytes"},
		{"stack TLB", func(c *Config) { c.Arch.StackTLBEntries = 1024 }, "Arch.StackTLBEntries"},
		// Counts that, at zero, left a pipeline or a buffer without a slot:
		// the run hung until the simulated time limit or failed there.
		{"no ALUs", func(c *Config) { c.GPU.NumALUs = 0 }, "GPU.NumALUs"},
		{"no LSUs", func(c *Config) { c.GPU.NumLSUs = 0 }, "GPU.NumLSUs"},
		{"no issue", func(c *Config) { c.GPU.MaxIssue = 0 }, "GPU.MaxIssue"},
		{"no NSU issue", func(c *Config) { c.NSU.IssueWidth = 0 }, "NSU.IssueWidth"},
		{"no NSU commands", func(c *Config) { c.NSU.CmdEntries = 0 }, "NSU.CmdEntries"},
		{"no NSU read data", func(c *Config) { c.NSU.ReadDataEntries = 0 }, "NSU.ReadDataEntries"},
		{"no NSU write addresses", func(c *Config) { c.NSU.WriteAddrEntries = 0 }, "NSU.WriteAddrEntries"},
		{"no ready entries", func(c *Config) { c.NDP.ReadyEntries = 0 }, "NDP.ReadyEntries"},
		// Negative timings and latencies.
		{"negative tRP", func(c *Config) { c.HMC.TRP = -1 }, "HMC.TRP"},
		{"negative tCCD", func(c *Config) { c.HMC.TCCD = -1 }, "HMC.TCCD"},
		{"negative tRCD", func(c *Config) { c.HMC.TRCD = -1 }, "HMC.TRCD"},
		{"negative tCL", func(c *Config) { c.HMC.TCL = -1 }, "HMC.TCL"},
		{"negative tWR", func(c *Config) { c.HMC.TWR = -1 }, "HMC.TWR"},
		{"negative tRAS", func(c *Config) { c.HMC.TRAS = -1 }, "HMC.TRAS"},
		{"negative tREFI", func(c *Config) { c.HMC.TREFIps = -1 }, "HMC.TREFIps"},
		{"negative tRFC", func(c *Config) { c.HMC.TRFCps = -1 }, "HMC.TRFCps"},
		{"negative router latency", func(c *Config) { c.HMC.RouterLatPS = -1 }, "HMC.RouterLatPS"},
		{"negative ALU latency", func(c *Config) { c.GPU.ALULatency = -1 }, "GPU.ALULatency"},
		{"negative L1 hit latency", func(c *Config) { c.GPU.L1HitLatency = -1 }, "GPU.L1HitLatency"},
		{"negative L2 latency", func(c *Config) { c.GPU.L2Latency = -1 }, "GPU.L2Latency"},
		{"negative TLB miss latency", func(c *Config) { c.GPU.TLBMissLatency = -1 }, "GPU.TLBMissLatency"},
		{"negative NSU ALU latency", func(c *Config) { c.NSU.ALULatency = -1 }, "NSU.ALULatency"},
		// Rules whose messages once named no Config path.
		{"no SMs", func(c *Config) { c.GPU.NumSMs = 0 }, "GPU.NumSMs"},
		{"vaults not a power of two", func(c *Config) { c.HMC.NumVaults = 24 }, "HMC.NumVaults"},
		{"banks not a power of two", func(c *Config) { c.HMC.BanksPerVault = 3 }, "HMC.BanksPerVault"},
		{"page not a power of two", func(c *Config) { c.Mem.PageBytes = 3000 }, "Mem.PageBytes"},
		{"page below a line", func(c *Config) { c.Mem.PageBytes = 64 }, "Mem.PageBytes"},
		{"no SM clock", func(c *Config) { c.GPU.SMClockMHz = 0 }, "GPU.SMClockMHz"},
		{"no crossbar clock", func(c *Config) { c.GPU.XbarClockMHz = 0 }, "GPU.XbarClockMHz"},
		{"no NSU clock", func(c *Config) { c.NSU.ClockMHz = 0 }, "NSU.ClockMHz"},
		{"no tCK", func(c *Config) { c.HMC.TCKps = 0 }, "HMC.TCKps"},
		{"no window", func(c *Config) { c.NDP.WindowSize = 0 }, "NDP.WindowSize"},
		{"no epoch", func(c *Config) { c.NDP.EpochCycles = 0 }, "NDP.EpochCycles"},
		{"negative stack TLB entries", func(c *Config) { c.Arch.StackTLBEntries = -1 }, "Arch.StackTLBEntries"},
		{"negative stack TLB ways", func(c *Config) { c.Arch.StackTLBWays = -1 }, "Arch.StackTLBWays"},
		{"negative stack walk", func(c *Config) { c.Arch.StackWalkCycles = -1 }, "Arch.StackWalkCycles"},
		{"stack TLB entries not a multiple of ways", func(c *Config) {
			c.Arch = ArchConfig{Backend: "ndpage", StackTLBEntries: 8, StackTLBWays: 3}
		}, "Arch.StackTLBWays"},
		{"stack TLB sets not a power of two", func(c *Config) {
			c.Arch = ArchConfig{Backend: "ndpage", StackTLBEntries: 24, StackTLBWays: 4}
		}, "Arch.StackTLBEntries"},
	}
	for _, tc := range cases {
		c := Default()
		tc.set(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// TestValidateAcceptsSizeBounds: each bounded count is accepted at exactly
// 16x its default, and each link at exactly 1/16 of its default.
func TestValidateAcceptsSizeBounds(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"NumHMCs":                func(c *Config) { c.NumHMCs = 128; c.HMC.NetLinksPerHMC = 7 },
		"GPU.NumSMs":             func(c *Config) { c.GPU.NumSMs = 1024 },
		"GPU.MaxThreadsPerSM":    func(c *Config) { c.GPU.MaxThreadsPerSM = 16 * 1536 },
		"GPU.TLBEntries":         func(c *Config) { c.GPU.TLBEntries = 1024 },
		"GPU.L1I.SizeBytes":      func(c *Config) { c.GPU.L1I.SizeBytes = 64 << 10 },
		"GPU.L1D.SizeBytes":      func(c *Config) { c.GPU.L1D.SizeBytes = 512 << 10 },
		"GPU.L2.SizeBytes":       func(c *Config) { c.GPU.L2.SizeBytes = 32 << 20 },
		"HMC.NumVaults":          func(c *Config) { c.HMC.NumVaults = 256 },
		"HMC.BanksPerVault":      func(c *Config) { c.HMC.BanksPerVault = 256 },
		"NSU.NumWarps":           func(c *Config) { c.NSU.NumWarps = 768 },
		"NSU.ReadOnlyCacheBytes": func(c *Config) { c.NSU.ReadOnlyCacheBytes = 128 << 10 },
		"Arch.StackTLBEntries":   func(c *Config) { c.Arch.StackTLBEntries = 512 },
		"GPU.LinkGBps":           func(c *Config) { c.GPU.LinkGBps = 1.25 },
		"HMC.NetLinkGBps":        func(c *Config) { c.HMC.NetLinkGBps = 1.25 },
	} {
		c := Default()
		set(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s at its bound: %v", name, err)
		}
	}
}

// TestApplyOverridesErrors: a config patch, the overrides a run request
// applies over Default(), decodes strictly against the Config tree. An
// unknown field, a fractional count and an out-of-range seed are errors;
// a whole count is applied and leaves the other fields at their defaults.
func TestApplyOverridesErrors(t *testing.T) {
	apply := func(patch string) (Config, error) {
		c := Default()
		dec := json.NewDecoder(strings.NewReader(patch))
		dec.DisallowUnknownFields()
		err := dec.Decode(&c)
		return c, err
	}
	for name, patch := range map[string]string{
		"unknown knob":  `{"GPU":{"NoSuchKnob":1}}`,
		"fractional sm": `{"GPU":{"NumSMs":3.5}}`,
		"huge seed":     `{"Mem":{"PlacementSeed":1e30}}`,
	} {
		if _, err := apply(patch); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
	got, err := apply(`{"gpu":{"numsms":8}}`)
	if err != nil {
		t.Fatalf("whole-valued count rejected: %v", err)
	}
	want := Default()
	want.GPU.NumSMs = 8
	if !reflect.DeepEqual(got, want) {
		t.Errorf("patch changed more than GPU.NumSMs:\n got %+v\nwant %+v", got, want)
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a := Default()
	b := Default()
	// Same resolved config — independently of the order the values got there.
	a.GPU.NumSMs = 4
	a.NSU.ClockMHz = 175
	b.NSU.ClockMHz = 175
	b.GPU.NumSMs = 4
	ca, err := Canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical bytes differ for identical configs:\n%s\n%s", ca, cb)
	}
	cd, _ := Canonical(Default())
	if bytes.Equal(ca, cd) {
		t.Fatal("canonical bytes identical for different configs")
	}
}

func TestPacketBufferOverhead(t *testing.T) {
	c := Default()
	// §7.5: 8 B x 300 pending + 8 B x 64 ready = 2912 B = 2.84 KB.
	if got := c.PacketBufferBytesPerSM(); got != 2912 {
		t.Fatalf("packet buffer bytes = %d, want 2912", got)
	}
	frac := float64(c.PacketBufferBytesPerSM()) / float64(c.OnChipStorageBytesPerSM())
	// Paper reports 1.8% of on-chip storage.
	if frac < 0.01 || frac > 0.035 {
		t.Fatalf("overhead fraction = %.4f, want ~0.018", frac)
	}
}

func TestWarpsPerSM(t *testing.T) {
	if got := Default().WarpsPerSM(); got != 48 {
		t.Fatalf("WarpsPerSM = %d, want 48", got)
	}
}

func TestSetsAlwaysDividesSize(t *testing.T) {
	// Property: for any valid geometry, Sets()*Ways*LineBytes == SizeBytes.
	f := func(setsLog, waysLog uint8) bool {
		sets := 1 << (setsLog % 10)
		ways := 1 << (waysLog % 4)
		g := CacheGeom{SizeBytes: sets * ways * 128, Ways: ways, LineBytes: 128}
		if err := g.Validate(); err != nil {
			return false
		}
		return g.Sets()*g.Ways*g.LineBytes == g.SizeBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
