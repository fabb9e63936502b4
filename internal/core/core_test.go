package core

import (
	"math"
	"testing"
	"testing/quick"

	"ndpgpu/internal/config"
)

func TestPacketSizes(t *testing.T) {
	cmd := &CmdPacket{Mask: 0xF, In: RegSet{Regs: []RegVals{{Reg: 1}}}}
	// header + 1 reg x 4 active threads x 4 B = 16 + 16.
	if got := cmd.Size(); got != 32 {
		t.Fatalf("cmd size = %d, want 32", got)
	}
	cmd.In = RegSet{}
	if got := cmd.Size(); got != 16 {
		t.Fatalf("empty cmd size = %d, want 16", got)
	}

	rdf := &RDFPacket{Access: LineAccess{Mask: 0xFFFFFFFF, Aligned: true}}
	if got := rdf.Size(); got != 16 {
		t.Fatalf("aligned rdf size = %d, want 16", got)
	}
	rdf.Access.Aligned = false
	if got := rdf.Size(); got != 16+32 {
		t.Fatalf("misaligned rdf size = %d, want 48", got)
	}

	resp := &RDFResp{Mask: 0x3}
	if got := resp.Size(); got != 16+8 {
		t.Fatalf("resp size = %d, want 24", got)
	}

	w := &WritePacket{Access: LineAccess{Mask: 0xFF}}
	if got := w.Size(); got != 16+32 {
		t.Fatalf("write size = %d, want 48", got)
	}

	if (&WriteAck{}).Size() != 8 || (&InvalPacket{}).Size() != 8 {
		t.Fatal("small packet sizes wrong")
	}

	ack := &AckPacket{Mask: 0xFFFFFFFF, Out: RegSet{Regs: []RegVals{{Reg: 2}, {Reg: 3}}}}
	if got := ack.Size(); got != 16+2*32*4 {
		t.Fatalf("ack size = %d, want 272", got)
	}

	if got := ReadRespBytes(128); got != 144 {
		t.Fatalf("read resp = %d, want 144", got)
	}
}

func TestSelectTargetMajority(t *testing.T) {
	if got := SelectTarget([]int{3, 3, 5, 3, 5}, 8); got != 3 {
		t.Fatalf("target = %d, want 3", got)
	}
	if got := SelectTarget([]int{7}, 8); got != 7 {
		t.Fatalf("target = %d, want 7", got)
	}
	if got := SelectTarget(nil, 8); got != 0 {
		t.Fatalf("empty target = %d, want 0", got)
	}
}

func TestRemoteTraffic(t *testing.T) {
	hmcs := []int{1, 1, 2, 3, 1}
	if got := RemoteTraffic(hmcs, 1); got != 2 {
		t.Fatalf("remote = %d, want 2", got)
	}
	if got := RemoteTraffic(hmcs, 2); got != 4 {
		t.Fatalf("remote = %d, want 4", got)
	}
}

func TestOptimalNeverWorseProperty(t *testing.T) {
	// Figure 5 invariant: the oracle (majority over all accesses) never
	// produces more remote traffic than the first-instruction policy.
	f := func(raw []uint8, firstLen uint8) bool {
		if len(raw) == 0 {
			return true
		}
		all := make([]int, len(raw))
		for i, r := range raw {
			all[i] = int(r % 8)
		}
		fl := 1 + int(firstLen)%len(all)
		first := SelectTarget(all[:fl], 8)
		opt := SelectOptimal(all, 8)
		return RemoteTraffic(all, opt) <= RemoteTraffic(all, first)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferManagerReserveRelease(t *testing.T) {
	cfg := config.Default()
	m := NewBufferManager(cfg)
	if !m.Reserve(0, 4, 2) {
		t.Fatal("reserve rejected with full credits")
	}
	if m.Available(0, CmdBuffer) != cfg.NSU.CmdEntries-1 {
		t.Fatal("cmd credit not taken")
	}
	if m.Available(0, ReadDataBuffer) != cfg.NSU.ReadDataEntries-4 {
		t.Fatal("read-data credits not taken")
	}
	if m.AllReturned() {
		t.Fatal("AllReturned true with outstanding credits")
	}
	m.Return(0, CmdBuffer, 1)
	m.Return(0, ReadDataBuffer, 4)
	m.Return(0, WriteAddrBuffer, 2)
	if !m.AllReturned() {
		t.Fatal("AllReturned false after full return")
	}
}

func TestBufferManagerExhaustion(t *testing.T) {
	cfg := config.Default()
	m := NewBufferManager(cfg)
	for i := 0; i < cfg.NSU.CmdEntries; i++ {
		if !m.Reserve(3, 0, 0) {
			t.Fatalf("reserve %d rejected", i)
		}
	}
	if m.Reserve(3, 0, 0) {
		t.Fatal("reserve beyond cmd-buffer capacity accepted")
	}
	if got := m.TargetRejects(3); got != 1 {
		t.Fatalf("rejects = %d", got)
	}
	// Other NSUs unaffected.
	if !m.Reserve(4, 0, 0) {
		t.Fatal("independent NSU wrongly exhausted")
	}
}

func TestBufferManagerOverReturnPanics(t *testing.T) {
	m := NewBufferManager(config.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-return")
		}
	}()
	m.Return(0, CmdBuffer, 1)
}

func TestBufferManagerNeverNegativeProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := config.Default()
		m := NewBufferManager(cfg)
		outLD, outST, outCmd := 0, 0, 0
		for _, op := range ops {
			ld, st := int(op%7), int(op/7%5)
			if m.Reserve(0, ld, st) {
				outCmd++
				outLD += ld
				outST += st
			}
			if op%3 == 0 && outCmd > 0 {
				outCmd--
				m.Return(0, CmdBuffer, 1)
			}
			if m.Available(0, CmdBuffer) < 0 || m.Available(0, ReadDataBuffer) < 0 ||
				m.Available(0, WriteAddrBuffer) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeverAlways(t *testing.T) {
	if (Never{}).Decide(0) || (Never{}).Ratio() != 0 {
		t.Fatal("Never misbehaves")
	}
	if !(Always{}).Decide(0) || (Always{}).Ratio() != 1 {
		t.Fatal("Always misbehaves")
	}
}

func TestStaticRatioApproximatesP(t *testing.T) {
	s := NewStaticRatio(0.3, 7)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Decide(0) {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("offload fraction = %v, want ~0.3", got)
	}
}

func TestDynamicClimbsTowardOptimum(t *testing.T) {
	// Synthetic objective: throughput peaks at ratio 0.6.
	cfg := config.Default().NDP
	d := NewDynamic(cfg, 1)
	objective := func(r float64) int64 {
		return int64(10000 * (1 - (r-0.6)*(r-0.6)))
	}
	for epoch := 0; epoch < 60; epoch++ {
		d.EpochTick(objective(d.Ratio()))
	}
	if math.Abs(d.Ratio()-0.6) > 0.2 {
		t.Fatalf("converged ratio = %v, want near 0.6", d.Ratio())
	}
}

func TestDynamicRatioBounded(t *testing.T) {
	cfg := config.Default().NDP
	d := NewDynamic(cfg, 2)
	// Monotonically increasing objective drives the ratio to the top bound.
	for epoch := 0; epoch < 50; epoch++ {
		d.EpochTick(int64(1000 * d.Ratio()))
	}
	for _, r := range d.Trace {
		if r < cfg.StepUnit-1e-9 || r > 1-cfg.StepUnit+1e-9 {
			t.Fatalf("ratio %v escaped [%v, %v]", r, cfg.StepUnit, 1-cfg.StepUnit)
		}
	}
	if d.Ratio() < 0.9 {
		t.Fatalf("ratio = %v, should have climbed near the upper bound", d.Ratio())
	}
}

func TestDynamicShrinksStepOnOscillation(t *testing.T) {
	cfg := config.Default().NDP
	d := NewDynamic(cfg, 3)
	// Strictly decreasing throughput reverses direction every epoch.
	for epoch := 0; epoch < 20; epoch++ {
		d.EpochTick(int64(1000 - epoch*10))
	}
	// Algorithm 1 verbatim: at the minimum step the else-branch grows it
	// again, so sustained oscillation bounces between MinStep and
	// MinStep+StepUnit — never back to MaxStep.
	if d.Step() > cfg.MinStep+cfg.StepUnit {
		t.Fatalf("step = %v, want <= %v under oscillation", d.Step(), cfg.MinStep+cfg.StepUnit)
	}
}

func TestDynamicNeverReachesZero(t *testing.T) {
	// §7.2: STN's optimum is ratio 0 but the controller keeps probing
	// non-zero ratios — the motivation for cache-awareness.
	cfg := config.Default().NDP
	d := NewDynamic(cfg, 4)
	for epoch := 0; epoch < 100; epoch++ {
		d.EpochTick(int64(1000 * (1 - d.Ratio()))) // best at 0
	}
	if d.Ratio() <= 0 {
		t.Fatal("ratio reached zero; Algorithm 1 bounds it above StepUnit")
	}
	if d.Ratio() > 0.3 {
		t.Fatalf("ratio = %v, should hover near the lower bound", d.Ratio())
	}
}

func TestCacheAwareSuppressesCacheFriendlyBlock(t *testing.T) {
	blocks := []BlockInfo{{NumLD: 2, NumST: 0, RegsIn: 0, RegsOut: 1}}
	c := NewCacheAware(Always{}, blocks, 128)
	// 100% hit rate: benefit = ceil(2 * 0) * ... + 0 = 0 < overhead.
	for i := 0; i < 10; i++ {
		c.RecordAccess(0, 2, 2)
	}
	if c.Decide(0) {
		t.Fatal("cache-friendly block not suppressed")
	}
	if c.Suppressed != 1 {
		t.Fatalf("suppressed = %d", c.Suppressed)
	}
}

func TestCacheAwarePassesCacheHostileBlock(t *testing.T) {
	blocks := []BlockInfo{{NumLD: 2, NumST: 1, RegsIn: 1, RegsOut: 0}}
	c := NewCacheAware(Always{}, blocks, 128)
	// 0% hit rate: benefit = 2*128*32 + 1*4*32 >> overhead = 1*4*32.
	for i := 0; i < 10; i++ {
		c.RecordAccess(0, 2, 0)
	}
	if !c.Decide(0) {
		t.Fatal("cache-hostile block wrongly suppressed")
	}
}

func TestCacheAwareDefersBelowMinSamples(t *testing.T) {
	blocks := []BlockInfo{{NumLD: 1, RegsOut: 5}}
	c := NewCacheAware(Always{}, blocks, 128)
	c.RecordAccess(0, 1, 1)
	if !c.Decide(0) {
		t.Fatal("filter engaged before MinSamples")
	}
}

func TestCacheAwareProfilesIndirectBlocks(t *testing.T) {
	// Indirect gather blocks are profiled like any other: when every
	// gathered line turns out to live in the GPU caches, offloading would
	// only ship cached data, so the filter suppresses the block.
	blocks := []BlockInfo{{NumLD: 1, RegsOut: 8, Indirect: true}}
	c := NewCacheAware(Always{}, blocks, 128)
	for i := 0; i < 20; i++ {
		c.RecordAccess(0, 8, 8) // 100% hit
	}
	if c.Decide(0) {
		t.Fatal("fully cached indirect block not suppressed")
	}
	// A missing gather keeps the block offloadable.
	blocks2 := []BlockInfo{{NumLD: 1, RegsOut: 4, Indirect: true}}
	c2 := NewCacheAware(Always{}, blocks2, 128)
	for i := 0; i < 20; i++ {
		c2.RecordAccess(0, 8, 0) // 0% hit
	}
	if !c2.Decide(0) {
		t.Fatal("cache-missing indirect block wrongly suppressed")
	}
}

func TestCacheAwareDelegatesEpoch(t *testing.T) {
	d := NewDynamic(config.Default().NDP, 5)
	c := NewCacheAware(d, []BlockInfo{{}}, 128)
	before := d.Ratio()
	c.EpochTick(100)
	c.EpochTick(200)
	if d.Ratio() == before && len(d.Trace) != 2 {
		t.Fatal("epoch ticks not delegated to inner decider")
	}
	if c.Ratio() != d.Ratio() {
		t.Fatal("Ratio not delegated")
	}
}
