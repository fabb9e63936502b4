package noc

import (
	"strings"
	"testing"
	"testing/quick"

	"ndpgpu/internal/config"
	"ndpgpu/internal/stats"
)

func fabric(t *testing.T) (*Fabric, *stats.Stats) {
	t.Helper()
	st := stats.New()
	return NewFabric(config.Default(), st), st
}

func TestGPUToHMCDelivery(t *testing.T) {
	f, st := fabric(t)
	at := f.SendGPUToHMC(0, 3, 128, "hello")
	if at <= 0 {
		t.Fatalf("arrival = %d", at)
	}
	// 128 B at 20 GB/s = 6.4 ns serialization + 4.5 ns router latency.
	if at != 6400+4500 {
		t.Fatalf("arrival = %d ps, want 10900", at)
	}
	if _, ok := f.HMCInbox(3).Pop(at - 1); ok {
		t.Fatal("message delivered early")
	}
	msg, ok := f.HMCInbox(3).Pop(at)
	if !ok || msg != "hello" {
		t.Fatalf("Pop = %v, %v", msg, ok)
	}
	if st.Traffic[stats.GPULink] != 128 {
		t.Fatalf("GPU link traffic = %d", st.Traffic[stats.GPULink])
	}
}

func TestLinkSerialization(t *testing.T) {
	f, _ := fabric(t)
	a1 := f.SendGPUToHMC(0, 0, 128, 1)
	a2 := f.SendGPUToHMC(0, 0, 128, 2)
	if a2 != a1+6400 {
		t.Fatalf("second packet arrival %d, want %d (serialized)", a2, a1+6400)
	}
	// Different link: no serialization.
	a3 := f.SendGPUToHMC(0, 1, 128, 3)
	if a3 != a1 {
		t.Fatalf("independent link serialized: %d vs %d", a3, a1)
	}
}

func TestHMCToGPU(t *testing.T) {
	f, st := fabric(t)
	at := f.SendHMCToGPU(100, 5, 64, "resp")
	msg, ok := f.GPUInbox().Pop(at)
	if !ok || msg != "resp" {
		t.Fatal("GPU inbox delivery failed")
	}
	if st.Traffic[stats.GPULink] != 64 {
		t.Fatalf("traffic = %d", st.Traffic[stats.GPULink])
	}
}

func TestHops(t *testing.T) {
	f, _ := fabric(t)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 4, 1},
		{0, 3, 2}, {0, 7, 3}, {5, 2, 3}, {6, 6, 0},
	}
	for _, c := range cases {
		if got := f.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHMCToHMCMultiHopTraffic(t *testing.T) {
	f, st := fabric(t)
	at1 := f.SendHMCToHMC(0, 0, 1, 128, "1hop")
	if st.Traffic[stats.MemNet] != 128 {
		t.Fatalf("1-hop traffic = %d, want 128", st.Traffic[stats.MemNet])
	}
	at3 := f.SendHMCToHMC(0, 0, 7, 128, "3hop")
	if st.Traffic[stats.MemNet] != 128+3*128 {
		t.Fatalf("3-hop traffic = %d, want 512", st.Traffic[stats.MemNet])
	}
	if at3 <= at1 {
		t.Fatalf("3-hop (%d) not slower than 1-hop (%d)", at3, at1)
	}
	if _, ok := f.HMCInbox(1).Pop(at1); !ok {
		t.Fatal("1-hop not delivered")
	}
	if _, ok := f.HMCInbox(7).Pop(at3); !ok {
		t.Fatal("3-hop not delivered")
	}
}

func TestSameHMCIsFree(t *testing.T) {
	f, st := fabric(t)
	at := f.SendHMCToHMC(42, 3, 3, 4096, "local")
	if at != 42 {
		t.Fatalf("local delivery at %d, want 42", at)
	}
	if st.Traffic[stats.MemNet] != 0 {
		t.Fatal("local movement should not count as memory-network traffic")
	}
}

func TestMemNetDoesNotTouchGPULinks(t *testing.T) {
	f, st := fabric(t)
	f.SendHMCToHMC(0, 2, 5, 1024, "x")
	if st.Traffic[stats.GPULink] != 0 {
		t.Fatal("inter-HMC traffic leaked onto GPU links")
	}
	var gpuLink, mesh int64
	f.ForEachLink(func(name string, l *Link) {
		if strings.HasPrefix(name, "mesh") {
			mesh += l.Bytes
		} else {
			gpuLink += l.Bytes
		}
	})
	if gpuLink != 0 {
		t.Fatal("GPU link byte counter moved")
	}
	if mesh == 0 {
		t.Fatal("mesh byte counter did not move")
	}
}

func TestInboxOrdering(t *testing.T) {
	var in Inbox
	in.Put(300, "c")
	in.Put(100, "a")
	in.Put(200, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		msg, ok := in.Pop(1000)
		if !ok || msg != w {
			t.Fatalf("Pop = %v, want %v", msg, w)
		}
	}
	if _, ok := in.Pop(1000); ok {
		t.Fatal("Pop on empty inbox returned a message")
	}
}

func TestInboxFIFOForEqualTimes(t *testing.T) {
	var in Inbox
	for i := 0; i < 10; i++ {
		in.Put(5, i)
	}
	for i := 0; i < 10; i++ {
		msg, ok := in.Pop(5)
		if !ok || msg != i {
			t.Fatalf("equal-time messages out of order: got %v want %d", msg, i)
		}
	}
}

func TestQuiesced(t *testing.T) {
	f, _ := fabric(t)
	if !f.Quiesced() {
		t.Fatal("fresh fabric not quiesced")
	}
	at := f.SendGPUToHMC(0, 0, 8, "x")
	if f.Quiesced() {
		t.Fatal("fabric quiesced with undelivered message")
	}
	f.HMCInbox(0).Pop(at)
	if !f.Quiesced() {
		t.Fatal("fabric not quiesced after drain")
	}
}

func TestRoutingDeliversEverywhereProperty(t *testing.T) {
	f := func(src, dst uint8) bool {
		fab := NewFabric(config.Default(), nil)
		s, d := int(src%8), int(dst%8)
		at := fab.SendHMCToHMC(0, s, d, 64, "p")
		_, ok := fab.HMCInbox(d).Pop(at)
		return ok && fab.Hops(s, d) <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthMatchesConfig(t *testing.T) {
	// 20 GB/s: 2000 bytes should serialize in 100 ns.
	l := newLink(20, 0)
	at := l.Send(0, 2000)
	if at != 100_000 {
		t.Fatalf("arrival = %d ps, want 100000", at)
	}
}

func TestFabricPanicsOnTooFewLinks(t *testing.T) {
	cfg := config.Default()
	cfg.HMC.NetLinksPerHMC = 2 // hypercube over 8 needs 3
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFabric(cfg, nil)
}

func TestRingTopology(t *testing.T) {
	cfg := config.Default()
	cfg.HMC.NetTopology = "ring"
	st := stats.New()
	f := NewFabric(cfg, st)
	cases := []struct{ a, b, want int }{
		{0, 1, 1}, {0, 7, 1}, {0, 4, 4}, {2, 7, 3}, {5, 5, 0},
	}
	for _, c := range cases {
		if got := f.Hops(c.a, c.b); got != c.want {
			t.Errorf("ring Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Delivery across the longest path.
	at := f.SendHMCToHMC(0, 0, 4, 128, "far")
	if _, ok := f.HMCInbox(4).Pop(at); !ok {
		t.Fatal("ring did not deliver")
	}
	if st.Traffic[stats.MemNet] != 4*128 {
		t.Fatalf("ring traffic = %d, want 512 (4 hops)", st.Traffic[stats.MemNet])
	}
}

func TestRingDeliversEverywhereProperty(t *testing.T) {
	cfg := config.Default()
	cfg.HMC.NetTopology = "ring"
	f := func(src, dst uint8) bool {
		fab := NewFabric(cfg, nil)
		s, d := int(src%8), int(dst%8)
		at := fab.SendHMCToHMC(0, s, d, 64, "p")
		_, ok := fab.HMCInbox(d).Pop(at)
		return ok && fab.Hops(s, d) <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
