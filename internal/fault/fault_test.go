package fault

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/timing"
)

func TestBackoff(t *testing.T) {
	cases := []struct {
		base    int64
		attempt int
		want    int64
	}{
		{100, 0, 100},
		{100, 1, 200},
		{100, 2, 400},
		{100, 3, 800},
		{2000, 0, 2000},
		{2000, 3, 16000},
		{100, -5, 100},     // negative attempts clamp to the first try
		{1, 20, 1 << 16},   // shift clamps at 16
		{1, 1000, 1 << 16}, // far past the clamp
		{30000, 16, 30000 << 16},
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.attempt); got != c.want {
			t.Errorf("Backoff(%d, %d) = %d, want %d", c.base, c.attempt, got, c.want)
		}
	}
}

func TestTotalWindow(t *testing.T) {
	cases := []struct {
		base       int64
		maxRetries int
		want       int64
	}{
		{100, 0, 100},      // single attempt, no retry
		{100, 1, 300},      // 100 + 200
		{100, 3, 1500},     // 100 + 200 + 400 + 800
		{2000, 3, 30000},   // the chaos-suite knobs
		{30000, 3, 450000}, // the defaults
	}
	for _, c := range cases {
		if got := TotalWindow(c.base, c.maxRetries); got != c.want {
			t.Errorf("TotalWindow(%d, %d) = %d, want %d", c.base, c.maxRetries, got, c.want)
		}
	}
	// The NSU abort deadline contract: the total window strictly dominates
	// every single attempt's timeout.
	for a := 0; a <= 3; a++ {
		if TotalWindow(2000, 3) <= Backoff(2000, a) {
			t.Fatalf("TotalWindow does not dominate attempt %d", a)
		}
	}
}

func TestParse(t *testing.T) {
	fc, err := Parse(
		"linkdown:t=2000000:hmc=3:dim=1:dur=500000;"+
			"nsustall:t=1000:hmc=0:dur=9000;"+
			"nsufail:t=5000000:hmc=7;"+
			"vaultfreeze:t=1:hmc=2:vault=15:dur=2;"+
			"drop:p=0.01;corrupt:p=0.001;seed=42;timeout=2000;retries=5",
		8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(fc.Events))
	}
	ld := fc.Events[0]
	if ld.Kind != "linkdown" || ld.AtPS != 2000000 || ld.HMC != 3 || ld.Dim != 1 || ld.DurPS != 500000 {
		t.Errorf("linkdown parsed as %+v", ld)
	}
	vf := fc.Events[3]
	if vf.Kind != "vaultfreeze" || vf.Vault != 15 || vf.DurPS != 2 {
		t.Errorf("vaultfreeze parsed as %+v", vf)
	}
	if fc.DropProb != 0.01 || fc.CorruptProb != 0.001 {
		t.Errorf("probs = %v/%v", fc.DropProb, fc.CorruptProb)
	}
	if fc.Seed != 42 || fc.TimeoutCycles != 2000 || fc.MaxRetries != 5 {
		t.Errorf("knobs = seed %d timeout %d retries %d", fc.Seed, fc.TimeoutCycles, fc.MaxRetries)
	}
	if !fc.Enabled() {
		t.Error("parsed schedule not Enabled")
	}

	// Whitespace and empty items are tolerated.
	fc2, err := Parse(" drop:p=0.5 ; ; ", 8, 16)
	if err != nil || fc2.DropProb != 0.5 {
		t.Errorf("whitespace parse: %v %v", fc2.DropProb, err)
	}

	// rand: expands to n deterministic events that pass validation.
	fr1, err := Parse("rand:seed=9:n=6", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr1.Events) != 6 || fr1.Seed != 9 {
		t.Fatalf("rand parse: %d events, seed %d", len(fr1.Events), fr1.Seed)
	}
	fr2, _ := Parse("rand:seed=9:n=6", 8, 16)
	if !reflect.DeepEqual(fr1, fr2) {
		t.Error("rand schedule is not deterministic for a fixed seed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus:t=1:hmc=0",                      // unknown kind
		"linkdown:hmc=0:dim=0",                 // missing t
		"linkdown:t=x:hmc=0",                   // bad integer
		"linkdown:t=1:hmc=9:dim=0",             // hmc out of range (8 stacks)
		"linkdown:t=1",                         // hmc missing -> -1 out of range
		"nsustall:t=1:hmc=0",                   // stall must be windowed
		"vaultfreeze:t=1:hmc=0:vault=99:dur=5", // vault out of range (16 vaults)
		"vaultfreeze:t=1:hmc=0:vault=0",        // freeze must be windowed
		"drop",                                 // missing p
		"drop:p=1.5",                           // probability out of [0,1]
		"corrupt:p=abc",                        // bad float
		"seed=xyz",                             // bad seed
		"timeout=0",                            // timeout must be positive
		"retries=-1",                           // retries must be positive
		"linkdown:t=1:hmc=0:dim",               // malformed field (no '=')
		"linkdown:t=1:hmc=0:dim=3",             // dim out of range (3 dims on 8 stacks)
		"linkdown:t=1:hmc=0:dim=7",             // dim far out of range
		"nsufail:t=1:hmc=0:dur=5",              // a failure is permanent
		"rand:seed=1:n=-1",                     // negative event count
		"rand:seed=1:n=0",                      // empty random schedule
		"rand:seed=1:n=65",                     // event count past the cap of 64
		"rand:seed=1:n=9223372036854775807",    // unbounded allocation
	}
	for _, spec := range cases {
		if _, err := Parse(spec, 8, 16); err == nil {
			t.Errorf("Parse(%q) accepted a bad schedule", spec)
		}
	}
}

func mkInjector(t *testing.T, spec string) *Injector {
	t.Helper()
	fc, err := Parse(spec, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	return New(fc, 8, 16, 3, false)
}

func TestInjectorWindows(t *testing.T) {
	inj := mkInjector(t,
		"nsustall:t=1000:hmc=2:dur=500;"+
			"vaultfreeze:t=2000:hmc=1:vault=3:dur=100;"+
			"nsufail:t=3000:hmc=4;"+
			"linkdown:t=4000:hmc=0:dim=1:dur=1000")

	if inj.NSUStalled(999, 2) {
		t.Error("stalled before the window opens")
	}
	if !inj.NSUStalled(1000, 2) || !inj.NSUStalled(1499, 2) {
		t.Error("not stalled inside the window")
	}
	if inj.NSUStalled(1500, 2) {
		t.Error("still stalled after the window closes")
	}
	if !inj.VaultFrozen(2050, 1, 3) || inj.VaultFrozen(2050, 1, 4) {
		t.Error("vault freeze hit the wrong vault")
	}
	if inj.VaultFrozen(2100, 1, 3) {
		t.Error("vault still frozen after the window")
	}
	if inj.NSUFailed(2999, 4) || !inj.NSUFailed(3000, 4) {
		t.Error("nsufail edge did not fire at t=3000")
	}

	v0 := inj.TopoVersion(3999)
	if inj.LinkDead(3999, 0, 1) {
		t.Error("link dead before its event")
	}
	if !inj.LinkDead(4000, 0, 1) {
		t.Error("link alive inside its down window")
	}
	if inj.TopoVersion(4000) == v0 {
		t.Error("topology version did not change on link death")
	}
	if inj.LinkDead(5000, 0, 1) {
		t.Error("link still dead after recovery")
	}
	if !inj.NSUFailed(1<<40, 4) {
		t.Error("nsufail without dur is not permanent")
	}
}

// TestEdgeQueriesAreExact pins the contract wake-scheduled components rely
// on: NextNSUEdge/NextFreezeEdge are pure per-stack reads of the schedule,
// and a state query at a future time — the fabric's link checks at future
// hop times — leaks nothing into a query at an earlier time.
func TestEdgeQueriesAreExact(t *testing.T) {
	inj := mkInjector(t,
		"nsustall:t=1000:hmc=2:dur=500;"+
			"vaultfreeze:t=2000:hmc=1:vault=3:dur=100;"+
			"nsufail:t=3000:hmc=2;"+
			"linkdown:t=4000:hmc=0:dim=1:dur=1000")
	for _, c := range []struct {
		t, wantNSU2, wantFreeze1 timing.PS
	}{
		{0, 1000, 2000},
		{1000, 1500, 2000},
		{1499, 1500, 2000},
		{1500, 3000, 2000},
		{2050, 3000, 2100},
		{3000, timing.Never, timing.Never},
	} {
		if got := inj.NextNSUEdge(c.t, 2); got != c.wantNSU2 {
			t.Errorf("NextNSUEdge(%d, 2) = %d, want %d", c.t, got, c.wantNSU2)
		}
		if got := inj.NextFreezeEdge(c.t, 1); got != c.wantFreeze1 {
			t.Errorf("NextFreezeEdge(%d, 1) = %d, want %d", c.t, got, c.wantFreeze1)
		}
	}
	if got := inj.NextNSUEdge(0, 1); got != timing.Never {
		t.Errorf("stack 1 has no NSU edges, NextNSUEdge = %d", got)
	}

	// Queries at future times first, then at earlier ones.
	if inj.TopoVersion(4500) != 1 || !inj.VaultFrozen(2050, 1, 3) || !inj.NSUStalled(1200, 2) {
		t.Fatal("a fault is not visible inside its window")
	}
	if inj.VaultFrozen(1900, 1, 3) {
		t.Error("a freeze scheduled at 2000 is visible at 1900 after a later query")
	}
	if inj.NSUStalled(999, 2) {
		t.Error("a stall scheduled at 1000 is visible at 999 after a later query")
	}
	if inj.NSUFailed(2999, 2) || inj.LinkDead(3999, 0, 1) || inj.TopoVersion(3999) != 0 {
		t.Error("a failure or link edge is visible before its time after a later query")
	}
}

// TestQueriesMatchReplay checks every state query against a brute-force
// replay of the schedule. Seeded schedules on a coarse time grid make
// overlapping windows and edges sharing a timestamp on one resource common;
// the queries come in random, non-monotone time order, and each must equal
// the state after replaying the stably sorted edges up to the asked time.
func TestQueriesMatchReplay(t *testing.T) {
	const numHMCs, numVaults, dims = 4, 4, 2
	type replayEdge struct {
		at    timing.PS
		start bool
		ev    config.FaultEvent
	}
	shared, overlaps := 0, 0 // edges sharing a timestamp on one resource; windows opening inside another
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tick := func() int64 { return int64(rng.Intn(16)) * 100 }
		var fc config.FaultConfig
		for n := 4 + rng.Intn(24); n > 0; n-- {
			ev := config.FaultEvent{AtPS: tick(), HMC: rng.Intn(numHMCs)}
			switch rng.Intn(4) {
			case 0:
				ev.Kind, ev.Dim, ev.DurPS = "linkdown", rng.Intn(dims), tick()
			case 1:
				ev.Kind, ev.DurPS = "nsustall", 100+tick()
			case 2:
				ev.Kind = "nsufail"
			case 3:
				ev.Kind, ev.Vault, ev.DurPS = "vaultfreeze", rng.Intn(numVaults), 100+tick()
			}
			fc.Events = append(fc.Events, ev)
		}
		if err := fc.Validate(numHMCs, numVaults); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inj := New(fc, numHMCs, numVaults, dims, false)

		var edges []replayEdge
		for _, ev := range fc.Events {
			edges = append(edges, replayEdge{ev.AtPS, true, ev})
			if ev.DurPS > 0 {
				edges = append(edges, replayEdge{ev.AtPS + ev.DurPS, false, ev})
			}
		}
		sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		active := map[string]bool{}
		last := map[string]timing.PS{}
		for _, e := range edges {
			res := fmt.Sprint(e.ev.Kind, e.ev.HMC, e.ev.Vault)
			if e.ev.Kind == "linkdown" {
				res = fmt.Sprint(e.ev.Kind, min(e.ev.HMC, e.ev.HMC^1<<e.ev.Dim), e.ev.Dim)
			}
			if at, ok := last[res]; ok && at == e.at {
				shared++
			}
			if e.start && active[res] {
				overlaps++
			}
			last[res], active[res] = e.at, e.start
		}

		var times []timing.PS
		for q := timing.PS(-1); q <= 3300; q += 50 {
			times = append(times, q, q+1)
		}
		rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
		for _, now := range times {
			var stall, fail [numHMCs]bool
			var frozen [numHMCs][numVaults]bool
			var link [numHMCs][dims]bool // at the pair's lower endpoint
			topo := 0
			nextNSU := [numHMCs]timing.PS{timing.Never, timing.Never, timing.Never, timing.Never}
			nextFreeze := nextNSU
			for _, e := range edges {
				h := e.ev.HMC
				if e.at > now {
					switch e.ev.Kind {
					case "nsustall", "nsufail":
						nextNSU[h] = min(nextNSU[h], e.at)
					case "vaultfreeze":
						nextFreeze[h] = min(nextFreeze[h], e.at)
					}
					continue
				}
				switch e.ev.Kind {
				case "linkdown":
					link[min(h, h^1<<e.ev.Dim)][e.ev.Dim] = e.start
					topo++
				case "nsustall":
					stall[h] = e.start
				case "nsufail":
					fail[h] = e.start
				case "vaultfreeze":
					frozen[h][e.ev.Vault] = e.start
				}
			}
			if got := inj.TopoVersion(now); got != topo {
				t.Fatalf("seed %d: TopoVersion(%d) = %d, replay %d", seed, now, got, topo)
			}
			for h := 0; h < numHMCs; h++ {
				if got := inj.NSUStalled(now, h); got != stall[h] {
					t.Fatalf("seed %d: NSUStalled(%d, %d) = %v, replay %v", seed, now, h, got, stall[h])
				}
				if got := inj.NSUFailed(now, h); got != fail[h] {
					t.Fatalf("seed %d: NSUFailed(%d, %d) = %v, replay %v", seed, now, h, got, fail[h])
				}
				if got := inj.NextNSUEdge(now, h); got != nextNSU[h] {
					t.Fatalf("seed %d: NextNSUEdge(%d, %d) = %d, replay %d", seed, now, h, got, nextNSU[h])
				}
				if got := inj.NextFreezeEdge(now, h); got != nextFreeze[h] {
					t.Fatalf("seed %d: NextFreezeEdge(%d, %d) = %d, replay %d", seed, now, h, got, nextFreeze[h])
				}
				for v := 0; v < numVaults; v++ {
					if got := inj.VaultFrozen(now, h, v); got != frozen[h][v] {
						t.Fatalf("seed %d: VaultFrozen(%d, %d, %d) = %v, replay %v", seed, now, h, v, got, frozen[h][v])
					}
				}
				for d := 0; d < dims; d++ {
					if h&(1<<d) != 0 {
						continue // the fabric queries the lower endpoint
					}
					if got := inj.LinkDead(now, h, d); got != link[h][d] {
						t.Fatalf("seed %d: LinkDead(%d, %d, %d) = %v, replay %v", seed, now, h, d, got, link[h][d])
					}
				}
			}
		}
	}
	if shared == 0 || overlaps == 0 {
		t.Fatalf("schedules drew %d shared timestamps and %d overlapping windows, want both", shared, overlaps)
	}
	t.Logf("%d shared timestamps, %d overlapping windows", shared, overlaps)
}

func TestLinkdownCanonicalization(t *testing.T) {
	// Hypercube: the event may name either endpoint; state lives at the
	// lower one. hmc=5 dim=1 is the 5-7 link, canonical slot (5,1).
	inj := mkInjector(t, "linkdown:t=0:hmc=7:dim=1")
	if !inj.LinkDead(0, 5, 1) {
		t.Error("hypercube linkdown not canonicalized to the lower endpoint")
	}
	// Ring: odd dims name the counter-clockwise link out of hmc, which is
	// physical link hmc-1 stored at dim 0.
	fc, err := Parse("linkdown:t=0:hmc=3:dim=1", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ring := New(fc, 8, 16, 2, true)
	if !ring.LinkDead(0, 2, 0) {
		t.Error("ring linkdown not canonicalized to physical link 2")
	}
}

func TestDrawDropDeterminism(t *testing.T) {
	mk := func() *Injector { return mkInjector(t, "drop:p=0.3;corrupt:p=0.1;seed=7") }
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		ad, ac := a.DrawDrop()
		bd, bc := b.DrawDrop()
		if ad != bd || ac != bc {
			t.Fatalf("draw %d diverged between identically-seeded injectors", i)
		}
		if ad && ac {
			t.Fatal("a packet cannot be both dropped and corrupted")
		}
	}
	if a.Drops == 0 || a.Corrupts == 0 {
		t.Errorf("1000 draws at p=0.3/0.1 produced drops=%d corrupts=%d", a.Drops, a.Corrupts)
	}

	// Zero probabilities never drop and consume no PRNG state, so a dormant
	// injector cannot perturb anything through the drop path.
	quiet := mkInjector(t, "nsufail:t=1:hmc=0")
	before := quiet.rng.state
	for i := 0; i < 100; i++ {
		if d, c := quiet.DrawDrop(); d || c {
			t.Fatal("drop with zero probabilities")
		}
	}
	if quiet.rng.state != before {
		t.Error("zero-probability DrawDrop consumed PRNG state")
	}
}

func TestCommitBoard(t *testing.T) {
	inj := mkInjector(t, "nsufail:t=1:hmc=0")
	id := core.OffloadID{SM: 2, Warp: 5}
	if inj.InstanceCommitted(id, 0) {
		t.Fatal("empty board reports a commit")
	}
	inj.CommitInstance(id, 3)
	if !inj.InstanceCommitted(id, 3) {
		t.Fatal("posted commit not visible")
	}
	if inj.InstanceCommitted(id, 2) || inj.InstanceCommitted(id, 4) {
		t.Fatal("commit record matched a different instance")
	}
	inj.ForgetInstance(id)
	if inj.InstanceCommitted(id, 3) {
		t.Fatal("forgotten commit still visible")
	}
}

func TestAbandonBoard(t *testing.T) {
	inj := mkInjector(t, "nsufail:t=1:hmc=0")
	id := core.OffloadID{SM: 1, Warp: 7}
	if inj.InstanceAbandoned(id, 0) {
		t.Fatal("empty board reports an abandon")
	}
	inj.AbandonInstance(id, 4)
	if !inj.InstanceAbandoned(id, 4) {
		t.Fatal("posted abandon not visible")
	}
	if inj.InstanceAbandoned(id, 3) || inj.InstanceAbandoned(id, 5) {
		t.Fatal("abandon record matched a different instance")
	}
	// A later instance of the same warp slot overwrites the record: the
	// board stays bounded by one entry per slot.
	inj.AbandonInstance(id, 9)
	if inj.InstanceAbandoned(id, 4) {
		t.Fatal("overwritten abandon still visible")
	}
	if !inj.InstanceAbandoned(id, 9) {
		t.Fatal("newer abandon not visible")
	}
}

func TestRandomEventsValid(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		evs := RandomEvents(seed, 8, 8, 16)
		if len(evs) != 8 {
			t.Fatalf("seed %d: %d events, want 8", seed, len(evs))
		}
		fc := config.FaultConfig{Events: evs}
		if err := fc.Validate(8, 16); err != nil {
			t.Errorf("seed %d: invalid random schedule: %v", seed, err)
		}
	}
}

func TestEmptyScheduleRoundTrip(t *testing.T) {
	// An empty schedule — however it is spelled — must round-trip to a
	// disabled FaultConfig: the zero-cost contract hinges on Enabled()
	// being false so no Injector is ever constructed.
	for _, spec := range []string{"", " ", ";", " ; ; ", ";;;"} {
		fc, err := Parse(spec, 8, 16)
		if err != nil {
			t.Errorf("Parse(%q) rejected an empty schedule: %v", spec, err)
			continue
		}
		if len(fc.Events) != 0 {
			t.Errorf("Parse(%q) produced %d events, want 0", spec, len(fc.Events))
		}
		if fc.Enabled() {
			t.Errorf("Parse(%q): empty schedule reports Enabled", spec)
		}
		if err := fc.Validate(8, 16); err != nil {
			t.Errorf("Parse(%q): empty schedule fails Validate: %v", spec, err)
		}
		// Even if a caller violates the nil-pointer contract and builds an
		// injector anyway, it must be inert: no edges, no fault at any time.
		inj := New(fc, 8, 16, 3, false)
		if at := inj.NextNSUEdge(0, 0); at != timing.Never {
			t.Errorf("Parse(%q): empty injector has an NSU edge at %d", spec, at)
		}
		if inj.NSUFailed(math.MaxInt64, 0) || inj.TopoVersion(math.MaxInt64) != 0 {
			t.Errorf("Parse(%q): empty injector reports a fault", spec)
		}
		if d, c := inj.DrawDrop(); d || c {
			t.Errorf("Parse(%q): empty injector dropped a packet", spec)
		}
	}
}

func TestOverlappingWindowsOneLink(t *testing.T) {
	// Two overlapping down-windows on the same link. An edge is a boolean
	// write, not a counter: the first window's end edge revives the link at
	// t=2000 even though the second window [1500,2500) is still open, and
	// the second end edge at t=2500 is then a no-op. This is the documented
	// semantics — schedules wanting a continuous outage should use one
	// window — and this test pins it so a change is deliberate.
	inj := mkInjector(t,
		"linkdown:t=1000:hmc=0:dim=0:dur=1000;"+
			"linkdown:t=1500:hmc=0:dim=0:dur=1000")
	v0 := inj.TopoVersion(0)
	steps := []struct {
		now  timing.PS
		dead bool
	}{
		{999, false},  // before either window
		{1000, true},  // first start edge
		{1499, true},  // still inside window one
		{1500, true},  // second start edge (already-down link stays down)
		{1999, true},  // both windows open
		{2000, false}, // first END edge wins: boolean semantics revive the link
		{2499, false}, // stays up despite window two nominally covering this
		{2500, false}, // second end edge is a no-op
		{9999, false}, // long after
	}
	for _, s := range steps {
		if got := inj.LinkDead(s.now, 0, 0); got != s.dead {
			t.Errorf("LinkDead at %d = %v, want %v", s.now, got, s.dead)
		}
	}
	// The topology version counts every link edge — including the no-op
	// second end edge, which writes the value already present but still
	// invalidates routes.
	if v1 := inj.TopoVersion(9999); v1-v0 != 4 {
		t.Errorf("topology version advanced by %d across 4 link edges, want 4", v1-v0)
	}
}

func TestZeroDurationEvents(t *testing.T) {
	// dur=0 means "permanent" for the kinds where that is physical
	// (linkdown, nsufail) and is rejected by validation for the kinds that
	// are windows by definition (nsustall, vaultfreeze).
	inj := mkInjector(t, "linkdown:t=500:hmc=0:dim=0")
	if inj.LinkDead(499, 0, 0) {
		t.Error("permanent linkdown active before its start edge")
	}
	for _, now := range []timing.PS{500, 1 << 20, 1 << 40, math.MaxInt64} {
		if !inj.LinkDead(now, 0, 0) {
			t.Errorf("zero-duration linkdown not permanent at %d", now)
		}
	}

	rejected := []struct {
		spec string
		why  string
	}{
		{"nsustall:t=1:hmc=0:dur=0", "a stall with no window is meaningless"},
		{"vaultfreeze:t=1:hmc=0:vault=0:dur=0", "a freeze with no window is meaningless"},
		{"nsustall:t=1:hmc=0", "omitted dur defaults to 0 and is equally invalid"},
	}
	for _, c := range rejected {
		if _, err := Parse(c.spec, 8, 16); err == nil {
			t.Errorf("Parse(%q) accepted a zero-duration window (%s)", c.spec, c.why)
		}
	}
}

func TestMaxBounds(t *testing.T) {
	// Saturation at the int64 ceiling: timestamps, backoff shifts, and
	// window sums must clamp to MaxInt64 ("never"), not wrap negative —
	// a negative deadline would fire instantly and poison retry logic.
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"Backoff saturates", Backoff(math.MaxInt64/2, 2), math.MaxInt64},
		{"Backoff at exact ceiling", Backoff(math.MaxInt64, 0), math.MaxInt64},
		{"Backoff clamp then saturate", Backoff(1<<50, 1000), math.MaxInt64},
		{"Backoff below ceiling unchanged", Backoff(1<<20, 3), 1 << 23},
		{"TotalWindow saturates", TotalWindow(math.MaxInt64/2, 3), math.MaxInt64},
		{"TotalWindow sum overflow", TotalWindow(math.MaxInt64/4+1, 2), math.MaxInt64},
		{"TotalWindow below ceiling unchanged", TotalWindow(100, 3), 1500},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, c.got, c.want)
		}
		if c.got < 0 {
			t.Errorf("%s: wrapped negative (%d)", c.name, c.got)
		}
	}

	// A timestamp at the int64 ceiling parses and schedules.
	fc, err := Parse("nsufail:t=9223372036854775807:hmc=0", 8, 16)
	if err != nil {
		t.Fatalf("MaxInt64 timestamp rejected: %v", err)
	}
	inj := New(fc, 8, 16, 3, false)
	if at := inj.NextNSUEdge(0, 0); at != math.MaxInt64 {
		t.Errorf("ceiling event scheduled at %d", at)
	}
	if inj.NSUFailed(math.MaxInt64-1, 0) {
		t.Error("ceiling event fired early")
	}
	if !inj.NSUFailed(math.MaxInt64, 0) {
		t.Error("ceiling event never fired")
	}

	// A window whose end would overflow AtPS+DurPS emits only its start
	// edge: the fault becomes permanent instead of ending at a negative
	// (i.e. instantly-past) timestamp.
	fc2, err := Parse("linkdown:t=9223372036854775000:hmc=0:dim=0:dur=9000000", 8, 16)
	if err != nil {
		t.Fatalf("overflowing window rejected at parse: %v", err)
	}
	inj2 := New(fc2, 8, 16, 3, false)
	if n := inj2.TopoVersion(math.MaxInt64); n != 1 {
		t.Fatalf("overflowing window expanded to %d edges, want 1 (start only)", n)
	}
	if !inj2.LinkDead(math.MaxInt64, 0, 0) {
		t.Error("overflow-window linkdown not permanent")
	}
}
