package backend

import (
	"bytes"
	"strings"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/isa"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/vm"
)

// TestRegistry: Place accepts every valid backend name and "", and
// rejects any other name with an error listing the valid ones.
func TestRegistry(t *testing.T) {
	cfg := config.Default()
	mem := vm.New(cfg)
	k := steerKernel(mem.Alloc(4*cfg.Mem.PageBytes), 4)
	for _, name := range append([]string{""}, config.ArchBackends...) {
		cfg.Arch.Backend = name
		if err := Place(cfg, k, mem); err != nil {
			t.Errorf("Place(%q): %v", name, err)
		}
	}
	cfg.Arch.Backend = "no-such-arch"
	if err := Place(cfg, k, mem); err == nil {
		t.Error("Place accepted an unknown backend name")
	} else if !strings.Contains(err.Error(), strings.Join(config.ArchBackends, "|")) {
		t.Errorf("unknown-backend error %q does not list the valid names", err)
	}
}

// layout captures the page->stack map of a memory image.
func layout(mem *vm.System, cfg config.Config) []int {
	out := make([]int, mem.NumPages())
	for p := range out {
		out[p] = mem.HMCOf(uint64(p) * uint64(cfg.Mem.PageBytes))
	}
	return out
}

// steerKernel builds a kernel where every thread of CTA c loads and stores
// one word of page c (relative to the allocated base): the unambiguous
// steering case — each page has exactly one accessing CTA.
func steerKernel(base uint64, grid int) *kernel.Kernel {
	kb := kernel.NewBuilder()
	kb.OpImm(isa.MULI, 16, kernel.RegCTAID, 4096) // page offset of this CTA
	kb.OpImm(isa.ADDI, 16, 16, int64(base))
	kb.OpImm(isa.SHLI, 17, kernel.RegTID, 2)
	kb.Op3(isa.ADD, 16, 16, 17) // &page[tid]
	kb.Ld(18, 16, 0)
	kb.St(16, 0, 18)
	kb.Exit()
	return kb.MustBuild("steer", grid, 32)
}

// TestCodaSteering: with one accessing CTA per page, CODA must place page p
// on stack p mod numHMCs (the accessor's home), leave untouched pages on
// their random-interleave homes, and leave memory contents untouched.
func TestCodaSteering(t *testing.T) {
	cfg := config.Default()
	mem := vm.New(cfg)
	const grid = 16
	base := mem.Alloc(grid * cfg.Mem.PageBytes)
	spare := mem.Alloc(cfg.Mem.PageBytes) // never touched by the kernel
	k := steerKernel(base, grid)

	before := layout(mem, cfg)
	snap := mem.Snapshot()
	cfg.Arch.Backend = "coda"
	if err := Place(cfg, k, mem); err != nil {
		t.Fatal(err)
	}
	after := layout(mem, cfg)

	pageBytes := uint64(cfg.Mem.PageBytes)
	for c := 0; c < grid; c++ {
		p := int((base + uint64(c)*pageBytes) / pageBytes)
		if want := c % cfg.NumHMCs; after[p] != want {
			t.Errorf("page %d (CTA %d): placed on stack %d, want %d", p, c, after[p], want)
		}
	}
	sparePage := int(spare / pageBytes)
	if after[sparePage] != before[sparePage] {
		t.Errorf("untouched page %d moved: %d -> %d", sparePage, before[sparePage], after[sparePage])
	}
	if !bytes.Equal(snap, mem.Snapshot()) {
		t.Error("Place changed memory contents")
	}
}

// contestedKernel builds the dominant-vs-first-touch splitter over two pages:
// every thread of CTA c reads its own page (base + c*4096) once and the other
// CTA's page twice. With grid=2, page 0 is touched first by CTA 0 (home 0)
// but most by CTA 1 (home 1), so the two CODA variants must disagree on it.
func contestedKernel(base uint64) *kernel.Kernel {
	kb := kernel.NewBuilder()
	kb.OpImm(isa.MULI, 16, kernel.RegCTAID, 4096)
	kb.OpImm(isa.ADDI, 16, 16, int64(base)) // own page
	kb.OpImm(isa.MULI, 17, kernel.RegCTAID, -4096)
	kb.OpImm(isa.ADDI, 17, 17, 4096)
	kb.OpImm(isa.ADDI, 17, 17, int64(base)) // other page
	kb.Ld(18, 16, 0)
	kb.Ld(19, 17, 0)
	kb.Ld(20, 17, 0)
	kb.Exit()
	return kb.MustBuild("contested", 2, 32)
}

// TestCodaPlan is the table-driven policy check, on CodaPlan directly (no
// memory mutation): dominant-accessor vs first-touch placement for a page two
// CTAs contend on.
func TestCodaPlan(t *testing.T) {
	cfg := config.Default()
	mem := vm.New(cfg)
	base := mem.Alloc(2 * cfg.Mem.PageBytes)
	k := contestedKernel(base)
	p0 := int(base / uint64(cfg.Mem.PageBytes))

	cases := []struct {
		name       string
		firstTouch bool
		wantP0     int // contested: CTA0 touches first, CTA1 touches most
		wantP1     int // CTA0 dominates and touches first
	}{
		{"dominant", false, 1, 0},
		{"first-touch", true, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := CodaPlan(cfg, k, mem, tc.firstTouch)
			if err != nil {
				t.Fatal(err)
			}
			if plan[p0] != tc.wantP0 {
				t.Errorf("page %d -> stack %d, want %d", p0, plan[p0], tc.wantP0)
			}
			if plan[p0+1] != tc.wantP1 {
				t.Errorf("page %d -> stack %d, want %d", p0+1, plan[p0+1], tc.wantP1)
			}
			for p, h := range plan {
				if p != p0 && p != p0+1 && h != -1 {
					t.Errorf("untouched page %d planned to stack %d, want -1", p, h)
				}
			}
		})
	}
}

// assertPlacementUnchanged fails t if Place under the named backend moves
// any page of a steering kernel's allocation.
func assertPlacementUnchanged(t *testing.T, name string) {
	t.Helper()
	cfg := config.Default()
	cfg.Arch.Backend = name
	mem := vm.New(cfg)
	base := mem.Alloc(16 * cfg.Mem.PageBytes)
	before := layout(mem, cfg)
	if err := Place(cfg, steerKernel(base, 16), mem); err != nil {
		t.Fatal(err)
	}
	after := layout(mem, cfg)
	for p := range before {
		if before[p] != after[p] {
			t.Fatalf("backend %q moved page %d: %d -> %d", name, p, before[p], after[p])
		}
	}
}

// TestPaperNoOp: the default backend, spelled "" or "paper", must leave the
// placement alone — the structural guarantee behind golden-digest identity.
func TestPaperNoOp(t *testing.T) {
	for _, name := range []string{"", "paper"} {
		assertPlacementUnchanged(t, name)
	}
}

// TestNDPageApply: the ndpage architecture changes translation only. Naming
// it turns on stack-side translation, which no other name does, and Place
// leaves its placement alone.
func TestNDPageApply(t *testing.T) {
	for _, name := range append([]string{""}, config.ArchBackends...) {
		arch := config.Default().Arch
		arch.Backend = name
		if got, want := arch.StackTranslation(), name == "ndpage"; got != want {
			t.Errorf("backend %q: StackTranslation() = %v, want %v", name, got, want)
		}
	}
	assertPlacementUnchanged(t, "ndpage")
}

// TestInterleaveSeedPinned: the paper's random interleave is a pure function
// of the placement seed — same seed, same layout; a different seed produces a
// different one. This pins the layout CODA perturbs and the ndpage backend
// inherits.
func TestInterleaveSeedPinned(t *testing.T) {
	cfg := config.Default()
	alloc := func(c config.Config) *vm.System {
		m := vm.New(c)
		m.Alloc(64 * c.Mem.PageBytes)
		return m
	}
	a, b := layout(alloc(cfg), cfg), layout(alloc(cfg), cfg)
	for p := range a {
		if a[p] != b[p] {
			t.Fatalf("same seed, different layout at page %d: %d vs %d", p, a[p], b[p])
		}
	}
	cfg2 := cfg
	cfg2.Mem.PlacementSeed = cfg.Mem.PlacementSeed + 1
	c := layout(alloc(cfg2), cfg2)
	same := 0
	for p := range a {
		if a[p] == c[p] {
			same++
		}
	}
	if same == len(a) {
		t.Error("changing the placement seed did not change the layout")
	}
}

// TestCloneIsolated: Clone must copy placement and contents; mutating the
// clone (as the CODA pre-pass does) must not leak into the original.
func TestCloneIsolated(t *testing.T) {
	cfg := config.Default()
	mem := vm.New(cfg)
	base := mem.Alloc(4 * cfg.Mem.PageBytes)
	mem.Write32(base, 0xdeadbeef)
	cl := mem.Clone()
	if cl.Read32(base) != 0xdeadbeef {
		t.Fatal("clone lost memory contents")
	}
	cl.Write32(base, 7)
	cl.PlacePage(base, (mem.HMCOf(base)+1)%cfg.NumHMCs)
	if mem.Read32(base) != 0xdeadbeef {
		t.Error("writing the clone changed the original's contents")
	}
	if mem.HMCOf(base) == cl.HMCOf(base) {
		t.Error("re-placing a clone page moved the original's page")
	}
}
