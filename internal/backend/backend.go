// Package backend places pages for the NDP architecture a configuration
// names (config.ArchBackends). The source paper's partitioned execution —
// random 4 KB page interleave with GPU-owned address translation — is one
// design point among several, drawn from the literature the paper argues
// against:
//
//   - paper:   the default. Unrestricted random placement, SM-TLB
//     translation, compute-follows-data offload targeting. A strict no-op on
//     the memory image, so the default machine is bit-identical to the
//     pre-backend simulator.
//   - coda:    CODA-style locality-aware placement (Kim et al.): before the
//     timing run, a traced functional pre-pass profiles which CTA touches
//     which page, and each page is steered to the stack its dominant
//     accessor computes on — co-locating computation and data, the opposite
//     bet from the paper's.
//   - coda-ft: the first-touch variant — a page lands on the stack of the
//     CTA that touches it first, the classic NUMA policy.
//   - ndpage:  NDPage-style translation (Jiang et al.): placement stays
//     random, but address translation for offloaded accesses moves from the
//     GPU's SM TLBs to a tailored per-stack TLB + page walk charged at each
//     stack's logic layer. The GPU and the stacks read that from
//     config.ArchConfig.StackTranslation when they are built; nothing here
//     acts on it.
//
// Place runs once, after workload initialization and before the machine is
// assembled, and rewrites only the memory image's page->stack map. Placement
// is timing-only metadata over a flat functional store, so every backend is
// invisible to the internal/interp oracle: final memory must be bit-identical
// across backends, which the differential suites enforce.
package backend

import (
	"fmt"
	"strings"

	"ndpgpu/internal/config"
	"ndpgpu/internal/interp"
	"ndpgpu/internal/kernel"
	"ndpgpu/internal/vm"
)

// Place rewrites mem's page->stack placement for the kernel about to run,
// as cfg.Arch.Backend prescribes. It never changes memory contents, and it
// errors on a name not in config.ArchBackends.
func Place(cfg config.Config, k *kernel.Kernel, mem *vm.System) error {
	switch cfg.Arch.Backend {
	case "", "paper", "ndpage":
		return nil
	case "coda", "coda-ft":
	default:
		return fmt.Errorf("unknown architecture backend %q (valid: %s)",
			cfg.Arch.Backend, strings.Join(config.ArchBackends, "|"))
	}
	plan, err := CodaPlan(cfg, k, mem, cfg.Arch.Backend == "coda-ft")
	if err != nil {
		return err
	}
	pageBytes := uint64(cfg.Mem.PageBytes)
	for page, hmc := range plan {
		if hmc >= 0 {
			mem.PlacePage(uint64(page)*pageBytes, hmc)
		}
	}
	return nil
}

// CodaPlan computes the CODA placement for a kernel over a memory image
// without applying it: one entry per mapped page, holding the target stack
// or -1 for pages the kernel never touches (those keep their existing
// placement). Exported so the policy is unit-testable against hand-built
// kernels, independent of machine assembly.
//
// The simulator's offload targeting is compute-follows-data (majority home),
// so co-location is achieved from the placement side: CTA c is homed on
// stack c mod NumHMCs (the same round-robin the paper's Figure 2 CODA
// discussion assumes), a traced oracle run on a cloned memory image profiles
// the kernel's page accesses, and every touched page goes to its dominant
// (or first-touching) CTA's stack. The pre-pass is functional and
// deterministic, so placement is a pure function of (config, kernel, initial
// memory).
func CodaPlan(cfg config.Config, k *kernel.Kernel, mem *vm.System, firstTouch bool) ([]int, error) {
	numHMCs := cfg.NumHMCs
	pageShift := uint(0)
	for 1<<pageShift < cfg.Mem.PageBytes {
		pageShift++
	}
	pages := mem.NumPages()
	// counts[page*numHMCs+stack] = accesses to page by CTAs homed on stack.
	counts := make([]int64, pages*numHMCs)
	first := make([]int, pages)
	for i := range first {
		first[i] = -1
	}
	tr := func(cta int, addr uint64, store bool) {
		page := int(addr >> pageShift)
		if page >= pages {
			return // page allocated mid-run by the clone; not steerable
		}
		home := cta % numHMCs
		counts[page*numHMCs+home]++
		if first[page] < 0 {
			first[page] = home
		}
	}
	// The traced run executes on a clone: the profile must not consume the
	// functional state the timing run starts from.
	if err := interp.RunTraced(k, mem.Clone(), tr); err != nil {
		return nil, fmt.Errorf("coda placement pre-pass: %w", err)
	}
	plan := make([]int, pages)
	for p := 0; p < pages; p++ {
		if firstTouch {
			plan[p] = first[p]
			continue
		}
		best, bestN := -1, int64(0)
		for h := 0; h < numHMCs; h++ {
			// Strict > keeps the lowest stack index on ties, so the plan is
			// deterministic.
			if n := counts[p*numHMCs+h]; n > bestN {
				best, bestN = h, n
			}
		}
		plan[p] = best
	}
	return plan, nil
}
