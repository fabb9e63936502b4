// Package config defines the simulated system configuration.
//
// The default values reproduce Table 2 of Kim et al., "Toward Standardized
// Near-Data Processing with Unrestricted Data Placement for GPUs" (SC '17):
// a 64-SM GPU attached to 8 HMC-like memory stacks through 8 bidirectional
// 20 GB/s links, with an NSU (Near-data processing SIMD Unit) on the logic
// layer of each stack and a 3D-hypercube memory network between stacks.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// WarpWidth is the number of threads per warp, on the GPU and on the NSUs
// (Table 2: 32). It is fixed, not configurable: lane masks are uint32 and
// per-lane register values are [WarpWidth] arrays throughout the model.
const WarpWidth = 32

// GPUConfig describes the host GPU (Table 2, "GPU" section).
type GPUConfig struct {
	NumSMs int // number of streaming multiprocessors

	// Per-SM limits.
	MaxThreadsPerSM int // hardware thread contexts per SM
	MaxCTAsPerSM    int // concurrent thread blocks per SM
	MaxRegsPerSM    int // register file capacity (32-bit regs)
	ScratchpadBytes int // shared-memory capacity per SM

	// Execution resources per SM.
	NumALUs      int // SIMD ALU pipelines (each executes one warp instr/cycle)
	NumLSUs      int // load/store units
	ALULatency   int // cycles from issue to writeback for ALU ops
	MaxIssue     int // instructions issued per cycle per SM
	L1HitLatency int // L1 data cache hit latency (SM cycles)
	L2Latency    int // L2 access latency (L2-clock cycles, excluding queuing)
	// Address translation lives on the GPU (the paper's core premise): a
	// per-SM TLB over 4 KB pages with a fixed page-walk penalty on miss.
	TLBEntries     int
	TLBWays        int
	TLBMissLatency int // SM cycles

	// Clocks in MHz (Table 2: SM 700, Xbar 1250 MHz). Table 2 also lists a
	// 700 MHz L2 clock; the model's L2 slices tick on the crossbar clock.
	SMClockMHz   int
	XbarClockMHz int

	// Caches.
	L1I CacheGeom
	L1D CacheGeom
	L2  CacheGeom // total across all slices; one slice per HMC link

	// Off-chip connectivity: one bidirectional link per HMC.
	LinkGBps float64 // per direction, per link (Table 2: 20 GB/s)
}

// CacheGeom is the geometry of a set-associative cache.
type CacheGeom struct {
	SizeBytes int
	Ways      int
	LineBytes int
	MSHRs     int
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int {
	if g.Ways == 0 || g.LineBytes == 0 {
		return 0
	}
	return g.SizeBytes / (g.Ways * g.LineBytes)
}

// Validate reports whether the geometry is internally consistent.
func (g CacheGeom) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.LineBytes <= 0 {
		return fmt.Errorf("cache geometry fields must be positive: %+v", g)
	}
	if g.SizeBytes%(g.Ways*g.LineBytes) != 0 {
		return fmt.Errorf("cache size %d not divisible by ways*line %d", g.SizeBytes, g.Ways*g.LineBytes)
	}
	s := g.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache sets %d not a power of two", s)
	}
	return nil
}

// HMCConfig describes one memory stack (Table 2, "HMC" section).
type HMCConfig struct {
	NumVaults     int
	BanksPerVault int
	VaultQueue    int // vault request queue size (FR-FCFS window)

	// DRAM timing in units of tCK.
	TCKps int // tCK in picoseconds (Table 2: 1.50 ns)
	TRP   int
	TCCD  int
	TRCD  int
	TCL   int
	TWR   int
	TRAS  int

	// Refresh: every TREFIps the vault performs an all-bank refresh taking
	// TRFCps, during which no commands issue.
	TREFIps int
	TRFCps  int

	// Inter-stack memory network (3D hypercube over 8 stacks).
	NetLinkGBps    float64 // per direction per link
	NetLinksPerHMC int     // paper uses 3 of the 4 HMC links
	RouterLatPS    int     // per-hop router latency in picoseconds
	// NetTopology selects the inter-stack network: "hypercube" (the
	// paper's choice, 3 links/stack) or "ring" (2 links/stack) for the
	// design-choice ablation.
	NetTopology string
}

// NSUConfig describes the near-data SIMD unit on each stack's logic layer.
type NSUConfig struct {
	ClockMHz   int // Table 2: 350 MHz (half of SM clock)
	NumWarps   int // warp slots (Table 2: 48)
	IssueWidth int // instruction slots per NSU cycle (across warps)
	// PhysSIMDWidth is the physical SIMD datapath width (§4.5): logical
	// 32-lane warps execute over ceil(active/phys) slots via temporal SIMT.
	PhysSIMDWidth int
	ALULatency    int
	ICacheBytes   int // 4 KB
	// ReadOnlyCacheBytes enables the paper's §7.1 future-work extension: a
	// small read-only cache on each NSU for hot lines that RDF responses
	// keep re-shipping (the BPROP pathology). 0 disables it (the paper's
	// base design).
	ReadOnlyCacheBytes int
	ReadDataEntries    int // read data buffer: 128 B x 256 entries
	WriteAddrEntries   int // write address buffer: 128 B x 256 entries
	CmdEntries         int // offload command buffer: 10 entries
}

// NDPConfig carries protocol-level constants of the partitioned-execution
// mechanism: SM-side buffers and offload-decision knobs. Packet sizes are
// the core package's constants.
type NDPConfig struct {
	// SM-side packet buffers (Table 2): 8 B x 300 pending, 8 B x 64 ready.
	PendingEntries int
	ReadyEntries   int

	// Dynamic offload ratio controller (Algorithm 1 constants, §7.2).
	EpochCycles  int64   // 30,000 SM cycles
	InitRatio    float64 // 0.1
	StepUnit     float64 // 0.05
	MinStep      float64 // 0.05
	MaxStep      float64 // 0.15
	WindowSize   int     // 4
	DecisionSeed int64   // RNG seed for ratio-based offload sampling
}

// MemConfig describes the virtual memory system.
type MemConfig struct {
	PageBytes     int   // 4 KB pages
	PlacementSeed int64 // seed for random page->HMC placement
}

// ArchBackends lists the valid Arch.Backend names, the default first. ""
// also means "paper".
var ArchBackends = []string{"paper", "coda", "coda-ft", "ndpage"}

// ArchConfig selects the NDP architecture backend: the design point the
// machine is assembled for. The zero value is the paper's partitioned
// execution (random 4 KB page interleave, GPU-owned translation) — every
// field below only takes effect when a non-default backend turns it on.
type ArchConfig struct {
	// Backend names the architecture (ArchBackends): "" or "paper" (the
	// default, partitioned execution per the source paper), "coda"
	// (CODA-style locality-aware placement: pages steered to the stack that
	// computes on them), "coda-ft" (its first-touch variant), or "ndpage"
	// (NDPage-style stack-side translation for offloaded accesses).
	// internal/backend places pages for the coda backends.
	Backend string

	// Per-stack TLB geometry over 4 KB pages (0 = defaults via the Eff
	// helpers), used only while StackTranslation holds. The stack walk is
	// cheaper than the GPU's 80-SM-cycle walk because the page table is
	// resident in the stack's own DRAM.
	StackTLBEntries int
	StackTLBWays    int
	StackWalkCycles int // DRAM tCK cycles charged per stack-TLB miss
}

// StackTranslation reports whether the stacks own translation for offloaded
// accesses (the NDPage model): offloaded requests skip the SM TLB, and each
// stack charges its own tailored page-table walk at the logic layer. The
// baseline request path is unaffected.
func (a ArchConfig) StackTranslation() bool { return a.Backend == "ndpage" }

// EffStackTLBEntries returns StackTLBEntries with the default applied.
func (a ArchConfig) EffStackTLBEntries() int {
	if a.StackTLBEntries > 0 {
		return a.StackTLBEntries
	}
	return 32
}

// EffStackTLBWays returns StackTLBWays with the default applied.
func (a ArchConfig) EffStackTLBWays() int {
	if a.StackTLBWays > 0 {
		return a.StackTLBWays
	}
	return 4
}

// EffStackWalkCycles returns StackWalkCycles with the default applied: 30
// DRAM cycles (45 ns at the Table 2 tCK), well under the GPU's 80-SM-cycle
// (~114 ns) host-side walk — the stack walks a page table held in its own
// vaults.
func (a ArchConfig) EffStackWalkCycles() int {
	if a.StackWalkCycles > 0 {
		return a.StackWalkCycles
	}
	return 30
}

// Validate checks the backend name and the architecture knobs.
func (a ArchConfig) Validate() error {
	if a.Backend != "" && !slices.Contains(ArchBackends, a.Backend) {
		return fmt.Errorf("Arch.Backend: unknown architecture backend %q (valid: %s)",
			a.Backend, strings.Join(ArchBackends, "|"))
	}
	if a.StackTLBEntries < 0 || a.StackTLBWays < 0 || a.StackWalkCycles < 0 {
		return errors.New("stack-TLB knobs must be non-negative")
	}
	if a.StackTranslation() {
		entries, ways := a.EffStackTLBEntries(), a.EffStackTLBWays()
		if entries%ways != 0 {
			return fmt.Errorf("stack-TLB entries %d not divisible by ways %d", entries, ways)
		}
		if sets := entries / ways; sets&(sets-1) != 0 {
			return fmt.Errorf("stack-TLB sets %d not a power of two", sets)
		}
	}
	return nil
}

// FaultEvent is one scheduled fault. Times are absolute simulated
// picoseconds; DurPS==0 makes the fault permanent (legal for linkdown,
// required for nsufail; vaultfreeze and nsustall must be windowed so the run
// can drain).
type FaultEvent struct {
	Kind  string // "linkdown", "nsustall", "nsufail", "vaultfreeze"
	AtPS  int64  // activation time
	DurPS int64  // window length; 0 = permanent
	HMC   int    // stack the fault hits
	Dim   int    // linkdown: hypercube dimension (or ring direction 0/1)
	Vault int    // vaultfreeze: vault index within the stack
}

// FaultConfig is the deterministic fault schedule plus the resilience
// protocol knobs. The zero value means "no faults": every injection and
// recovery path in the simulator is compiled out behind a nil injector, so
// an empty schedule is a strict no-op.
type FaultConfig struct {
	Events []FaultEvent

	// Probabilistic per-packet faults on inter-HMC mesh links only (the
	// GPU<->HMC host links are modeled reliable, as their flow control is
	// not part of the paper's memory network). Draws come from a dedicated
	// PRNG seeded with Seed, so schedules are reproducible.
	Seed        int64
	DropProb    float64 // probability a mesh packet is silently lost
	CorruptProb float64 // probability a mesh packet is discarded at CRC check

	// Offload-protocol resilience knobs (0 = default).
	TimeoutCycles int64 // SM cycles before the first per-block retry fires
	MaxRetries    int   // retries before host-side fallback + quarantine
}

// Enabled reports whether any fault can ever fire. When false the simulator
// builds no injector and all fault paths stay on their zero-cost branches.
func (f FaultConfig) Enabled() bool {
	return len(f.Events) > 0 || f.DropProb > 0 || f.CorruptProb > 0
}

// EffTimeoutCycles returns TimeoutCycles with the default applied.
func (f FaultConfig) EffTimeoutCycles() int64 {
	if f.TimeoutCycles > 0 {
		return f.TimeoutCycles
	}
	return 30000
}

// EffMaxRetries returns MaxRetries with the default applied.
func (f FaultConfig) EffMaxRetries() int {
	if f.MaxRetries > 0 {
		return f.MaxRetries
	}
	return 3
}

// LinkDims returns the number of mesh link dimensions a linkdown event may
// name on numHMCs stacks: log2(numHMCs), and at least 1.
func LinkDims(numHMCs int) int {
	dims := 1
	for 1<<uint(dims+1) <= numHMCs {
		dims++
	}
	return dims
}

// Validate checks the fault schedule for internal consistency.
func (f FaultConfig) Validate(numHMCs, numVaults int) error {
	for _, e := range f.Events {
		if e.AtPS < 0 || e.DurPS < 0 {
			return fmt.Errorf("fault %s: negative time", e.Kind)
		}
		if e.HMC < 0 || e.HMC >= numHMCs {
			return fmt.Errorf("fault %s: hmc %d out of range [0,%d)", e.Kind, e.HMC, numHMCs)
		}
		switch e.Kind {
		case "linkdown":
			if dims := LinkDims(numHMCs); e.Dim < 0 || e.Dim >= dims {
				return fmt.Errorf("linkdown: dim %d out of range [0,%d)", e.Dim, dims)
			}
		case "nsufail":
			if e.DurPS != 0 {
				return errors.New("nsufail is permanent: dur must be 0 (a bounded outage is an nsustall)")
			}
		case "nsustall", "vaultfreeze":
			if e.DurPS == 0 {
				return fmt.Errorf("fault %s must be windowed (dur > 0), or the run cannot drain", e.Kind)
			}
			if e.Kind == "vaultfreeze" && (e.Vault < 0 || e.Vault >= numVaults) {
				return fmt.Errorf("vaultfreeze: vault %d out of range [0,%d)", e.Vault, numVaults)
			}
		default:
			return fmt.Errorf("unknown fault kind %q", e.Kind)
		}
	}
	if f.DropProb < 0 || f.DropProb > 1 || f.CorruptProb < 0 || f.CorruptProb > 1 {
		return errors.New("fault drop/corrupt probabilities must be in [0,1]")
	}
	return nil
}

// Config is the complete system configuration.
type Config struct {
	GPU     GPUConfig
	HMC     HMCConfig
	NumHMCs int
	NSU     NSUConfig
	NDP     NDPConfig
	Mem     MemConfig
	Arch    ArchConfig  // zero value = the paper's architecture (strict no-op)
	Fault   FaultConfig // zero value = fault-free (strict no-op)
}

// Default returns the Table 2 configuration.
func Default() Config {
	return Config{
		GPU: GPUConfig{
			NumSMs:          64,
			MaxThreadsPerSM: 1536,
			MaxCTAsPerSM:    8,
			MaxRegsPerSM:    32768,
			ScratchpadBytes: 48 << 10,
			NumALUs:         2,
			NumLSUs:         1,
			ALULatency:      8,
			MaxIssue:        1,
			L1HitLatency:    4,
			L2Latency:       30,
			TLBEntries:      64,
			TLBWays:         8,
			TLBMissLatency:  80,
			SMClockMHz:      700,
			XbarClockMHz:    1250,
			L1I:             CacheGeom{SizeBytes: 4 << 10, Ways: 4, LineBytes: 128, MSHRs: 2},
			L1D:             CacheGeom{SizeBytes: 32 << 10, Ways: 4, LineBytes: 128, MSHRs: 48},
			L2:              CacheGeom{SizeBytes: 2 << 20, Ways: 16, LineBytes: 128, MSHRs: 48},
			LinkGBps:        20,
		},
		HMC: HMCConfig{
			NumVaults:      16,
			BanksPerVault:  16,
			VaultQueue:     64,
			TCKps:          1500,
			TRP:            9,
			TCCD:           4,
			TRCD:           9,
			TCL:            9,
			TWR:            12,
			TRAS:           24,
			TREFIps:        7_800_000, // 7.8 us
			TRFCps:         160_000,   // 160 ns all-bank refresh
			NetLinkGBps:    20,
			NetTopology:    "hypercube",
			NetLinksPerHMC: 3,
			RouterLatPS:    4500, // 3 tCK of routing latency per hop
		},
		NumHMCs: 8,
		NSU: NSUConfig{
			ClockMHz:         350,
			NumWarps:         48,
			IssueWidth:       2,
			PhysSIMDWidth:    32,
			ALULatency:       8,
			ICacheBytes:      4 << 10,
			ReadDataEntries:  256,
			WriteAddrEntries: 256,
			CmdEntries:       10,
		},
		NDP: NDPConfig{
			PendingEntries: 300,
			ReadyEntries:   64,
			// The paper uses 30,000-cycle epochs on full-size workloads;
			// our problem sizes are scaled down ~30x, so the epoch scales
			// with them to give the controller a comparable number of
			// decisions per run.
			EpochCycles:  4000,
			InitRatio:    0.1,
			StepUnit:     0.05,
			MinStep:      0.05,
			MaxStep:      0.15,
			WindowSize:   4,
			DecisionSeed: 1,
		},
		Mem: MemConfig{
			PageBytes:     4 << 10,
			PlacementSeed: 42,
		},
	}
}

// MoreCore returns the Baseline_MoreCore configuration of §6 over base: the
// baseline GPU with one additional SM per memory stack, the iso-area
// comparison point for the NSUs.
func MoreCore(base Config) Config {
	base.GPU.NumSMs += base.NumHMCs
	return base
}

// DoubleCompute returns the §7.3 sensitivity configuration with twice the
// number of SMs (the L2 is also doubled to keep per-SM cache constant).
func DoubleCompute() Config {
	c := Default()
	c.GPU.NumSMs *= 2
	c.GPU.L2.SizeBytes *= 2
	return c
}

// WithNSUReadOnlyCache returns the configuration with the §7.1 future-work
// extension enabled: an 8 KB read-only cache per NSU.
func WithNSUReadOnlyCache() Config {
	c := Default()
	c.NSU.ReadOnlyCacheBytes = 8 << 10
	return c
}

// HalfNSUClock returns the §7.6 sensitivity configuration with the NSU
// running at 175 MHz instead of 350 MHz.
func HalfNSUClock() Config {
	c := Default()
	c.NSU.ClockMHz /= 2
	return c
}

// DerivedGeoms are the cache geometries the machine derives from other
// configuration fields instead of taking a CacheGeom verbatim.
type DerivedGeoms struct {
	TLB         CacheGeom // per SM, one line per page
	L2Slice     CacheGeom // one per stack: GPU.L2 split evenly
	NSUReadOnly CacheGeom // per NSU (§7.1); zero-sized when disabled
}

// Derived returns the derived cache geometries. Validate checks them and the
// GPU builds its caches from them, so an accepted configuration never builds
// an inconsistent cache.
func (c Config) Derived() DerivedGeoms {
	slice := c.GPU.L2
	slice.SizeBytes /= c.NumHMCs
	return DerivedGeoms{
		TLB: CacheGeom{
			SizeBytes: c.GPU.TLBEntries * c.Mem.PageBytes,
			Ways:      c.GPU.TLBWays,
			LineBytes: c.Mem.PageBytes,
			MSHRs:     1,
		},
		L2Slice: slice,
		NSUReadOnly: CacheGeom{
			SizeBytes: c.NSU.ReadOnlyCacheBytes,
			Ways:      8,
			LineBytes: c.LineBytes(),
			MSHRs:     1,
		},
	}
}

// sizeBound is how many times its default a count that sizes an allocation
// may be, and how many times slower than its default a link may be; the
// largest preset, DoubleCompute, is at 2x.
const sizeBound = 16

// Validate checks the configuration for internal consistency. Where a rule
// concerns one field it names it by its Config path, the path an ndpserve
// client names in its config patch, so the client can tell which field to
// fix.
func (c Config) Validate() error {
	if c.NumHMCs <= 0 || c.NumHMCs&(c.NumHMCs-1) != 0 {
		return fmt.Errorf("NumHMCs must be a positive power of two, got %d", c.NumHMCs)
	}
	if c.GPU.NumSMs <= 0 {
		return errors.New("NumSMs must be positive")
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"GPU.MaxCTAsPerSM", c.GPU.MaxCTAsPerSM},
		{"HMC.VaultQueue", c.HMC.VaultQueue},
		{"NSU.NumWarps", c.NSU.NumWarps},
		{"NDP.PendingEntries", c.NDP.PendingEntries},
	} {
		if f.v <= 0 {
			return fmt.Errorf("%s must be positive, got %d", f.name, f.v)
		}
	}
	// A constructor allocates per entry of each count below, so one request
	// naming a huge count would ask the host for memory in proportion.
	// Bound each at sizeBound times its default: the Table 2 value, or for
	// the NSU read-only cache and the stack TLB, which Table 2 does not
	// size, the preset and backend defaults.
	def := Default()
	for _, f := range []struct {
		name   string
		v, ref int
	}{
		{"NumHMCs", c.NumHMCs, def.NumHMCs},
		{"GPU.NumSMs", c.GPU.NumSMs, def.GPU.NumSMs},
		{"GPU.MaxThreadsPerSM", c.GPU.MaxThreadsPerSM, def.GPU.MaxThreadsPerSM},
		{"GPU.TLBEntries", c.GPU.TLBEntries, def.GPU.TLBEntries},
		{"GPU.L1I.SizeBytes", c.GPU.L1I.SizeBytes, def.GPU.L1I.SizeBytes},
		{"GPU.L1D.SizeBytes", c.GPU.L1D.SizeBytes, def.GPU.L1D.SizeBytes},
		{"GPU.L2.SizeBytes", c.GPU.L2.SizeBytes, def.GPU.L2.SizeBytes},
		{"HMC.NumVaults", c.HMC.NumVaults, def.HMC.NumVaults},
		{"HMC.BanksPerVault", c.HMC.BanksPerVault, def.HMC.BanksPerVault},
		{"NSU.NumWarps", c.NSU.NumWarps, def.NSU.NumWarps},
		{"NSU.ReadOnlyCacheBytes", c.NSU.ReadOnlyCacheBytes, WithNSUReadOnlyCache().NSU.ReadOnlyCacheBytes},
		{"Arch.StackTLBEntries", c.Arch.StackTLBEntries, ArchConfig{}.EffStackTLBEntries()},
	} {
		if limit := sizeBound * f.ref; f.v > limit {
			return fmt.Errorf("%s must be at most %d (%dx its default), got %d", f.name, limit, sizeBound, f.v)
		}
	}
	// A link's time per byte is 1000/GBps picoseconds, so a slow link runs
	// for days of host time before the simulated limit stops it, and a tiny
	// one overflows the int64 send time. Bound each from below at 1/sizeBound
	// of its default; negated so that NaN fails too.
	for _, f := range []struct {
		name   string
		v, ref float64
	}{
		{"GPU.LinkGBps", c.GPU.LinkGBps, def.GPU.LinkGBps},
		{"HMC.NetLinkGBps", c.HMC.NetLinkGBps, def.HMC.NetLinkGBps},
	} {
		if limit := f.ref / sizeBound; !(f.v >= limit) {
			return fmt.Errorf("%s must be at least %g (1/%d of its default), got %g", f.name, limit, sizeBound, f.v)
		}
	}
	if c.NSU.ReadOnlyCacheBytes < 0 {
		return fmt.Errorf("NSU.ReadOnlyCacheBytes must be non-negative (0 = off), got %d", c.NSU.ReadOnlyCacheBytes)
	}
	if c.GPU.MaxThreadsPerSM <= 0 || c.GPU.MaxThreadsPerSM%WarpWidth != 0 {
		return fmt.Errorf("GPU.MaxThreadsPerSM must be a positive multiple of the warp width %d, got %d",
			WarpWidth, c.GPU.MaxThreadsPerSM)
	}
	type namedGeom struct {
		name string
		g    CacheGeom
	}
	geoms := []namedGeom{{"GPU.L1I", c.GPU.L1I}, {"GPU.L1D", c.GPU.L1D}, {"GPU.L2", c.GPU.L2}}
	for _, g := range geoms {
		if err := g.g.Validate(); err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
	}
	if c.HMC.NumVaults <= 0 || c.HMC.NumVaults&(c.HMC.NumVaults-1) != 0 {
		return fmt.Errorf("NumVaults must be a power of two, got %d", c.HMC.NumVaults)
	}
	if c.HMC.BanksPerVault <= 0 || c.HMC.BanksPerVault&(c.HMC.BanksPerVault-1) != 0 {
		return fmt.Errorf("BanksPerVault must be a power of two, got %d", c.HMC.BanksPerVault)
	}
	if c.Mem.PageBytes <= 0 || c.Mem.PageBytes&(c.Mem.PageBytes-1) != 0 {
		return fmt.Errorf("PageBytes must be a power of two, got %d", c.Mem.PageBytes)
	}
	if c.Mem.PageBytes%c.GPU.L2.LineBytes != 0 {
		return errors.New("page size must be a multiple of the cache line size")
	}
	d := c.Derived()
	geoms = []namedGeom{
		{"per-SM TLB (GPU.TLBEntries, GPU.TLBWays)", d.TLB},
		{"L2 slice (GPU.L2.SizeBytes over NumHMCs)", d.L2Slice},
	}
	if c.NSU.ReadOnlyCacheBytes > 0 {
		geoms = append(geoms, namedGeom{"NSU read-only cache (NSU.ReadOnlyCacheBytes)", d.NSUReadOnly})
	}
	for _, g := range geoms {
		if err := g.g.Validate(); err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
	}
	if c.GPU.SMClockMHz <= 0 || c.GPU.XbarClockMHz <= 0 || c.NSU.ClockMHz <= 0 {
		return errors.New("all clocks must be positive")
	}
	if c.HMC.TCKps <= 0 {
		return errors.New("tCK must be positive")
	}
	if c.NSU.PhysSIMDWidth <= 0 || WarpWidth%c.NSU.PhysSIMDWidth != 0 {
		return fmt.Errorf("NSU.PhysSIMDWidth must divide the warp width %d, got %d",
			WarpWidth, c.NSU.PhysSIMDWidth)
	}
	switch c.HMC.NetTopology {
	case "hypercube", "":
		if dims := LinkDims(c.NumHMCs); dims > c.HMC.NetLinksPerHMC {
			return fmt.Errorf("a hypercube over %d stacks needs %d links per stack: HMC.NetLinksPerHMC is %d (or lower NumHMCs)",
				c.NumHMCs, dims, c.HMC.NetLinksPerHMC)
		}
	case "ring":
	default:
		return fmt.Errorf("unknown memory-network topology %q", c.HMC.NetTopology)
	}
	if c.NDP.WindowSize <= 0 {
		return errors.New("dynamic-ratio window size must be positive")
	}
	if c.NDP.EpochCycles <= 0 {
		return errors.New("epoch length must be positive")
	}
	if err := c.Arch.Validate(); err != nil {
		return err
	}
	return c.Fault.Validate(c.NumHMCs, c.HMC.NumVaults)
}

// LineBytes returns the system-wide cache line / memory access granularity.
func (c Config) LineBytes() int { return c.GPU.L2.LineBytes }

// WarpsPerSM returns the number of hardware warp contexts per SM.
func (c Config) WarpsPerSM() int { return c.GPU.MaxThreadsPerSM / WarpWidth }

// PacketBufferBytesPerSM returns the per-SM storage for the NDP pending and
// ready packet buffers (§7.5 reports 2.84 KB with the Table 2 sizes).
func (c Config) PacketBufferBytesPerSM() int {
	return 8 * (c.NDP.PendingEntries + c.NDP.ReadyEntries)
}

// OnChipStorageBytesPerSM returns the per-SM on-chip storage used to compute
// the §7.5 overhead figure: L1I + L1D + scratchpad + a proportional share of
// the L2.
func (c Config) OnChipStorageBytesPerSM() int {
	return c.GPU.L1I.SizeBytes + c.GPU.L1D.SizeBytes + c.GPU.ScratchpadBytes +
		c.GPU.L2.SizeBytes/c.GPU.NumSMs
}

// Canonical serializes the configuration deterministically for digesting:
// Config is a tree of plain structs and slices (no maps), so encoding/json's
// fixed field order makes the bytes a pure function of the values. Two
// requests that resolve to the same Config — however they spelled it —
// serialize identically.
func Canonical(c Config) ([]byte, error) {
	return json.Marshal(c)
}
