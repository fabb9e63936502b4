package core

import (
	"math"
	"math/rand"

	"ndpgpu/internal/config"
)

// Decider chooses, per offload-block instance, whether to offload it.
type Decider interface {
	// Decide is called once per dynamic block instance.
	Decide(blockID int) bool
	// EpochTick is called at each epoch boundary with the number of
	// offload-region instructions committed during the epoch (the
	// throughput metric of §7.2).
	EpochTick(regionInstrs int64)
	// Ratio returns the current offload ratio (diagnostic).
	Ratio() float64
}

// Never offloads nothing: the baseline.
type Never struct{}

// Decide implements Decider.
func (Never) Decide(int) bool { return false }

// EpochTick implements Decider.
func (Never) EpochTick(int64) {}

// Ratio implements Decider.
func (Never) Ratio() float64 { return 0 }

// Always offloads everything: the naive mechanism of §6.
type Always struct{}

// Decide implements Decider.
func (Always) Decide(int) bool { return true }

// EpochTick implements Decider.
func (Always) EpochTick(int64) {}

// Ratio implements Decider.
func (Always) Ratio() float64 { return 1 }

// StaticRatio offloads a fixed random fraction of block instances (§7.1).
type StaticRatio struct {
	P   float64
	rng *rand.Rand
}

// NewStaticRatio builds a static-ratio decider with its own seeded RNG.
func NewStaticRatio(p float64, seed int64) *StaticRatio {
	return &StaticRatio{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Decide implements Decider.
func (s *StaticRatio) Decide(int) bool { return s.rng.Float64() < s.P }

// EpochTick implements Decider.
func (s *StaticRatio) EpochTick(int64) {}

// Ratio implements Decider.
func (s *StaticRatio) Ratio() float64 { return s.P }

// Dynamic implements Algorithm 1: an epoch-based hill-climbing controller
// with adaptive step size. If throughput fell since the previous epoch the
// direction of ratio movement reverses; a history window of direction
// changes shrinks the step when the controller oscillates around the
// optimum and grows it when progress is monotonic.
type Dynamic struct {
	cfg config.NDPConfig
	rng *rand.Rand

	ratio float64
	// The step is tracked in integer multiples of StepUnit so repeated
	// grow/shrink cycles can never drift off the grid.
	stepUnits          int
	minUnits, maxUnits int
	dir                float64
	prevIPC            float64
	first              bool
	history            []bool // true = direction changed that epoch

	// Trace records the ratio after every epoch, for reporting.
	Trace []float64
}

// NewDynamic builds the controller with the paper's constants from cfg.
func NewDynamic(cfg config.NDPConfig, seed int64) *Dynamic {
	toUnits := func(v float64) int { return int(math.Round(v / cfg.StepUnit)) }
	return &Dynamic{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		ratio:     cfg.InitRatio,
		stepUnits: toUnits(cfg.MaxStep), // init: Step_cur <- Step_max
		minUnits:  toUnits(cfg.MinStep),
		maxUnits:  toUnits(cfg.MaxStep),
		dir:       1,
		first:     true,
	}
}

// Step returns the current step size.
func (d *Dynamic) Step() float64 { return float64(d.stepUnits) * d.cfg.StepUnit }

// Decide implements Decider.
func (d *Dynamic) Decide(int) bool { return d.rng.Float64() < d.ratio }

// Ratio implements Decider.
func (d *Dynamic) Ratio() float64 { return d.ratio }

// EpochTick implements Decider; regionInstrs is the epoch's offload-region
// instruction throughput.
func (d *Dynamic) EpochTick(regionInstrs int64) {
	ipc := float64(regionInstrs)
	if d.first {
		// "At the end of each epoch except for the first": just record.
		d.first = false
		d.prevIPC = ipc
		d.move()
		d.Trace = append(d.Trace, d.ratio)
		return
	}
	changed := false
	if ipc < d.prevIPC {
		d.dir = -d.dir
		changed = true
	}
	d.history = append(d.history, changed)
	if len(d.history) > d.cfg.WindowSize {
		d.history = d.history[1:]
	}
	nChanges := 0
	for _, c := range d.history {
		if c {
			nChanges++
		}
	}
	if nChanges > d.cfg.WindowSize/2 && d.minUnits < d.stepUnits {
		d.stepUnits--
	} else if d.stepUnits < d.maxUnits {
		d.stepUnits++
	}
	d.prevIPC = ipc
	d.move()
	d.Trace = append(d.Trace, d.ratio)
}

// move applies ratio += dir*step, clamped so the ratio stays inside
// [StepUnit, 1-StepUnit] as in Algorithm 1's guard.
func (d *Dynamic) move() {
	next := d.ratio + d.dir*d.Step()
	lo, hi := d.cfg.StepUnit, 1-d.cfg.StepUnit
	if next < lo {
		next = lo
	}
	if next > hi {
		next = hi
	}
	d.ratio = next
}

// BlockInfo is the static per-block information the cache-aware decider
// needs (produced by the analyzer).
type BlockInfo struct {
	NumLD, NumST    int
	RegsIn, RegsOut int
	Indirect        bool
}

// CacheAware wraps another decider with the §7.3 cache-locality filter
// (indirect gather blocks are profiled like any other: if their lines turn
// out to live in the GPU caches, offloading them ships cached data). It
// accumulates, per block, the coalesced line accesses of its loads, the GPU
// cache hits among them, and the words each line transfer would carry, and
// suppresses offloading when the benefit no longer covers the costs. The
// paper's equation,
//
//	Benefit = ceil(AvgNumCacheLines x AvgCacheMissRate) x CacheLineSize x SIMDWidth
//	        + NumStoreInsts x WordSize x SIMDWidth
//
// is used in per-warp-consistent units and extended with two measured cost
// terms the original omits: the forwarding traffic of cache-HIT lines (each
// still ships its touched words from the GPU to the NSU — the §7.1 BPROP
// pathology) and the measured command/acknowledgment register payloads
// (predicated blocks transfer far fewer bytes than the static bound).
type CacheAware struct {
	Inner Decider

	lineBytes int
	blocks    []BlockInfo
	lines     []int64 // accumulated line accesses per block
	hits      []int64 // accumulated GPU cache hits per block
	words     []int64 // accumulated touched words across those lines
	instances []int64
	xferBytes []int64 // measured register-transfer payloads (offloaded runs)
	xferCount []int64

	// MinSamples is how many profiled instances are needed before the
	// filter engages; below it, the wrapped decider rules alone.
	MinSamples int64

	Suppressed int64 // block instances suppressed by the filter
}

// NewCacheAware wraps inner with the cache-locality filter.
func NewCacheAware(inner Decider, blocks []BlockInfo, lineBytes int) *CacheAware {
	n := len(blocks)
	return &CacheAware{
		Inner:      inner,
		lineBytes:  lineBytes,
		blocks:     blocks,
		lines:      make([]int64, n),
		hits:       make([]int64, n),
		words:      make([]int64, n),
		instances:  make([]int64, n),
		xferBytes:  make([]int64, n),
		xferCount:  make([]int64, n),
		MinSamples: 8,
	}
}

// RecordLine accumulates one coalesced line access of the block's loads:
// whether the probe hit in the GPU caches, and how many words of the line
// the warp touched (the payload an RDF response would carry). Profiles are
// gathered in both execution modes so a suppressed block keeps being
// re-evaluated.
func (c *CacheAware) RecordLine(blockID int, hit bool, touchedWords int) {
	c.lines[blockID]++
	c.words[blockID] += int64(touchedWords)
	if hit {
		c.hits[blockID]++
	}
}

// RecordInstance counts one completed dynamic instance of the block, the
// denominator of AvgNumCacheLines.
func (c *CacheAware) RecordInstance(blockID int) { c.instances[blockID]++ }

// RecordTransfer accumulates the measured register-transfer payload (command
// plus acknowledgment) of one offloaded instance. Predicated blocks transfer
// far fewer bytes than the static regs x warp-width bound, so measured
// values replace the static estimate once available.
func (c *CacheAware) RecordTransfer(blockID int, bytes int) {
	c.xferBytes[blockID] += int64(bytes)
	c.xferCount[blockID]++
}

// RecordAccess is a convenience combining RecordLine and RecordInstance for
// one whole instance observed at once, assuming fully-touched lines.
func (c *CacheAware) RecordAccess(blockID int, lines, hits int) {
	c.lines[blockID] += int64(lines)
	c.hits[blockID] += int64(hits)
	c.words[blockID] += int64(lines) * config.WarpWidth
	c.instances[blockID]++
}

// Decide implements Decider.
func (c *CacheAware) Decide(blockID int) bool {
	b := c.blocks[blockID]
	if c.instances[blockID] >= c.MinSamples && c.lines[blockID] > 0 {
		avgLines := float64(c.lines[blockID]) / float64(c.instances[blockID])
		hitRate := float64(c.hits[blockID]) / float64(c.lines[blockID])
		missRate := 1 - hitRate
		wordsPerLine := float64(c.words[blockID]) / float64(c.lines[blockID])
		// The paper's equation multiplies the line term by SIMDWidth too;
		// dimensionally that mixes per-line and per-thread units (a missing
		// line costs one CacheLineSize fetch for the whole warp), so we use
		// the per-warp-consistent form. We also extend it with the cost the
		// paper's form omits: every cache-HIT line still ships its touched
		// words from the GPU to the NSU (the §7.1 BPROP pathology), so that
		// forwarding traffic counts against the benefit. See EXPERIMENTS.md.
		benefit := math.Ceil(avgLines*missRate)*float64(c.lineBytes) +
			float64(b.NumST)*WordBytes*config.WarpWidth
		shipCost := avgLines * hitRate * (HeaderBytes + wordsPerLine*WordBytes)
		overhead := float64(b.RegsIn+b.RegsOut) * WordBytes * config.WarpWidth
		if c.xferCount[blockID] > 0 {
			overhead = float64(c.xferBytes[blockID]) / float64(c.xferCount[blockID])
		}
		if benefit-shipCost-overhead <= 0 {
			c.Suppressed++
			return false
		}
	}
	return c.Inner.Decide(blockID)
}

// EpochTick implements Decider.
func (c *CacheAware) EpochTick(regionInstrs int64) { c.Inner.EpochTick(regionInstrs) }

// Ratio implements Decider.
func (c *CacheAware) Ratio() float64 { return c.Inner.Ratio() }
