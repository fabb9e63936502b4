// Package cache implements the GPU's on-chip caches: set-associative,
// LRU-replacement, write-through (Table 2 / §5 of the paper assumes
// write-through GPU caches), with a bounded number of MSHRs.
//
// Caches here track only presence (tags); functional data always lives in
// the vm backing store. That split is safe because the GPU caches are
// write-through: memory always holds the latest GPU-written values, and NSU
// writes invalidate GPU copies (§4.2), so a present line is never stale.
package cache

import (
	"fmt"

	"ndpgpu/internal/config"
	"ndpgpu/internal/stats"
)

type way struct {
	tag   uint64
	valid bool
	used  int64 // LRU stamp
}

// Cache is one set-associative tag array plus its MSHRs.
type Cache struct {
	geom     config.CacheGeom
	sets     [][]way
	setMask  uint64
	lineBits uint
	clock    int64

	// MSHRs: outstanding line fills. A second miss to an in-flight line
	// merges into the existing entry.
	mshr map[uint64]int // lineAddr -> pending request count

	// One-entry memo of the last hit: repeated probes for the same line (the
	// dominant L1I pattern) resolve with two compares instead of a set scan.
	// Any Fill, Invalidate, or Flush drops it, since those can evict the
	// memoized way.
	memoOK   bool
	memoLine uint64
	memoWay  *way

	Stats stats.CacheStats
}

// New builds a cache with the given geometry.
func New(geom config.CacheGeom) *Cache {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	nsets := geom.Sets()
	sets := make([][]way, nsets)
	backing := make([]way, nsets*geom.Ways)
	for i := range sets {
		sets[i], backing = backing[:geom.Ways], backing[geom.Ways:]
	}
	lineBits := uint(0)
	for 1<<lineBits < geom.LineBytes {
		lineBits++
	}
	return &Cache{
		geom:     geom,
		sets:     sets,
		setMask:  uint64(nsets - 1),
		lineBits: lineBits,
		mshr:     make(map[uint64]int),
	}
}

// Line returns addr rounded down to a line boundary.
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

// setOf hashes the set index by XOR-folding upper address bits, as real GPU
// L2s (and GPGPU-Sim) do to avoid power-of-two stride aliasing.
func (c *Cache) setOf(line uint64) []way {
	idx := line >> c.lineBits
	h := idx ^ (idx >> 10) ^ (idx >> 20)
	return c.sets[h&c.setMask]
}

// Lookup reports whether the line is present, updating LRU state and the
// access statistics. The address may be any byte within the line.
func (c *Cache) Lookup(addr uint64) bool {
	c.clock++
	c.Stats.Accesses++
	line := c.Line(addr)
	if c.memoOK && c.memoLine == line {
		c.memoWay.used = c.clock
		c.Stats.Hits++
		return true
	}
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].used = c.clock
			c.Stats.Hits++
			c.memoOK, c.memoLine, c.memoWay = true, line, &set[i]
			return true
		}
	}
	return false
}

// Contains reports presence without touching LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	line := c.Line(addr)
	if c.memoOK && c.memoLine == line {
		return true
	}
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			c.memoOK, c.memoLine, c.memoWay = true, line, &set[i]
			return true
		}
	}
	return false
}

// Fill inserts the line, evicting the LRU way if needed.
func (c *Cache) Fill(addr uint64) {
	c.memoOK = false
	c.clock++
	line := c.Line(addr)
	set := c.setOf(line)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].used = c.clock // refresh
			return
		}
		if !set[i].valid {
			victim = i
			goto place
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	c.Stats.Evictions++
place:
	set[victim] = way{tag: line, valid: true, used: c.clock}
	c.Stats.Fills++
}

// Invalidate drops the line if present, returning whether it was present.
// Used for the §4.2 coherence mechanism: NSU DRAM writes invalidate GPU
// copies.
func (c *Cache) Invalidate(addr uint64) bool {
	c.memoOK = false
	line := c.Line(addr)
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].valid = false
			c.Stats.Invalidations++
			return true
		}
	}
	return false
}

// MSHRReserve attempts to register an outstanding miss for the line.
// It returns true if the miss can proceed (either merged into an existing
// entry or a fresh entry was available) and whether this is the primary
// miss that must actually fetch from the next level.
func (c *Cache) MSHRReserve(addr uint64) (ok, primary bool) {
	line := c.Line(addr)
	if n, exists := c.mshr[line]; exists {
		c.mshr[line] = n + 1
		return true, false
	}
	if len(c.mshr) >= c.geom.MSHRs {
		c.Stats.MSHRStalls++
		return false, false
	}
	c.mshr[line] = 1
	return true, true
}

// MSHRRelease completes the fill for the line: the line is installed and
// the number of merged requests is returned (0 if no entry existed).
func (c *Cache) MSHRRelease(addr uint64) int {
	line := c.Line(addr)
	n, exists := c.mshr[line]
	if !exists {
		return 0
	}
	delete(c.mshr, line)
	c.Fill(line)
	return n
}

// MSHRInFlight returns the number of in-flight line fills.
func (c *Cache) MSHRInFlight() int { return len(c.mshr) }

// MSHRCapacity returns the configured MSHR entry count, the upper bound on
// MSHRInFlight.
func (c *Cache) MSHRCapacity() int { return c.geom.MSHRs }

// Flush invalidates the entire cache (between-kernel behaviour).
func (c *Cache) Flush() {
	c.memoOK = false
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}
