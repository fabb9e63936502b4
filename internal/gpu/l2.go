package gpu

import (
	"math/bits"

	"ndpgpu/internal/cache"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
)

// l2ReqKind distinguishes the request types a slice serves.
type l2ReqKind int

const (
	reqRead  l2ReqKind = iota // baseline line fetch
	reqWrite                  // baseline write-through store
	reqRDF                    // RDF cache probe (offloaded load, §4.1.1)
)

// l2Req is one request from an SM to an L2 slice.
type l2Req struct {
	kind l2ReqKind
	line uint64

	// reqRead: completion callback (fills the requesting L1); blockID >= 0
	// attributes the access to an offload block for cache profiling, with
	// words the touched word count.
	onFill func(now timing.PS)
	words  int

	// reqWrite: the write-through packet to forward to DRAM.
	write *core.WriteReq

	// reqRDF: the read-and-forward request to satisfy or forward.
	rdf     *core.RDFPacket
	blockID int // for cache-locality profiling
}

// l2slice is one L2 cache slice: the GPU has one per memory partition (per
// HMC link), each with its own MSHRs, matching the GPGPU-Sim organization
// the paper's Table 2 describes in aggregate.
type l2slice struct {
	g       *GPU
	hmc     int // the memory partition this slice fronts
	tags    *cache.Cache
	queue   []*l2Req
	waiters map[uint64][]func(now timing.PS)
	latency timing.PS // L2 access latency in ps
}

func newL2Slice(g *GPU, hmc int, geom config.CacheGeom, latencyPS timing.PS) *l2slice {
	return &l2slice{
		g:       g,
		hmc:     hmc,
		tags:    cache.New(geom),
		waiters: make(map[uint64][]func(now timing.PS)),
		latency: latencyPS,
	}
}

// push enqueues a request.
func (s *l2slice) push(r *l2Req) { s.queue = append(s.queue, r) }

// tick serves the head request, one per crossbar tick; a head blocked on
// full MSHRs retries next tick.
func (s *l2slice) tick(now timing.PS) {
	if len(s.queue) > 0 && s.serve(s.queue[0], now) {
		s.queue = s.queue[1:]
	}
}

func (s *l2slice) serve(r *l2Req, now timing.PS) bool {
	done := now + s.latency
	switch r.kind {
	case reqRead:
		if s.tags.Contains(r.line) {
			s.tags.Lookup(r.line)
			if r.blockID >= 0 {
				s.g.recordLine(r.blockID, true, r.words)
			}
			r.onFill(done)
			return true
		}
		// Reserve before counting so full-MSHR retries are not
		// double-counted in the statistics.
		ok, primary := s.tags.MSHRReserve(r.line)
		if !ok {
			return false
		}
		s.tags.Lookup(r.line)
		if r.blockID >= 0 {
			s.g.recordLine(r.blockID, false, r.words)
		}
		s.waiters[r.line] = append(s.waiters[r.line], r.onFill)
		if primary {
			req := &core.ReadReq{LineAddr: r.line}
			s.g.fab.SendGPUToHMC(done, s.hmc, req.Size(), req)
		}
		return true

	case reqWrite:
		// Write-through, no-allocate: probe for stats, forward to DRAM.
		s.tags.Lookup(r.line)
		s.g.fab.SendGPUToHMC(done, s.hmc, r.write.Size(), r.write)
		return true

	case reqRDF:
		hit := s.tags.Lookup(r.line)
		s.g.recordLine(r.blockID, hit, bits.OnesCount32(r.rdf.Access.Mask))
		if hit {
			// Serve from the cache: the GPU generates the RDF response
			// itself and ships it to the target NSU (Figure 6(a)) — or a
			// reference, if the NSU's read-only cache holds the line.
			s.g.st.RDFCacheHits++
			msg, size := s.g.shipCachedLine(r.rdf)
			s.g.fab.SendGPUToHMC(done, r.rdf.Target, size, msg)
		} else {
			s.g.fab.SendGPUToHMC(done, s.hmc, r.rdf.Size(), r.rdf)
		}
		return true
	}
	return true
}

// fill completes an outstanding line fetch (a ReadResp arrived).
func (s *l2slice) fill(line uint64, now timing.PS) {
	s.tags.MSHRRelease(line)
	for _, fn := range s.waiters[line] {
		fn(now)
	}
	delete(s.waiters, line)
}

// invalidate drops the line (NSU wrote it, §4.2).
func (s *l2slice) invalidate(line uint64) { s.tags.Invalidate(line) }

// idle reports whether the slice has no queued work or outstanding fills.
func (s *l2slice) idle() bool { return len(s.queue) == 0 && len(s.waiters) == 0 }

// makeRDFResp builds an RDF response with the touched words read from the
// functional memory. Shared by the GPU (cache hits) and exported via the
// hmc package's vault path for misses.
func (g *GPU) makeRDFResp(r *core.RDFPacket) *core.RDFResp {
	return MakeRDFResp(g.mem, r)
}

// MakeRDFResp reads the words covered by the RDF access out of functional
// memory and packages them as an RDF response (Figure 4(c)).
func MakeRDFResp(mem *vm.System, r *core.RDFPacket) *core.RDFResp {
	resp := &core.RDFResp{ID: r.ID, Tag: r.Tag, Seq: r.Seq, Mask: r.Access.Mask, TotalPkts: r.TotalPkts}
	for t := 0; t < config.WarpWidth; t++ {
		if r.Access.Mask&(1<<uint(t)) != 0 {
			addr := r.Access.LineAddr + uint64(r.Access.Offsets[t])*core.WordBytes
			resp.Data[t] = mem.Read32(addr)
		}
	}
	return resp
}

// recordLine feeds the cache-locality profiler if one is attached.
func (g *GPU) recordLine(blockID int, hit bool, words int) {
	if g.rec != nil && blockID >= 0 {
		g.rec.RecordLine(blockID, hit, words)
	}
}
