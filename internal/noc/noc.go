// Package noc models the system interconnect: the GPU's off-chip links (one
// bidirectional 20 GB/s link per HMC, Table 2) and the inter-HMC memory
// network (a 3D hypercube over 8 stacks using 3 of each HMC's links, §5).
//
// Links serialize packets at link bandwidth and deliver after a per-hop
// router latency; multi-hop memory-network packets are forwarded
// store-and-forward with dimension-order routing. Inter-HMC traffic never
// touches the GPU links — that asymmetry is the core of the paper's
// bandwidth argument.
package noc

import (
	"fmt"
	"math/bits"

	"ndpgpu/internal/audit"
	"ndpgpu/internal/config"
	"ndpgpu/internal/core"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
)

// Link is one direction of one physical link.
type Link struct {
	psPerByte float64   // serialization cost
	latPS     timing.PS // propagation + router latency
	busyUntil timing.PS
	Bytes     int64 // total bytes carried
}

func newLink(gbps float64, latPS timing.PS) *Link {
	// gbps GB/s = gbps bytes/ns = gbps/1000 bytes/ps.
	return &Link{psPerByte: 1000.0 / gbps, latPS: latPS}
}

// Send schedules size bytes onto the link at or after now, returning the
// arrival time at the far end.
func (l *Link) Send(now timing.PS, size int) timing.PS {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := timing.PS(float64(size) * l.psPerByte)
	l.busyUntil = start + ser
	l.Bytes += int64(size)
	return start + ser + l.latPS
}

// PSPerByte returns the link's serialization cost in picoseconds per byte
// (the utilization scale factor: Δbytes × PSPerByte / Δt is the busy
// fraction of the interval).
func (l *Link) PSPerByte() float64 { return l.psPerByte }

// Delivery is a message sitting in an inbox with its arrival time.
type Delivery struct {
	At  timing.PS
	Msg any
	seq int64
}

// Inbox is a time-ordered delivery queue at one endpoint. The heap is
// maintained by hand (rather than container/heap) so Put/Pop move Delivery
// values without boxing each one into an interface — the inboxes sit on the
// simulator's hottest path.
type Inbox struct {
	h   []Delivery
	seq int64
	aud *audit.Network // nil unless the fabric auditor is attached
	// wake, when set, is called on every Put with the arrival time: the
	// endpoint's clock domain is wake-scheduled and a parked ticker must be
	// re-armed no later than the message's delivery edge.
	wake func(at timing.PS)
}

// SetWakeHook installs the per-arrival re-arm callback (wake scheduling).
func (in *Inbox) SetWakeHook(f func(at timing.PS)) { in.wake = f }

func (in *Inbox) less(i, j int) bool {
	if in.h[i].At != in.h[j].At {
		return in.h[i].At < in.h[j].At
	}
	return in.h[i].seq < in.h[j].seq
}

// Put inserts a message arriving at time at.
func (in *Inbox) Put(at timing.PS, msg any) {
	if in.wake != nil {
		in.wake(at)
	}
	in.seq++
	in.h = append(in.h, Delivery{At: at, Msg: msg, seq: in.seq})
	// Sift up.
	i := len(in.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !in.less(i, parent) {
			break
		}
		in.h[i], in.h[parent] = in.h[parent], in.h[i]
		i = parent
	}
}

// Pop removes and returns the earliest message whose arrival time is <= now.
func (in *Inbox) Pop(now timing.PS) (any, bool) {
	if len(in.h) == 0 || in.h[0].At > now {
		return nil, false
	}
	msg := in.h[0].Msg
	if in.aud != nil {
		in.aud.Eject(now, msg)
	}
	n := len(in.h) - 1
	in.h[0] = in.h[n]
	in.h[n] = Delivery{} // release the popped message for GC
	in.h = in.h[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		min := l
		if r < n && in.less(r, l) {
			min = r
		}
		if !in.less(min, i) {
			break
		}
		in.h[i], in.h[min] = in.h[min], in.h[i]
		i = min
	}
	return msg, true
}

// Len returns the number of queued messages (including not-yet-arrived).
func (in *Inbox) Len() int { return len(in.h) }

// NextAt returns the arrival time of the earliest queued message, or false
// when the inbox is empty. Side-effect free; used by idle hints.
func (in *Inbox) NextAt() (timing.PS, bool) {
	if len(in.h) == 0 {
		return 0, false
	}
	return in.h[0].At, true
}

// Fabric wires the GPU and the HMCs together.
type Fabric struct {
	numHMCs int
	dims    int
	ring    bool

	gpuToHMC []*Link // index: hmc
	hmcToGPU []*Link
	// mesh[src][dim]: link from src to src^(1<<dim).
	mesh [][]*Link

	hmcInbox []Inbox
	gpuInbox Inbox

	st     *stats.Stats
	tracer Tracer
	aud    *audit.Network

	// Fault-injection state (nil / unused on the fault-free path).
	flt       *fault.Injector
	routeNext [][]int16 // [cur][dst] -> next hop over live links; -1 = unreachable
	routeVer  int       // injector topology version routeNext was built for
}

// Tracer observes every packet entering the fabric; see package trace.
type Tracer func(now timing.PS, route string, size int, msg any)

// NewFabric builds the fabric for the configuration. st may be nil.
func NewFabric(cfg config.Config, st *stats.Stats) *Fabric {
	n := cfg.NumHMCs
	ring := cfg.HMC.NetTopology == "ring"
	dims := 0
	if ring {
		dims = 2 // clockwise and counter-clockwise links
	} else {
		for 1<<dims < n {
			dims++
		}
		if dims > cfg.HMC.NetLinksPerHMC {
			panic(fmt.Sprintf("noc: hypercube over %d HMCs needs %d links/HMC, have %d",
				n, dims, cfg.HMC.NetLinksPerHMC))
		}
	}
	lat := timing.PS(cfg.HMC.RouterLatPS)
	f := &Fabric{
		numHMCs:  n,
		dims:     dims,
		ring:     ring,
		gpuToHMC: make([]*Link, n),
		hmcToGPU: make([]*Link, n),
		mesh:     make([][]*Link, n),
		hmcInbox: make([]Inbox, n),
		st:       st,
	}
	for i := 0; i < n; i++ {
		f.gpuToHMC[i] = newLink(cfg.GPU.LinkGBps, lat)
		f.hmcToGPU[i] = newLink(cfg.GPU.LinkGBps, lat)
		f.mesh[i] = make([]*Link, dims)
		for d := 0; d < dims; d++ {
			f.mesh[i][d] = newLink(cfg.HMC.NetLinkGBps, lat)
		}
	}
	return f
}

// NumHMCs returns the HMC count.
func (f *Fabric) NumHMCs() int { return f.numHMCs }

// ForEachLink invokes fn on every physical link direction in a fixed order:
// the GPU's off-chip links (both directions per HMC), then the memory-network
// links (per HMC, per dimension). The metrics layer snapshots the list once
// at attach time; fn must not mutate.
func (f *Fabric) ForEachLink(fn func(name string, l *Link)) {
	for i, l := range f.gpuToHMC {
		fn(fmt.Sprintf("gpu-hmc%d", i), l)
	}
	for i, l := range f.hmcToGPU {
		fn(fmt.Sprintf("hmc%d-gpu", i), l)
	}
	for i, dims := range f.mesh {
		for d, l := range dims {
			fn(fmt.Sprintf("mesh%d.d%d", i, d), l)
		}
	}
}

// SetTracer installs a packet observer (nil disables tracing).
func (f *Fabric) SetTracer(t Tracer) { f.tracer = t }

// SetAudit attaches the packet-conservation auditor to the fabric and all of
// its inboxes (nil detaches). The auditor observes every injection at the
// Send* entry points and every ejection at Inbox.Pop; like a tracer, it may
// retain packet identities, which is safe because senders allocate every
// packet fresh.
func (f *Fabric) SetAudit(n *audit.Network) {
	f.aud = n
	f.gpuInbox.aud = n
	for i := range f.hmcInbox {
		f.hmcInbox[i].aud = n
	}
}

// SetFault attaches the fault injector (nil detaches). With an injector
// attached, inter-HMC sends take the fault-aware path: per-hop link-liveness
// checks, adaptive rerouting, and probabilistic drop/corrupt draws. The
// GPU<->HMC host links stay reliable — their flow control is outside the
// paper's memory network.
func (f *Fabric) SetFault(inj *fault.Injector) { f.flt = inj }

// AbandonOffload tells the attached auditor (if any) that the GPU has given
// up on an offload instance — any packets of that ID still in flight are
// legally orphaned and must not be reported as lost at drain.
func (f *Fabric) AbandonOffload(now timing.PS, id core.OffloadID) {
	if f.aud != nil {
		f.aud.Abandon(now, id)
	}
}

// Dims returns the memory-network dimensionality the fabric was built with
// (hypercube dimensions, or 2 for the ring's two directions).
func (f *Fabric) Dims() int { return f.dims }

// Ring reports whether the memory network is the ring topology.
func (f *Fabric) Ring() bool { return f.ring }

// DetourBound is the hard per-packet hop limit on the fault-aware path: a
// packet still in flight when the topology changes may follow a stale route
// for a hop, but can never loop unboundedly — past this bound it is dropped
// as unreachable. It is also the hop bound the lossy audit enforces.
func (f *Fabric) DetourBound() int { return 4 * f.numHMCs }

// linkUp reports whether the physical link between neighbors u and w is
// alive at now. Liveness is symmetric: the injector stores link state at the
// canonical (lower) endpoint.
func (f *Fabric) linkUp(now timing.PS, u, w int) bool {
	if f.ring {
		j := u
		if w != (u+1)%f.numHMCs {
			j = w
		}
		return !f.flt.LinkDead(now, j, 0)
	}
	d := bits.TrailingZeros32(uint32(u ^ w))
	return !f.flt.LinkDead(now, u&^(1<<d), d)
}

// linkDim returns the mesh dimension index of the link from cur to its
// neighbor next.
func (f *Fabric) linkDim(cur, next int) int {
	if f.ring {
		if next == (cur+1)%f.numHMCs {
			return 0
		}
		return 1
	}
	return bits.TrailingZeros32(uint32(cur ^ next))
}

// dimOrderNext returns the next hop the fault-free deterministic routing
// takes (dimension-order for the hypercube, shortest direction for the ring:
// mesh[i][0] goes clockwise to i+1, mesh[i][1] counter-clockwise to i-1),
// ignoring link liveness. Fault-free sends route by it, and the fault-aware
// path uses it to count rerouted hops.
func (f *Fabric) dimOrderNext(cur, dst int) int {
	if f.ring {
		cw := (dst - cur + f.numHMCs) % f.numHMCs
		if cw <= f.numHMCs-cw {
			return (cur + 1) % f.numHMCs
		}
		return (cur - 1 + f.numHMCs) % f.numHMCs
	}
	d := bits.TrailingZeros32(uint32(cur ^ dst))
	return cur ^ (1 << d)
}

// liveRoutes returns the next-hop table over currently-live links, rebuilt
// lazily whenever the injector's topology version changes. For each
// destination a breadth-first search (neighbors visited in ascending
// dimension order, so path choice is deterministic) yields the shortest
// live path; unreachable pairs get -1. On a fully-live topology the table
// reproduces shortest-path routing, and the escape behaviour around dead
// links is livelock-free by construction: the table is loop-free at any
// fixed topology version, and the DetourBound caps transient loops across
// version changes.
func (f *Fabric) liveRoutes(now timing.PS) [][]int16 {
	v := f.flt.TopoVersion(now)
	if f.routeNext != nil && f.routeVer == v {
		return f.routeNext
	}
	n := f.numHMCs
	if f.routeNext == nil {
		f.routeNext = make([][]int16, n)
		for i := range f.routeNext {
			f.routeNext[i] = make([]int16, n)
		}
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	var nbuf [16]int
	neighbors := func(u int) []int {
		b := nbuf[:0]
		if f.ring {
			b = append(b, (u+1)%n, (u-1+n)%n)
		} else {
			for d := 0; d < f.dims; d++ {
				b = append(b, u^(1<<d))
			}
		}
		return b
	}
	for dst := 0; dst < n; dst++ {
		for i := 0; i < n; i++ {
			dist[i] = -1
			f.routeNext[i][dst] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range neighbors(u) {
				if dist[w] >= 0 || !f.linkUp(now, u, w) {
					continue
				}
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
		// Next hop: the first live distance-reducing neighbor in dimension
		// order. On a fully-live topology this IS the deterministic
		// fault-free route (lowest differing dimension first / shortest ring
		// direction), so a dormant injector leaves every packet's path — and
		// therefore link contention and timing — bit-identical.
		for u := 0; u < n; u++ {
			if u == dst || dist[u] < 0 {
				continue
			}
			for _, w := range neighbors(u) {
				if dist[w] >= 0 && dist[w] == dist[u]-1 && f.linkUp(now, u, w) {
					f.routeNext[u][dst] = int16(w)
					break
				}
			}
		}
		f.routeNext[dst][dst] = int16(dst)
	}
	f.routeVer = v
	return f.routeNext
}

// sendMeshFaulty is the fault-aware inter-HMC send: per-hop adaptive
// routing over live links with a deterministic dimension-order preference,
// plus the packet's drop/corrupt draw. A packet with no live route (or past
// the detour bound) is dropped and reported to the lossy audit; the offload
// protocol's retry path recovers the loss end-to-end.
func (f *Fabric) sendMeshFaulty(now timing.PS, src, dst, size int, msg any) timing.PS {
	drop, corrupt := f.flt.DrawDrop()
	t := now
	cur := src
	hops := 0
	bound := f.DetourBound()
	for cur != dst && hops < bound {
		next := int(f.liveRoutes(t)[cur][dst])
		if next < 0 {
			break
		}
		if f.st != nil && next != f.dimOrderNext(cur, dst) {
			f.st.ReroutedHops++
		}
		t = f.mesh[cur][f.linkDim(cur, next)].Send(t, size)
		f.addTraffic(stats.MemNet, int64(size))
		cur = next
		hops++
		if drop {
			break // lost in flight after its first traversed hop
		}
	}
	switch {
	case drop:
		if f.st != nil {
			f.st.DroppedPackets++
		}
	case corrupt && cur == dst:
		// Consumed bandwidth all the way, discarded at the CRC check.
		if f.st != nil {
			f.st.CorruptedPackets++
		}
	case cur != dst:
		if f.st != nil {
			f.st.RouteUnreachable++
		}
	default:
		if f.aud != nil {
			f.aud.Inject(now, t, src, dst, hops, msg)
		}
		f.hmcInbox[dst].Put(t, msg)
		return t
	}
	if f.aud != nil {
		f.aud.Dropped(now, src, dst, msg)
	}
	return t
}

// Diameter returns the maximum hop count between any two stacks on the
// memory network: the dimension count for the hypercube, half the ring for
// the ring topology.
func (f *Fabric) Diameter() int {
	if f.ring {
		return f.numHMCs / 2
	}
	return f.dims
}

func (f *Fabric) trace(now timing.PS, routeFmt string, a, b, size int, msg any) {
	if f.tracer == nil {
		return
	}
	f.tracer(now, fmt.Sprintf(routeFmt, a, b), size, msg)
}

func (f *Fabric) addTraffic(c stats.TrafficClass, n int64) {
	if f.st != nil {
		f.st.AddTraffic(c, n)
	}
}

// SendGPUToHMC ships a packet from the GPU to HMC dst.
func (f *Fabric) SendGPUToHMC(now timing.PS, dst, size int, msg any) timing.PS {
	f.trace(now, "gpu->hmc%d%.0d", dst, 0, size, msg)
	at := f.gpuToHMC[dst].Send(now, size)
	f.addTraffic(stats.GPULink, int64(size))
	if f.aud != nil {
		f.aud.Inject(now, at, audit.GPUNode, dst, 0, msg)
	}
	f.hmcInbox[dst].Put(at, msg)
	return at
}

// SendHMCToGPU ships a packet from HMC src to the GPU.
func (f *Fabric) SendHMCToGPU(now timing.PS, src, size int, msg any) timing.PS {
	f.trace(now, "hmc%d->gpu%.0d", src, 0, size, msg)
	at := f.hmcToGPU[src].Send(now, size)
	f.addTraffic(stats.GPULink, int64(size))
	if f.aud != nil {
		f.aud.Inject(now, at, src, audit.GPUNode, 0, msg)
	}
	f.gpuInbox.Put(at, msg)
	return at
}

// SendHMCToHMC ships a packet between stacks over the memory network using
// dimension-order routing with store-and-forward per hop. src == dst is
// legal and models logic-layer-internal movement (no link traversal).
func (f *Fabric) SendHMCToHMC(now timing.PS, src, dst, size int, msg any) timing.PS {
	f.trace(now, "hmc%d->hmc%d", src, dst, size, msg)
	if src == dst {
		if f.aud != nil {
			f.aud.Inject(now, now, src, dst, 0, msg)
		}
		f.hmcInbox[dst].Put(now, msg)
		return now
	}
	if f.flt != nil {
		return f.sendMeshFaulty(now, src, dst, size, msg)
	}
	t := now
	cur := src
	hops := 0
	for cur != dst {
		next := f.dimOrderNext(cur, dst)
		t = f.mesh[cur][f.linkDim(cur, next)].Send(t, size) // arrival at next hop
		f.addTraffic(stats.MemNet, int64(size))
		cur = next
		hops++
	}
	if f.aud != nil {
		f.aud.Inject(now, t, src, dst, hops, msg)
	}
	f.hmcInbox[dst].Put(t, msg)
	return t
}

// Hops returns the number of memory-network hops between two stacks.
func (f *Fabric) Hops(src, dst int) int {
	if f.ring {
		cw := (dst - src + f.numHMCs) % f.numHMCs
		if ccw := f.numHMCs - cw; ccw < cw {
			return ccw
		}
		return cw
	}
	h := 0
	for x := src ^ dst; x != 0; x >>= 1 {
		h += x & 1
	}
	return h
}

// HMCInbox returns HMC i's delivery queue.
func (f *Fabric) HMCInbox(i int) *Inbox { return &f.hmcInbox[i] }

// GPUInbox returns the GPU-side delivery queue.
func (f *Fabric) GPUInbox() *Inbox { return &f.gpuInbox }

// Quiesced reports whether all inboxes are empty.
func (f *Fabric) Quiesced() bool {
	if f.gpuInbox.Len() > 0 {
		return false
	}
	for i := range f.hmcInbox {
		if f.hmcInbox[i].Len() > 0 {
			return false
		}
	}
	return true
}
