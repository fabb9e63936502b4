// Package metrics is the epoch-sampled observability layer: a Collector of
// named probes sampled on the SM clock at a fixed cycle interval (defaulting
// to the Algorithm-1 epoch), producing per-component time series — offload
// ratio and controller decisions per SM, link utilization and queue depth per
// link, NSU buffer occupancy and credit stalls per stack, DRAM row-hit rate
// and vault busy fraction, cache hit rates, and fault counters — plus
// duration spans for offload round trips.
//
// The layer follows the same contract as internal/audit and internal/fault:
// disabled means absent (a nil collector, no probes registered, no ticker
// attached), so the simulated machine's behaviour and statistics are
// bit-identical with and without it. Enabled, the sampler only reads machine
// state at SM-domain edges the engine would fire anyway (the epoch controller
// pins every boundary edge).
package metrics

import (
	"fmt"

	"ndpgpu/internal/timing"
)

// Kind classifies how a probe's samples are derived.
type Kind uint8

const (
	// KindCounter samples a monotonically growing total and stores the
	// per-interval delta.
	KindCounter Kind = iota
	// KindGauge stores the probe's instantaneous value.
	KindGauge
	// KindRate stores scale * Δnum/Δden over the interval (0 when Δden = 0).
	KindRate
	// KindTimeRate stores scale * Δnum/Δt_ps over the interval.
	KindTimeRate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindRate:
		return "rate"
	case KindTimeRate:
		return "time-rate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// probe is one registered metric source.
type probe struct {
	name  string
	track string // component group; one Chrome counter track per name
	unit  string
	kind  Kind
	fn    func() float64 // counter/gauge/time-rate numerator
	den   func() float64 // rate denominator
	scale float64
	prevN float64
	prevD float64
}

// Span is one completed offload round trip (OFLDBEG to ack application).
type Span struct {
	Name    string `json:"name"`
	TID     int    `json:"tid"` // issuing SM
	StartPS int64  `json:"start_ps"`
	DurPS   int64  `json:"dur_ps"`
}

// maxSpans bounds the retained round-trip spans; a long run keeps the first
// maxSpans and counts the rest, so memory stays bounded and the kept set is
// deterministic (spans arrive in a deterministic order).
const maxSpans = 1 << 16

// Collector samples registered probes every interval SM cycles. All methods
// are called from the engine goroutine; the collector needs no locking.
type Collector struct {
	interval int64     // sampling interval in SM cycles
	period   timing.PS // SM clock period
	next     timing.PS // time of the next interval-boundary sample

	probes  []*probe
	samples [][]float64 // parallel to probes
	times   []timing.PS // sample timestamps

	spans        []Span
	spansDropped int64

	hook func(now timing.PS, cycles int64) // fired after every Sample

	meta map[string]string
}

// New returns a collector sampling every intervalCycles SM cycles of
// periodPS picoseconds each.
func New(intervalCycles int64, periodPS timing.PS) *Collector {
	if intervalCycles <= 0 {
		panic(fmt.Sprintf("metrics: non-positive sampling interval %d", intervalCycles))
	}
	return &Collector{interval: intervalCycles, period: periodPS,
		next: timing.PS(intervalCycles) * periodPS, meta: map[string]string{}}
}

// SetMeta attaches a key/value annotation carried into every export.
func (c *Collector) SetMeta(k, v string) { c.meta[k] = v }

// SetSampleHook registers fn to run after every boundary sample with the
// sample time and the SM cycles elapsed so far — the event source behind
// ndpserve's streaming progress. The hook runs on the engine goroutine, so
// it must not block; publish-and-drop is the expected discipline. A nil hook
// (the default) keeps Sample allocation- and call-free, preserving the
// layer's strict no-op contract.
func (c *Collector) SetSampleHook(fn func(now timing.PS, cycles int64)) { c.hook = fn }

func (c *Collector) add(p *probe) {
	c.probes = append(c.probes, p)
	c.samples = append(c.samples, nil)
}

// Counter registers a probe over a monotonically growing total; samples are
// per-interval deltas.
func (c *Collector) Counter(name, track, unit string, fn func() float64) {
	c.add(&probe{name: name, track: track, unit: unit, kind: KindCounter, fn: fn})
}

// Gauge registers an instantaneous-value probe.
func (c *Collector) Gauge(name, track, unit string, fn func() float64) {
	c.add(&probe{name: name, track: track, unit: unit, kind: KindGauge, fn: fn})
}

// Rate registers a probe sampling scale * Δnum/Δden per interval — e.g. a
// hit rate from two growing totals.
func (c *Collector) Rate(name, track, unit string, scale float64, num, den func() float64) {
	c.add(&probe{name: name, track: track, unit: unit, kind: KindRate, fn: num, den: den, scale: scale})
}

// TimeRate registers a probe sampling scale * Δnum per elapsed picosecond —
// e.g. link utilization from a byte counter and the serialization cost.
func (c *Collector) TimeRate(name, track, unit string, scale float64, num func() float64) {
	c.add(&probe{name: name, track: track, unit: unit, kind: KindTimeRate, fn: num, scale: scale})
}

// OffloadSpan records one completed offload round trip; implements the GPU's
// span sink. Naming mirrors internal/trace's packet descriptions, so the
// Perfetto view and a packet trace line up on the same sm/warp identifiers.
func (c *Collector) OffloadSpan(sm, warp, block int, start, dur timing.PS) {
	if len(c.spans) >= maxSpans {
		c.spansDropped++
		return
	}
	c.spans = append(c.spans, Span{
		Name:    fmt.Sprintf("offload sm%d/w%d blk%d", sm, warp, block),
		TID:     sm,
		StartPS: int64(start),
		DurPS:   int64(dur),
	})
}

// Sample reads every probe and appends one point per series at time now.
func (c *Collector) Sample(now timing.PS) {
	var dt float64
	if n := len(c.times); n > 0 {
		dt = float64(now - c.times[n-1])
	} else {
		dt = float64(now)
	}
	c.times = append(c.times, now)
	for i, p := range c.probes {
		var v float64
		switch p.kind {
		case KindCounter:
			cur := p.fn()
			v = cur - p.prevN
			p.prevN = cur
		case KindGauge:
			v = p.fn()
		case KindRate:
			n, d := p.fn(), p.den()
			dn, dd := n-p.prevN, d-p.prevD
			p.prevN, p.prevD = n, d
			if dd != 0 {
				v = p.scale * dn / dd
			}
		case KindTimeRate:
			cur := p.fn()
			dn := cur - p.prevN
			p.prevN = cur
			if dt > 0 {
				v = p.scale * dn / dt
			}
		}
		c.samples[i] = append(c.samples[i], v)
	}
	if c.hook != nil {
		c.hook(now, int64(now/c.period))
	}
}

// Final takes the end-of-run sample unless the last interval boundary
// already sampled at exactly this time. Call once at finalization, before
// the machine writes its end-of-run totals into the statistics bundle.
func (c *Collector) Final(now timing.PS) {
	if n := len(c.times); n > 0 && c.times[n-1] == now {
		return
	}
	c.Sample(now)
}

// ticker drives the collector on the SM clock domain. NextWorkAt reports the
// next interval boundary, which — at the default interval — coincides with
// the epoch boundary the GPU already pins, so attaching the sampler changes
// no fired edges, and no skip ever crosses a boundary.
type ticker struct{ c *Collector }

// Ticker returns the clock-domain adapter for this collector.
func (c *Collector) Ticker() timing.Ticker { return ticker{c} }

// Tick implements timing.Ticker.
func (t ticker) Tick(now timing.PS) {
	if now >= t.c.next {
		t.c.Sample(now)
		t.c.next += timing.PS(t.c.interval) * t.c.period
	}
}

// NextWorkAt implements timing.Ticker.
func (t ticker) NextWorkAt(now timing.PS) timing.PS { return t.c.next }
