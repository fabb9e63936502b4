package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// leg or one request share an ID.
type span struct {
	ID      string         `json:"id"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"` // since the tracer started
	EndUS   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written out once, at the end. A
// nil tracer records nothing, so the untraced path pays one nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) record(id, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Name: name,
		StartUS: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3,
		Attrs:   attrs,
	})
}

// traceWindow is a traced measurement: a CPU profile plus Go runtime
// counters over the window.
type traceWindow struct {
	buf bytes.Buffer
	ms0 runtime.MemStats
}

func startTraceWindow() (*traceWindow, error) {
	w := &traceWindow{}
	runtime.ReadMemStats(&w.ms0)
	if err := pprof.StartCPUProfile(&w.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return w, nil
}

// traceResult is what a traced window measured about the host.
type traceResult struct {
	profile   *cpuProfile
	raw       []byte
	gcCycles  uint32
	gcPauseNS uint64
	mallocs   uint64
}

func (w *traceWindow) stop() (*traceResult, error) {
	pprof.StopCPUProfile()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p, err := parseProfile(w.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &traceResult{
		profile:   p,
		raw:       w.buf.Bytes(),
		gcCycles:  ms1.NumGC - w.ms0.NumGC,
		gcPauseNS: ms1.PauseTotalNs - w.ms0.PauseTotalNs,
		mallocs:   ms1.Mallocs - w.ms0.Mallocs,
	}, nil
}

// cpuLayers names the layers whose self-time share is a per-layer metric.
var cpuLayers = []string{
	"workloads", "vm", "timing", "gpu", "isa", "cache", "dram", "hmc",
	"noc", "nsu", "core", "fault", "runtime", "serve", "stdlib",
}

// layerMetrics turns a traced window into the per-layer host metrics.
func (r *traceResult) layerMetrics(add func(name string, v float64)) {
	shares := r.profile.layerShares()
	for _, l := range cpuLayers {
		add(l+".cpu_pct", shares[l])
	}
	add("runtime.gc_cycles", float64(r.gcCycles))
	add("runtime.gc_pause_ms", float64(r.gcPauseNS)/1e6)
	add("runtime.kallocs", float64(r.mallocs)/1e3)
}

// traceFile is the traced run's output, written once at the end.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Host         host               `json:"host"`
	Metrics      map[string]float64 `json:"per_layer"`
	CPUByLayer   map[string]float64 `json:"cpu_pct_by_layer"`
	TopFunctions []funcShare        `json:"top_functions"`
	Spans        []span             `json:"spans"`
}

// writeTrace writes the traced run's spans and profile under dir and
// returns the path of the JSON file.
func writeTrace(dir string, tf *traceFile, t *tracer, r *traceResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", tf.Workload, tf.Seed))
	if err := os.WriteFile(base+".cpu.pb.gz", r.raw, 0o644); err != nil {
		return "", err
	}
	tf.CPUByLayer = r.profile.layerShares()
	tf.TopFunctions = r.profile.top(20)
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	data, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return "", err
	}
	return base + ".json", os.WriteFile(base+".json", data, 0o644)
}
