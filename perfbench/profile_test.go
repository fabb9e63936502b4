package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"ndpgpu/internal/gpu.(*SM).coalesce":        "gpu",
		"ndpgpu/internal/gpu.(*SM).setupMem.func1":  "gpu",
		"ndpgpu/internal/timing.(*Wheel).Next":      "timing",
		"ndpgpu/internal/serve.(*Scheduler).submit": "serve",
		"main.runLeg":                                          "bench",
		"ndpgpu/perfbench.runLeg":                              "bench",
		"runtime.mallocgc":                                     "runtime",
		"runtime/internal/syscall.Syscall6":                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"encoding/json.(*encodeState).marshal":                 "stdlib",
		"net/http.(*conn).serve":                               "stdlib",
		"reflect.Value.Field":                                  "stdlib",
		"slices.SortFunc[go.shape.[]ndpgpu/internal/gpu.T,go]": "stdlib",
		"ndpgpu/internal/noc.send[go.shape.int]":               "noc",
		"[unknown]":                                            "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(field int, fn func(*pb)) {
	var m pb
	fn(&m)
	p.bytes(field, m.b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.varint(v)
	}
	p.bytes(field, m.b)
}

func TestParseProfileAttributesSelfTime(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"ndpgpu/internal/gpu.(*SM).coalesce", "ndpgpu/internal/gpu.(*SM).tick",
		"runtime.mallocgc", "encoding/json.(*encodeState).marshal", "main.main"}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) }) // samples/count
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) }) // cpu/nanoseconds
	// Sample 1: coalesce inlined into tick, called from main: packed ids.
	p.msg(2, func(m *pb) { m.packed(1, 1, 4); m.packed(2, 3, 30) })
	// Sample 2: mallocgc, ids and values unpacked.
	p.msg(2, func(m *pb) { m.uint(1, 2); m.uint(2, 1); m.uint(2, 10) })
	p.msg(2, func(m *pb) { m.packed(1, 3, 4); m.packed(2, 2, 20) })
	p.msg(2, func(m *pb) { m.packed(1, 4); m.packed(2, 4, 40) })
	// Location 1 carries two lines: the inlined callee (coalesce) first.
	p.msg(4, func(m *pb) {
		m.uint(1, 1)
		m.msg(4, func(l *pb) { l.uint(1, 1); l.uint(2, 10) })
		m.msg(4, func(l *pb) { l.uint(1, 2); l.uint(2, 20) })
	})
	for loc, fn := range map[uint64]uint64{2: 3, 3: 4, 4: 5} {
		p.msg(4, func(m *pb) { m.uint(1, loc); m.msg(4, func(l *pb) { l.uint(1, fn) }) })
	}
	for id := uint64(1); id <= 5; id++ {
		p.msg(5, func(m *pb) { m.uint(1, id); m.uint(2, id+4) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total != 100 {
		t.Fatalf("total = %d, want 100 (the cpu column)", prof.Total)
	}
	want := map[string]float64{"gpu": 30, "runtime": 10, "stdlib": 20, "bench": 40}
	got := prof.layerShares()
	for l, v := range want {
		if got[l] != v {
			t.Errorf("layer %s = %g%%, want %g%%", l, got[l], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	if top := prof.top(1); len(top) != 1 || top[0].Func != "main.main" || top[0].Pct != 40 {
		t.Errorf("top(1) = %+v, want main.main at 40%%", top)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input accepted")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // field 2, length 127, 1 byte present
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated message accepted")
	}
}

var sink uint64

// spin burns CPU in this package. It works on a local so that the race
// detector, when on, has no memory accesses to instrument.
func spin(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// A profile written by runtime/pprof decodes, and a busy loop in this
// package is charged to the benchmark's own layer.
func TestParseProfileRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total == 0 {
		t.Skip("no samples collected")
	}
	if share := prof.layerShares()["bench"]; share < 50 {
		t.Errorf("busy loop got %.1f%% of self time in the bench layer, want most of it; top: %+v", share, prof.top(5))
	}
}
