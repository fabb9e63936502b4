package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"

	"ndpgpu/internal/timing"
)

func TestCollectorKinds(t *testing.T) {
	c := New(10, 100)
	var total, gauge, num, den float64
	c.Counter("cnt", "t", "u", func() float64 { return total })
	c.Gauge("g", "t", "u", func() float64 { return gauge })
	c.Rate("r", "t", "u", 1, func() float64 { return num }, func() float64 { return den })
	c.TimeRate("tr", "t", "u", 2, func() float64 { return total })

	total, gauge, num, den = 10, 3, 5, 10
	c.Sample(1000) // dt = 1000
	total, gauge, num, den = 25, 7, 5, 10
	c.Sample(2000) // dt = 1000, Δnum/Δden = 0/0

	r := c.Snapshot()
	want := map[string][]float64{
		"cnt": {10, 15},
		"g":   {3, 7},
		"r":   {0.5, 0}, // Δden = 0 on the second interval → 0, not NaN
		"tr":  {2 * 10 / 1000.0, 2 * 15 / 1000.0},
	}
	for _, s := range r.Series {
		w := want[s.Name]
		if len(s.Samples) != len(w) {
			t.Fatalf("%s: %d samples, want %d", s.Name, len(s.Samples), len(w))
		}
		for i := range w {
			if s.Samples[i] != w[i] {
				t.Errorf("%s[%d] = %g, want %g", s.Name, i, s.Samples[i], w[i])
			}
		}
	}
}

func TestTickerSamplesOnInterval(t *testing.T) {
	c := New(4, 10)
	var v float64
	c.Gauge("g", "t", "u", func() float64 { return v })
	tk := c.Ticker()
	for cyc := int64(1); cyc <= 10; cyc++ {
		v = float64(cyc)
		tk.Tick(timing.PS(cyc * 10))
	}
	r := c.Snapshot()
	if got := r.Series[0].Samples; len(got) != 2 || got[0] != 4 || got[1] != 8 {
		t.Fatalf("samples = %v, want [4 8]", got)
	}
	// Next boundary from cycle 10 is cycle 12 → 120 ps.
	if at := tk.NextWorkAt(100); at != 120 {
		t.Fatalf("NextWorkAt = %d, want 120", at)
	}
	// Skip the edge at cycle 11, then tick the boundary.
	v = 99
	tk.Tick(120)
	r = c.Snapshot()
	if got := r.Series[0].Samples; len(got) != 3 || got[2] != 99 {
		t.Fatalf("post-skip samples = %v, want third sample 99", got)
	}
}

func TestFinalDeduplicates(t *testing.T) {
	c := New(5, 10)
	c.Gauge("g", "t", "u", func() float64 { return 1 })
	c.Sample(50)
	c.Final(50) // same timestamp: must not double-sample
	if n := len(c.Snapshot().TimesPS); n != 1 {
		t.Fatalf("samples after Final at same time = %d, want 1", n)
	}
	c.Final(70)
	if n := len(c.Snapshot().TimesPS); n != 2 {
		t.Fatalf("samples after Final at later time = %d, want 2", n)
	}
}

func TestSpansBoundedAndCounted(t *testing.T) {
	c := New(1, 1)
	for i := 0; i < maxSpans+7; i++ {
		c.OffloadSpan(1, 2, 3, timing.PS(i), 10)
	}
	r := c.Snapshot()
	if len(r.Spans) != maxSpans {
		t.Fatalf("spans = %d, want cap %d", len(r.Spans), maxSpans)
	}
	if r.SpansDropped != 7 {
		t.Fatalf("dropped = %d, want 7", r.SpansDropped)
	}
	if r.Spans[0].Name != "offload sm1/w2 blk3" {
		t.Fatalf("span name = %q", r.Spans[0].Name)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	c := New(2, 10)
	c.SetMeta("workload", "VADD")
	c.Gauge("g", "track", "u", func() float64 { return 42 })
	c.Sample(20)
	c.OffloadSpan(0, 1, 2, 5, 15)

	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var r Run
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != Schema || r.Meta["workload"] != "VADD" ||
		len(r.Series) != 1 || r.Series[0].Samples[0] != 42 ||
		len(r.Spans) != 1 || r.Spans[0].DurPS != 15 {
		t.Fatalf("round trip lost data: %+v", r)
	}

	// Determinism: two snapshots of the same collector are byte-identical.
	var buf2 bytes.Buffer
	if err := c.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot export not byte-deterministic")
	}
}

func TestWriteCSV(t *testing.T) {
	c := New(2, 10)
	c.Gauge("a", "t", "u", func() float64 { return 1 })
	c.Gauge("b", "t", "u", func() float64 { return 2.5 })
	c.Sample(20)
	c.Sample(40)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "time_ps,a,b\n20,1,2.5\n40,1,2.5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWriteChrome(t *testing.T) {
	c := New(2, 10)
	c.Gauge("g", "track", "u", func() float64 { return 3 })
	c.Sample(20)
	c.OffloadSpan(1, 0, 0, 100, 50)
	var buf bytes.Buffer
	if err := c.Snapshot().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var sawCounter, sawSpan bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "C":
			sawCounter = true
			if ev["name"] != "track/g" {
				t.Errorf("counter name = %v", ev["name"])
			}
		case "X":
			sawSpan = true
			if ev["dur"].(float64) != 50/1e6 {
				t.Errorf("span dur = %v", ev["dur"])
			}
			if ev["tid"].(float64) != 1 {
				t.Errorf("span tid = %v, want issuing SM", ev["tid"])
			}
		}
	}
	if !sawCounter || !sawSpan {
		t.Fatalf("chrome trace missing events: counter=%v span=%v", sawCounter, sawSpan)
	}
}

func TestParseFormat(t *testing.T) {
	cases := []struct {
		name, path string
		want       Format
		err        bool
	}{
		{"json", "x", FormatJSON, false},
		{"csv", "x", FormatCSV, false},
		{"chrome", "x", FormatChrome, false},
		{"", "out.csv", FormatCSV, false},
		{"", "out.json", FormatJSON, false},
		{"", "out", FormatJSON, false},
		{"xml", "x", "", true},
	}
	for _, c := range cases {
		got, err := ParseFormat(c.name, c.path)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseFormat(%q,%q) = %v, %v", c.name, c.path, got, err)
		}
	}
}

func TestDiffJSON(t *testing.T) {
	a := []byte(`{"x": 100, "nested": {"y": [1, 2], "flag": true}, "name": "run"}`)
	same := []byte(`{"x": 100, "nested": {"y": [1, 2], "flag": true}, "name": "other"}`)
	drifted := []byte(`{"x": 103, "nested": {"y": [1, 5], "flag": false}}`)

	// Identical numerics (string leaves are ignored): no drift.
	if ds, err := DiffJSON(a, same, Tolerances{}); err != nil || len(ds) != 0 {
		t.Fatalf("self diff = %v, %v", ds, err)
	}

	// Perturbed: x (rel 0.03), y[1] (rel 0.6), flag (1→0), missing name is a
	// string so never reported.
	ds, err := DiffJSON(a, drifted, Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("drifts = %v, want 3", ds)
	}

	// Tolerance swallows the small x drift, not the big y drift.
	ds, err = DiffJSON(a, drifted, Tolerances{Default: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Path == "x" {
			t.Fatalf("x (rel 0.03) survived tolerance 0.05: %v", ds)
		}
	}

	// Longest-prefix tolerance wins.
	ds, err = DiffJSON(a, drifted, Tolerances{
		Default:  0,
		ByPrefix: map[string]float64{"nested": 0, "nested.y": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if strings.HasPrefix(d.Path, "nested.y") {
			t.Fatalf("nested.y should take the longer prefix's tolerance: %v", ds)
		}
	}

	// Missing numeric keys are drift regardless of tolerance.
	ds, err = DiffJSON([]byte(`{"a": 1}`), []byte(`{"b": 1}`), Tolerances{Default: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Missing == "" || ds[1].Missing == "" {
		t.Fatalf("missing-key drifts = %v", ds)
	}
}

func TestSparkline(t *testing.T) {
	// One glyph per sample when the series fits.
	s := Sparkline([]float64{0, 1, 2, 3}, 10)
	if utf8.RuneCountInString(s) != 4 {
		t.Fatalf("short series width = %d, want 4", utf8.RuneCountInString(s))
	}
	if []rune(s)[0] != sparkBlocks[0] || []rune(s)[3] != sparkBlocks[len(sparkBlocks)-1] {
		t.Fatalf("ramp not normalized min..max: %q", s)
	}
	// Downsampled to the requested width.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	if got := utf8.RuneCountInString(Sparkline(long, 60)); got != 60 {
		t.Fatalf("downsampled width = %d, want 60", got)
	}
	// Flat and empty series render as a low bar, not a crash.
	for _, samples := range [][]float64{nil, {5, 5, 5}} {
		s := Sparkline(samples, 8)
		for _, r := range s {
			if r != sparkBlocks[0] {
				t.Fatalf("flat series rendered %q", s)
			}
		}
	}
}

func TestNewRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, ...) did not panic")
		}
	}()
	New(0, 10)
}
