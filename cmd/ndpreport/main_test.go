package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	a := write(t, dir, "a.json", `{"x": 100, "y": {"z": [1, 2]}}`)
	same := write(t, dir, "same.json", `{"x": 100, "y": {"z": [1, 2]}}`)
	drift := write(t, dir, "drift.json", `{"x": 150, "y": {"z": [1, 2]}}`)

	var out, errBuf bytes.Buffer
	if code := run([]string{"diff", a, same}, &out, &errBuf); code != 0 {
		t.Fatalf("self diff exit = %d, want 0 (%s)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "no drift") {
		t.Fatalf("missing no-drift message: %s", out.String())
	}

	out.Reset()
	if code := run([]string{"diff", a, drift}, &out, &errBuf); code != 1 {
		t.Fatalf("perturbed diff exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "x") {
		t.Fatalf("drift report missing the path: %s", out.String())
	}

	// Tolerance big enough swallows the drift.
	out.Reset()
	if code := run([]string{"diff", "-tol", "0.5", a, drift}, &out, &errBuf); code != 0 {
		t.Fatalf("tolerated diff exit = %d, want 0", code)
	}

	// Usage errors exit 2.
	if code := run([]string{"diff", a}, &out, &errBuf); code != 2 {
		t.Fatalf("missing-arg exit = %d, want 2", code)
	}
	if code := run([]string{"nonsense"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad subcommand exit = %d, want 2", code)
	}
}

func TestBenchgate(t *testing.T) {
	dir := t.TempDir()
	ref := write(t, dir, "ref.json", `{"macro": {"serial_ns_per_op": 1000000}}`)
	ok := write(t, dir, "ok.txt",
		"goos: linux\nBenchmarkSingleRunVADD-8   \t5\t1100000 ns/op\t10 B/op\nPASS\n")
	slow := write(t, dir, "slow.txt",
		"BenchmarkSingleRunVADD-8   \t5\t1300000 ns/op\nPASS\n")
	fast := write(t, dir, "fast.txt",
		"BenchmarkSingleRunVADD   \t5\t100000 ns/op\nPASS\n")

	var out, errBuf bytes.Buffer
	if code := run([]string{"benchgate", "-bench", ok, "-ref", ref}, &out, &errBuf); code != 0 {
		t.Fatalf("within-slack exit = %d, want 0 (%s %s)", code, out.String(), errBuf.String())
	}

	out.Reset()
	if code := run([]string{"benchgate", "-bench", slow, "-ref", ref}, &out, &errBuf); code != 1 {
		t.Fatalf("slow exit = %d, want 1 (%s)", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL verdict: %s", out.String())
	}

	// Faster than the slack only warns — a faster host must not break CI.
	out.Reset()
	if code := run([]string{"benchgate", "-bench", fast, "-ref", ref}, &out, &errBuf); code != 0 {
		t.Fatalf("fast exit = %d, want 0 (%s)", code, out.String())
	}
	if !strings.Contains(out.String(), "refreshing") {
		t.Fatalf("missing refresh hint: %s", out.String())
	}

	// Missing benchmark line is a usage-level failure.
	empty := write(t, dir, "empty.txt", "PASS\n")
	if code := run([]string{"benchgate", "-bench", empty, "-ref", ref}, &out, &errBuf); code != 2 {
		t.Fatalf("missing-result exit = %d, want 2", code)
	}
}

// TestBenchgateDefaultRef runs the gate from the repository root without
// -ref: it must pick up the current reference record, which carries
// allocs/op, so the allocation gate is engaged. A result equal to the
// record's own numbers passes on any host.
func TestBenchgateDefaultRef(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	data, err := os.ReadFile("BENCH_pr9.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchRefDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Host == nil || doc.Macro.SerialAllocsPerOp <= 0 {
		t.Fatal("BENCH_pr9.json lacks a host fingerprint or allocs/op")
	}
	bench := write(t, t.TempDir(), "bench.txt", fmt.Sprintf(
		"BenchmarkSingleRunVADD-2 \t1\t%.0f ns/op\t1 B/op\t%.0f allocs/op\nPASS\n",
		doc.Macro.SerialNsPerOp, doc.Macro.SerialAllocsPerOp))

	var out, errBuf bytes.Buffer
	if code := run([]string{"benchgate", "-bench", bench}, &out, &errBuf); code != 0 {
		t.Fatalf("default-ref exit = %d, want 0 (%s %s)", code, out.String(), errBuf.String())
	}
	want := fmt.Sprintf("allocs/op vs reference %.0f allocs/op", doc.Macro.SerialAllocsPerOp)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("alloc gate not engaged against BENCH_pr9.json: %s", out.String())
	}
}

func TestBenchgateAllocGate(t *testing.T) {
	dir := t.TempDir()
	ref := write(t, dir, "ref.json",
		`{"macro": {"serial_ns_per_op": 1000000, "serial_allocs_per_op": 1000}}`)
	// Custom metrics between ns/op and the -benchmem columns must not hide them.
	good := write(t, dir, "good.txt",
		"BenchmarkSingleRunVADD-8 \t5\t1000000 ns/op\t16.58 simulated-us\t500000 B/op\t1050 allocs/op\nPASS\n")
	bloat := write(t, dir, "bloat.txt",
		"BenchmarkSingleRunVADD-8 \t5\t1000000 ns/op\t500000 B/op\t1200 allocs/op\nPASS\n")

	var out, errBuf bytes.Buffer
	if code := run([]string{"benchgate", "-bench", good, "-ref", ref}, &out, &errBuf); code != 0 {
		t.Fatalf("within-alloc-slack exit = %d, want 0 (%s)", code, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op") {
		t.Fatalf("alloc comparison not reported: %s", out.String())
	}

	out.Reset()
	if code := run([]string{"benchgate", "-bench", bloat, "-ref", ref}, &out, &errBuf); code != 1 {
		t.Fatalf("alloc-regression exit = %d, want 1 (%s)", code, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op regressed") {
		t.Fatalf("missing alloc FAIL verdict: %s", out.String())
	}
}

func TestBenchgateFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	// A reference from a fictitious host: the wall-clock gate must relax to
	// report-only, so a huge slowdown still exits 0 with a loud warning. The
	// alloc gate relaxes too only because the Go version also differs.
	ref := write(t, dir, "ref.json", `{
		"host": {"cpu_model": "Imaginary CPU X1", "nproc": 999, "go_version": "go0.0.0"},
		"macro": {"serial_ns_per_op": 1000, "serial_allocs_per_op": 10}}`)
	slow := write(t, dir, "slow.txt",
		"BenchmarkSingleRunVADD-8 \t5\t90000000 ns/op\t1 B/op\t500 allocs/op\nPASS\n")

	var out, errBuf bytes.Buffer
	if code := run([]string{"benchgate", "-bench", slow, "-ref", ref}, &out, &errBuf); code != 0 {
		t.Fatalf("mismatched-host exit = %d, want 0 (%s)", code, out.String())
	}
	for _, want := range []string{"fingerprint mismatch", "REPORT-ONLY", "toolchain differs"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in report-only output: %s", want, out.String())
		}
	}
}

func TestBenchHistory(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_pr1.json",
		`{"macro": {"after": {"ns_per_op": 2000, "allocs_per_op": 50, "bytes_per_op": 4000000}}}`)
	write(t, dir, "BENCH_pr2.json",
		`{"macro": {"pr1_after": {"ns_per_op": 2000}, "pr2": {"ns_per_op": 1000, "allocs_per_op": 40}}}`)
	write(t, dir, "BENCH_pr10.json", `{
		"host": {"cpu_model": "CPU A", "nproc": 4, "go_version": "go1.24.0"},
		"macro": {"serial_ns_per_op": 500, "serial_allocs_per_op": 30}}`)

	var out, errBuf bytes.Buffer
	if code := run([]string{"bench-history", "-dir", dir}, &out, &errBuf); code != 0 {
		t.Fatalf("bench-history exit = %d, want 0 (%s)", code, errBuf.String())
	}
	got := out.String()
	// Numeric PR order, not lexical: pr1, pr2, pr10.
	i1 := strings.Index(got, "BENCH_pr1.json")
	i2 := strings.Index(got, "BENCH_pr2.json")
	i10 := strings.Index(got, "BENCH_pr10.json")
	if i1 < 0 || i2 < 0 || i10 < 0 || !(i1 < i2 && i2 < i10) {
		t.Fatalf("rows missing or out of numeric PR order:\n%s", got)
	}
	// Schema archaeology: pr1 uses macro.after, pr2 prefers its own prN tag,
	// pr10 the modern serial_* leaves. Step speedups follow 2000->1000->500.
	for _, want := range []string{"2.00x", "4.00x", "CPU A"} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in history table:\n%s", want, got)
		}
	}
}

func TestShowRendersMetricsRun(t *testing.T) {
	dir := t.TempDir()
	runJSON := write(t, dir, "run.json", `{
 "schema": "ndpgpu-metrics/1",
 "meta": {"workload": "VADD"},
 "interval_cycles": 2048,
 "period_ps": 1428,
 "times_ps": [1000, 2000, 3000],
 "series": [
  {"name": "ratio", "track": "controller", "unit": "fraction", "kind": "gauge", "samples": [0.1, 0.5, 0.9]}
 ],
 "spans": [{"name": "offload sm0/w0 blk1", "tid": 0, "start_ps": 100, "dur_ps": 500}]
}`)
	var out, errBuf bytes.Buffer
	if code := run([]string{"show", runJSON}, &out, &errBuf); code != 0 {
		t.Fatalf("show exit = %d (%s)", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"controller/ratio", "workload=VADD", "1 offload round trips"} {
		if !strings.Contains(s, want) {
			t.Fatalf("show output missing %q:\n%s", want, s)
		}
	}

	bad := write(t, dir, "bad.json", `{"schema": "other/1"}`)
	if code := run([]string{"show", bad}, &out, &errBuf); code != 2 {
		t.Fatalf("wrong-schema exit = %d, want 2", code)
	}
}
