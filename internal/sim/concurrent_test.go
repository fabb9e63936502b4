package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ndpgpu/internal/config"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// The tests in this file pin the contract that ndpsweep -j and the ndpserve
// worker pool rely on: simulations are independent, so a leg run on a
// goroutine next to other legs is bit-identical to the same leg run alone.
// Any mutable state shared between machines (a package-level cache, a
// global PRNG, a fault injector or backend that leaks across launches)
// breaks it.

// parWidth is how many legs run at once. It is pinned above one so that
// every host, single-CPU ones included, interleaves real machines.
const parWidth = 4

// parCase is one leg: a workload under a mode and configuration, with the
// auditor and the metrics collector optionally attached.
type parCase struct {
	name    string
	abbr    string
	mode    Mode
	cfg     config.Config
	audit   bool
	metrics bool
}

// parLeg captures everything a run can externally observe: the final memory
// image, the complete statistics bundle, the cycle count, the violation
// count when auditing, and the metrics export when collecting.
type parLeg struct {
	mem        []byte
	st         *stats.Stats
	cycles     int64
	violations int64
	export     []byte
}

// runParLeg runs one leg and verifies its functional output against the
// host reference. It reports failures as errors so that it can run off the
// test goroutine.
func runParLeg(c parCase) (parLeg, error) {
	mem := vm.New(c.cfg)
	w, err := workloads.Build(c.abbr, mem, 1)
	if err != nil {
		return parLeg{}, err
	}
	m, err := Launch(c.cfg, w.Kernel, mem, c.mode)
	if err != nil {
		return parLeg{}, fmt.Errorf("%s: Launch: %v", c.name, err)
	}
	var aud interface{ Count() int64 }
	if c.audit {
		aud = m.EnableAudit()
	}
	if c.metrics {
		m.EnableMetrics(0)
	}
	res, err := m.Run(0)
	if err != nil {
		return parLeg{}, fmt.Errorf("%s: Run: %v", c.name, err)
	}
	if err := w.Verify(); err != nil {
		return parLeg{}, fmt.Errorf("%s: verification failed: %v", c.name, err)
	}
	leg := parLeg{mem: mem.Snapshot(), st: res.Stats, cycles: res.Cycles}
	if aud != nil {
		leg.violations = aud.Count()
	}
	if c.metrics {
		var buf bytes.Buffer
		if err := m.Metrics().Snapshot().WriteJSON(&buf); err != nil {
			return parLeg{}, err
		}
		leg.export = buf.Bytes()
	}
	return leg, nil
}

// runConcurrent runs every case on its own goroutine and machine, at most
// parWidth at a time. Results are index-addressed like experiments.runAll's.
func runConcurrent(cases []parCase) ([]parLeg, []error) {
	legs := make([]parLeg, len(cases))
	errs := make([]error, len(cases))
	sem := make(chan struct{}, parWidth)
	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			legs[i], errs[i] = runParLeg(cases[i])
		}(i)
	}
	wg.Wait()
	return legs, errs
}

// requireIdentical asserts bit-identity of two legs: same cycle count, same
// final memory image, every statistics counter equal, same violation count
// and same metrics export.
func requireIdentical(t *testing.T, name string, alone, conc parLeg) {
	t.Helper()
	if alone.cycles != conc.cycles {
		t.Errorf("%s: cycles diverge: alone=%d concurrent=%d", name, alone.cycles, conc.cycles)
	}
	if !bytes.Equal(alone.mem, conc.mem) {
		t.Errorf("%s: final memory images differ", name)
	}
	if !reflect.DeepEqual(alone.st, conc.st) {
		t.Errorf("%s: statistics diverge:\nalone:      %+v\nconcurrent: %+v", name, alone.st, conc.st)
	}
	if alone.violations != conc.violations {
		t.Errorf("%s: audit violations diverge: alone=%d concurrent=%d", name, alone.violations, conc.violations)
	}
	if !bytes.Equal(alone.export, conc.export) {
		t.Errorf("%s: metrics export differs", name)
	}
}

// checkConcurrent runs the cases concurrently, then each one alone in a
// subtest of its name, and requires the two runs of every case to agree.
// check, when non-nil, adds per-leg assertions on the lone run.
func checkConcurrent(t *testing.T, cases []parCase, check func(t *testing.T, c parCase, leg parLeg)) {
	t.Helper()
	conc, errs := runConcurrent(cases)
	for i, c := range cases {
		i, c := i, c
		t.Run(c.name, func(t *testing.T) {
			if errs[i] != nil {
				t.Fatalf("concurrent run: %v", errs[i])
			}
			alone, err := runParLeg(c)
			if err != nil {
				t.Fatalf("lone run: %v", err)
			}
			requireIdentical(t, c.name, alone, conc[i])
			if check != nil {
				check(t, c, alone)
			}
		})
	}
}

// TestParallelEquivalence runs every workload x mode leg concurrently with
// its neighbours and requires each to be bit-identical to the same leg run
// alone. The modes cover every decider kind: Never/Always, Dynamic (seeded
// PRNG draws) and CacheAware (profile-filtered decisions).
func TestParallelEquivalence(t *testing.T) {
	cfg := smallConfig()
	wls := workloads.Abbrs()
	if testing.Short() {
		wls = []string{"VADD", "BFS"}
	}
	var cases []parCase
	for _, abbr := range wls {
		for _, mode := range []Mode{Baseline, NaiveNDP, DynCache} {
			cases = append(cases, parCase{name: abbr + "/" + mode.Name, abbr: abbr, mode: mode, cfg: cfg})
		}
	}
	// Plain Dynamic (no cache filter): PRNG draws without profile filtering.
	cases = append(cases, parCase{name: "VADD/NDP(Dyn)", abbr: "VADD", mode: DynNDP, cfg: cfg})
	checkConcurrent(t, cases, nil)
}

// TestParallelEquivalenceAudited runs audited legs concurrently: each
// auditor must observe only its own machine, so every leg reports zero
// violations and matches its lone run.
func TestParallelEquivalenceAudited(t *testing.T) {
	cfg := AuditConfig()
	var cases []parCase
	for _, mode := range AuditModes {
		cases = append(cases, parCase{name: "VADD/" + mode.Name, abbr: "VADD", mode: mode, cfg: cfg, audit: true})
	}
	checkConcurrent(t, cases, func(t *testing.T, c parCase, leg parLeg) {
		if leg.violations != 0 {
			t.Errorf("%d audit violations, want 0", leg.violations)
		}
	})
}

// TestParallelEquivalenceChaos runs every pinned fault schedule concurrently
// with auditing on: each machine's injector and recovery decisions must be
// its own, so every leg reproduces its lone run bit for bit.
func TestParallelEquivalenceChaos(t *testing.T) {
	base := AuditConfig()
	var cases []parCase
	for _, s := range PinnedSchedules() {
		fc, err := ChaosFaultConfig(base, s.Spec)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		cfg := base
		cfg.Fault = fc
		cases = append(cases, parCase{name: s.Name, abbr: "VADD", mode: NaiveNDP, cfg: cfg, audit: true})
	}
	checkConcurrent(t, cases, func(t *testing.T, c parCase, leg parLeg) {
		if leg.violations != 0 {
			t.Errorf("%d audit violations, want 0", leg.violations)
		}
		if c.name == "frozen-vault" && leg.st.OffloadTimeouts == 0 {
			t.Error("frozen-vault leg fired no timeouts; schedule inert")
		}
	})
}

// TestBackendParallelEquivalence extends the contract to the architecture
// backends: CODA placement traces a pre-pass on a memory clone and NDPage
// keeps per-stack translation state, and neither may leak between machines.
func TestBackendParallelEquivalence(t *testing.T) {
	var cases []parCase
	for _, arch := range []string{"coda", "ndpage"} {
		cfg := smallConfig()
		cfg.Arch.Backend = arch
		cases = append(cases, parCase{name: arch, abbr: "VADD", mode: NaiveNDP, cfg: cfg})
	}
	checkConcurrent(t, cases, nil)
}

// TestMetricsSerialParallelIdentity requires the enabled collector to export
// byte-identical JSON for a leg run alone and the same leg run concurrently
// with others: samples, timestamps, span order, everything.
func TestMetricsSerialParallelIdentity(t *testing.T) {
	cfg := AuditConfig()
	var cases []parCase
	for _, mode := range []Mode{NaiveNDP, DynNDP} {
		for k := 0; k < 2; k++ {
			cases = append(cases, parCase{
				name: fmt.Sprintf("%s/%d", mode.Name, k), abbr: "VADD", mode: mode, cfg: cfg, metrics: true,
			})
		}
	}
	checkConcurrent(t, cases, func(t *testing.T, c parCase, leg parLeg) {
		if len(leg.export) == 0 {
			t.Error("empty metrics export")
		}
	})
}
