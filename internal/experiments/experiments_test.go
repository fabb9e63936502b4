package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/sim"
)

func TestFigure5Shape(t *testing.T) {
	res := Figure5(io.Discard)
	if len(res.Points) < 8 {
		t.Fatalf("too few points: %d", len(res.Points))
	}
	for _, p := range res.Points {
		// Paper: the first-HMC policy costs at most ~15% more traffic than
		// the oracle, and both normalize below 1 (some accesses are local).
		if p.Ratio > 1.16 {
			t.Fatalf("n=%d: first/optimal = %.3f, paper bound ~1.15", p.N, p.Ratio)
		}
		if p.First > 1 || p.Optimal > p.First {
			t.Fatalf("n=%d: inconsistent traffic first=%.3f opt=%.3f", p.N, p.First, p.Optimal)
		}
	}
	// The gap peaks at small access counts (>1) and diminishes as accesses
	// grow (the converging curves of Figure 5; at n=1 the policies agree).
	peak := 0.0
	for _, p := range res.Points {
		if p.Ratio > peak {
			peak = p.Ratio
		}
	}
	last := res.Points[len(res.Points)-1]
	if peak <= 1.01 {
		t.Fatalf("no policy gap observed (peak %.3f)", peak)
	}
	if last.Ratio >= peak {
		t.Fatalf("gap did not converge: peak %.3f, final %.3f", peak, last.Ratio)
	}
	// With many random accesses both approach 7/8 (the all-remote fraction).
	if last.First < 0.8 || last.First > 0.92 {
		t.Fatalf("asymptote = %.3f, want ~0.875", last.First)
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, config.Default(), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, wl := range Workloads() {
		if !strings.Contains(out, wl) {
			t.Fatalf("Table 1 missing %s:\n%s", wl, out)
		}
	}
	if !strings.Contains(out, "avg registers per block") {
		t.Fatal("Table 1 missing register-transfer summary")
	}
}

func TestTable2Renders(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf, config.Default())
	for _, want := range []string{"64 SMs", "16 vaults", "350 MHz", "hypercube"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, buf.String())
		}
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	Overhead(&buf, config.Default())
	if !strings.Contains(buf.String(), "2.84 KB") {
		t.Fatalf("§7.5 storage should be 2.84 KB:\n%s", buf.String())
	}
}

func TestRunOneSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	r := RunOne(cfg, "VADD", sim.DynCache, 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.TimePS <= 0 || r.Energy.Total() <= 0 {
		t.Fatalf("bad run result: %+v", r)
	}
	base := RunOne(cfg, "VADD", sim.Baseline, 1)
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	if s := base.Speedup(base); s != 1 {
		t.Fatalf("self speedup = %v", s)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean = %v, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

// TestRunAll: runAll runs each job exactly once, never more than Jobs at a
// time, and files each result under its workload|mode key.
func TestRunAll(t *testing.T) {
	defer func(exec func(config.Config, string, sim.Mode, int) *Run, jobs int) {
		Exec, Jobs = exec, jobs
	}(Exec, Jobs)
	Jobs = 3
	var mu sync.Mutex
	running, peak := 0, 0
	calls := map[string]int{}
	Exec = func(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run {
		mu.Lock()
		calls[abbr+"|"+mode.Name]++
		running++
		peak = max(peak, running)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return &Run{Workload: abbr, Mode: mode.Name}
	}
	var jobs []job
	for i := 0; i < 10; i++ {
		for _, mode := range []sim.Mode{sim.Baseline, sim.NaiveNDP} {
			jobs = append(jobs, job{workload: fmt.Sprintf("W%d", i), mode: mode, cfg: config.Default()})
		}
	}
	runs := runAll(jobs, 1)
	if peak > Jobs {
		t.Fatalf("%d jobs ran at once, want at most %d", peak, Jobs)
	}
	if len(runs) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(runs), len(jobs))
	}
	for _, j := range jobs {
		key := j.workload + "|" + j.mode.Name
		if calls[key] != 1 {
			t.Errorf("%s ran %d times, want 1", key, calls[key])
		}
		if r := runs[key]; r == nil || r.Workload != j.workload || r.Mode != j.mode.Name {
			t.Errorf("result under %s: %+v", key, r)
		}
	}
}

// TestDecideOncePerInstance: a block instance stalled at OFLD.BEG by a full
// pending buffer retries the decision it drew, so each instance is decided
// (and counted as seen) once and the static ratio holds. With one pending
// entry VADD stalls there often; its 8 192 warps each run one instance.
func TestDecideOncePerInstance(t *testing.T) {
	cfg := config.Default()
	cfg.NDP.PendingEntries = 1
	r := RunOne(cfg, "VADD", sim.StaticNDP(0.6), 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	st := r.Stats
	if st.PendingBufStalls == 0 {
		t.Fatal("no pending-buffer stall: the test does not reach the retry path")
	}
	if st.OffloadBlocksSeen != 8192 {
		t.Fatalf("blocks seen = %d, want 8192 (one per instance)", st.OffloadBlocksSeen)
	}
	if frac := float64(st.OffloadBlocksOffloaded) / float64(st.OffloadBlocksSeen); frac < 0.55 || frac > 0.65 {
		t.Fatalf("offloaded fraction = %.3f, want about 0.6", frac)
	}
}
