// Package experiments regenerates every table and figure of the paper's
// evaluation (§5-§7). Each Figure*/Table* function runs the required
// simulations (in parallel across workloads) and prints the same rows or
// series the paper reports. EXPERIMENTS.md records the measured outputs
// next to the paper's numbers.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndpgpu/internal/config"
	"ndpgpu/internal/energy"
	"ndpgpu/internal/serve"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/stats"
	"ndpgpu/internal/timing"
	"ndpgpu/internal/vm"
	"ndpgpu/internal/workloads"
)

// Workloads returns the evaluation suite in Table 1 order.
func Workloads() []string { return workloads.Abbrs() }

// Jobs bounds how many simulations runAll executes concurrently; 0 (the
// default) means GOMAXPROCS. Set once before running experiments (ndpsweep's
// -j flag); runAll reads it without synchronization.
var Jobs int

// Exec, when non-nil, replaces local execution for every RunOne call —
// ndpsweep's -server client mode points it at a running ndpserve instance
// (see UseServer). RunOneWith always executes locally: its prep hook hands
// out the assembled machine, which cannot cross the wire.
var Exec func(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run

// tally accumulates wall-clock cost across every RunOneWith call so sweeps
// can report per-run cost alongside the total (atomics for the hot counters,
// a mutex-guarded slice for the distribution: runs execute on the runAll
// worker pool).
var tally struct {
	runs   atomic.Int64
	wallNS atomic.Int64
	mu     sync.Mutex
	durs   []time.Duration
}

// RunTallyDetail reports how many simulations have completed in this
// process, their summed wall-clock time, the longest single run (the critical
// path a -j pool cannot shrink below) and the median run. Zero durations when
// no runs have completed.
func RunTallyDetail() (runs int64, total, max, p50 time.Duration) {
	runs = tally.runs.Load()
	total = time.Duration(tally.wallNS.Load())
	tally.mu.Lock()
	durs := make([]time.Duration, len(tally.durs))
	copy(durs, tally.durs)
	tally.mu.Unlock()
	if len(durs) == 0 {
		return runs, total, 0, 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return runs, total, durs[len(durs)-1], durs[len(durs)/2]
}

// Run is one completed simulation.
type Run struct {
	Workload string
	Mode     string
	Cfg      config.Config
	Stats    *stats.Stats
	TimePS   timing.PS
	Wall     time.Duration // host wall-clock time for this run
	Energy   stats.EnergyBreakdown
	Err      error
}

// Speedup returns base/this runtime.
func (r *Run) Speedup(base *Run) float64 {
	if r.TimePS == 0 {
		return 0
	}
	return float64(base.TimePS) / float64(r.TimePS)
}

// recordTally folds one completed run into the process-wide tally.
func recordTally(d time.Duration) {
	tally.runs.Add(1)
	tally.wallNS.Add(int64(d))
	tally.mu.Lock()
	tally.durs = append(tally.durs, d)
	tally.mu.Unlock()
}

// RunOne builds the workload, runs it under the mode, verifies the output,
// and computes energy — locally, or through the Exec seam when a remote
// executor is installed.
func RunOne(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run {
	if Exec != nil {
		start := time.Now()
		run := Exec(cfg, abbr, mode, scale)
		run.Wall = time.Since(start)
		recordTally(run.Wall)
		return run
	}
	return RunOneWith(cfg, abbr, mode, scale, nil)
}

// RunOneWith is RunOne with a hook applied to the assembled machine before
// it runs — used by the differential tests to toggle idle skipping and by
// callers that install tracers.
func RunOneWith(cfg config.Config, abbr string, mode sim.Mode, scale int, prep func(*sim.Machine)) *Run {
	run := &Run{Workload: abbr, Mode: mode.Name, Cfg: cfg}
	start := time.Now()
	defer func() {
		run.Wall = time.Since(start)
		recordTally(run.Wall)
	}()
	mem := vm.New(cfg)
	w, err := workloads.Build(abbr, mem, scale)
	if err != nil {
		run.Err = err
		return run
	}
	m, err := sim.Launch(cfg, w.Kernel, mem, mode)
	if err != nil {
		run.Err = err
		return run
	}
	if prep != nil {
		prep(m)
	}
	res, err := m.Run(0)
	if err != nil {
		run.Err = fmt.Errorf("%s/%s: %w", abbr, mode.Name, err)
		return run
	}
	if err := w.Verify(); err != nil {
		run.Err = fmt.Errorf("%s/%s: functional check: %w", abbr, mode.Name, err)
		return run
	}
	run.Stats = res.Stats
	run.TimePS = res.TimePS
	run.Energy = energy.Compute(res.Stats, cfg, energy.DefaultParams(), mode.NDP)
	return run
}

// job identifies one simulation to run.
type job struct {
	workload string
	mode     sim.Mode
	cfg      config.Config
}

// runAll executes the jobs on a bounded serve.Pool (each machine is
// independent) and returns results keyed by workload|mode. Tasks write into
// an index-addressed slice, so the result set is deterministic regardless of
// scheduling order. The pool type is the same one the ndpserve scheduler
// dispatches on — ndpsweep -j and the service share one implementation.
func runAll(jobs []job, scale int) map[string]*Run {
	runs := make([]*Run, len(jobs))
	workers := Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	pool := serve.NewPool(workers)
	for i := range jobs {
		i := i
		pool.Go(func() {
			j := jobs[i]
			runs[i] = RunOne(j.cfg, j.workload, j.mode, scale)
		})
	}
	pool.Close() // drain and join
	res := make(map[string]*Run, len(jobs))
	for i, j := range jobs {
		res[j.workload+"|"+j.mode.Name] = runs[i]
	}
	return res
}

func get(m map[string]*Run, wl, mode string) *Run { return m[wl+"|"+mode] }

// checkErrs returns the first error among runs.
func checkErrs(m map[string]*Run) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k].Err != nil {
			return m[k].Err
		}
	}
	return nil
}

// geomean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// header prints a table header row.
func header(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-8s", "")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}
