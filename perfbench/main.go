// Command perfbench is the repository's benchmark: it runs one workload of
// full simulations (or an in-process ndpserve under load), checks every
// output, and prints the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {"setup_s": {"value": 0.21, "unit": "s"}, ...}}
//
// Usage (from the repository root; see perfbench/README.md):
//
//	bash perfbench/run.sh --workload base-suite --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workDir holds everything a run writes (traces, the serve journal),
// relative to the directory the benchmark runs from.
const workDir = ".bench_build"

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string // extra lines for the human-readable summary
	refMS             float64  // median reference-kernel time; 0 when traced
}

func (r *result) add(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares for an
// untraced and a traced run; loadCatalog fills them at start-up. Every
// workload reports every one of them.
var endToEnd, perLayer []metricDef

// loadCatalog reads the metric lists from the BENCHMARK.json at path.
func loadCatalog(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	endToEnd, perLayer = bj.EndToEnd, bj.PerLayer
	return nil
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	host     host
}

var workloadNames = []string{"base-suite", "ndp-naive", "ndp-faults", "serve-mix"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, "|")+", or all of them in turn")
	seed := fs.Int64("seed", 1, "placement/decision seed and serve request-sequence seed")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		host:     fingerprint(),
	}

	if err := loadCatalog("BENCHMARK.json"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	var err error
	switch o.workload {
	case "all":
		return runAll(args, stdout, stderr)
	case "base-suite", "ndp-naive", "ndp-faults":
		res, err = runSim(o)
	case "serve-mix":
		res, err = runServe(o)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.host.LoadAfter = loadavg()
	o.host.RefMS = res.refMS
	if err := report(stdout, o, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runAll runs every workload with the same settings, each in a process of
// its own so that each measures its own peak memory, and passes their
// output through. It fails if any of them fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(self, append(args, "--workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the host fingerprint, a human-readable summary, and the
// result line.
func report(w io.Writer, o options, res *result) error {
	hostJSON, err := json.Marshal(o.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hostJSON)
	kind := "untraced"
	defs := endToEnd
	if o.traced {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "%s seed=%d %s: %d attempted, %d failed\n", o.workload, o.seed, kind, res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintln(w, "  FAIL", p)
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A latency made of failed requests; the run is already
			// incorrect, and JSON has no infinity.
			v = math.MaxFloat64
		}
		metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, " ", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(res.problems) == 0 && res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// finishTrace writes the traced run's file and notes where it went, with
// the top functions of the profile.
func finishTrace(o options, res *result, t *tracer, tr *traceResult) error {
	tf := &traceFile{Workload: o.workload, Seed: o.seed, Host: o.host, Metrics: res.values}
	tf.Host.LoadAfter = loadavg()
	path, err := writeTrace(filepath.Join(workDir, "trace"), tf, t, tr)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	res.note("trace: %s (%d spans; CPU profile beside it)", path, len(tf.Spans))
	shares := tr.profile.layerShares()
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, " %s=%.1f%%", l, shares[l])
	}
	res.note("self time by layer:%s", b.String())
	res.note("top functions by self time:")
	for _, f := range tf.TopFunctions[:min(10, len(tf.TopFunctions))] {
		res.note("  %5.1f%%  %-8s %s", f.Pct, f.Layer, f.Func)
	}
	return nil
}
