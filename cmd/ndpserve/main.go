// Command ndpserve is the long-running simulation service: an HTTP/JSON
// server that accepts run requests (workload x mode x config patch x seed x
// fault schedule), schedules them on a bounded worker pool, and
// memoizes completed results by request content digest — a repeated request
// costs a map lookup, not a full simulation.
//
// Usage:
//
//	ndpserve -addr :8347 -workers 8 -queue 1024 -data /var/lib/ndpserve
//
// Endpoints:
//
//	POST /run      submit a run; ?stream=1 upgrades to SSE progress events
//	GET  /status   scheduler counters, quarantine, journal state (JSON)
//	GET  /metrics  the same counters, one per line
//	GET  /healthz  liveness
//	GET  /readyz   readiness (journal replayed, not draining)
//
// Example:
//
//	curl -s localhost:8347/run -d '{"workload":"VADD","mode":"dyn"}'
//
// Crash safety: with -data, every completed result is appended to a
// checksummed, fsync-batched journal and replayed on startup, so kill -9
// loses at most the in-flight runs. Panicking or hung runs are isolated
// (structured 500; the -runtimeout/-stalltimeout watchdog cancels wedged
// engines) and a key that poisons workers -poisonk times is quarantined for
// -poisonttl.
//
// SIGINT/SIGTERM drain gracefully: readiness goes false, active SSE streams
// get a final "shutdown" event, admission stops (503), every acknowledged
// request — queued or running — completes and is answered, then the process
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ndpgpu/internal/experiments"
	"ndpgpu/internal/prof"
	"ndpgpu/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() { <-sig; close(stop) }()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop, nil))
}

// run is the whole server behind a testable seam: parse flags, serve until
// stop closes, drain, and return the process exit status. ready (when
// non-nil) receives the bound listen address once the server accepts
// connections.
func run(args []string, w, werr io.Writer, stop <-chan struct{}, ready func(addr string)) int {
	fs := flag.NewFlagSet("ndpserve", flag.ContinueOnError)
	fs.SetOutput(werr)
	var (
		addr    = fs.String("addr", ":8347", "listen address")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
		queue   = fs.Int("queue", 1024, "admission queue capacity (429 beyond it)")
		retry   = fs.Duration("retryafter", time.Second, "Retry-After hint on backpressure")
		dataDir = fs.String("data", "", "durable journal directory (empty: results are memoized in memory only)")
		runTO   = fs.Duration("runtimeout", 10*time.Minute, "cancel a run past this wall-clock deadline (0 disables)")
		stallTO = fs.Duration("stalltimeout", 2*time.Minute, "cancel a run with no progress sample for this long (0 disables)")
		poisonK = fs.Int("poisonk", 3, "quarantine a key after this many panics/hangs")
		poisonT = fs.Duration("poisonttl", 10*time.Minute, "how long a quarantined key is refused")
		chaos   = fs.Bool("chaos", false, "enable client-triggered fault injection (chaos harness only)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.StartOpts(prof.Options{CPU: *cpuProf, Mem: *memProf})
	if err != nil {
		fmt.Fprintln(werr, "ndpserve:", err)
		return 1
	}
	defer stopProf()

	var journal *serve.Journal
	if *dataDir != "" {
		journal, err = serve.OpenJournal(*dataDir)
		if err != nil {
			fmt.Fprintln(werr, "ndpserve:", err)
			return 1
		}
		defer journal.Close()
	}

	runner := experiments.ServeRunner()
	if *chaos {
		fmt.Fprintln(w, "ndpserve: CHAOS MODE — client-triggered fault injection enabled")
		runner = serve.ChaosRunner(runner)
	}
	sched := serve.New(serve.Options{
		Workers:      *workers,
		QueueCap:     *queue,
		Runner:       runner,
		RetryAfter:   *retry,
		RunTimeout:   *runTO,
		StallTimeout: *stallTO,
		PoisonK:      *poisonK,
		PoisonTTL:    *poisonT,
		Journal:      journal,
	})
	front := serve.NewServer(sched)
	srv := &http.Server{Handler: front}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(werr, "ndpserve:", err)
		sched.Shutdown()
		return 1
	}
	// Not ready until the journal is replayed: /healthz is live the moment
	// the listener is up, but /run and /readyz answer 503 so a load balancer
	// doesn't route work into the replay window.
	front.SetReady(false)
	if ready != nil {
		ready(ln.Addr().String())
	}
	fmt.Fprintf(w, "ndpserve: listening on %s (%d workers, queue %d)\n",
		ln.Addr(), *workers, *queue)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	if journal != nil {
		recovered, rst, err := journal.Replay()
		if err != nil {
			fmt.Fprintln(werr, "ndpserve: journal replay:", err)
			sched.Shutdown()
			srv.Close()
			return 1
		}
		n := sched.Restore(recovered)
		fmt.Fprintf(w, "ndpserve: journal replayed %d records in %.1f ms (%d restored, %d duplicate, %d torn bytes truncated)\n",
			rst.Records, rst.ReplayMS, n, rst.Duplicates, rst.TruncatedBytes)
	}
	front.SetReady(true)

	select {
	case err := <-errCh:
		fmt.Fprintln(werr, "ndpserve:", err)
		sched.Shutdown()
		return 1
	case <-stop:
	}

	// Drain: readiness off and SSE streams closed with a "shutdown" event,
	// then stop admitting (every new submit gets 503), finish every
	// acknowledged run, and close the HTTP side, whose in-flight handlers
	// have all been answered by the drain. The journal closes last (deferred)
	// so the final batch of results is durable.
	fmt.Fprintln(w, "ndpserve: draining...")
	front.BeginDrain()
	sched.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(werr, "ndpserve: shutdown:", err)
		return 1
	}
	snap := sched.Snapshot()
	fmt.Fprintf(w, "ndpserve: drained (%d executed, %d cache hits, %d coalesced)\n",
		snap.Executed, snap.CacheHits, snap.Coalesced)
	return 0
}
