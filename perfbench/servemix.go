package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ndpgpu/internal/experiments"
	"ndpgpu/internal/serve"
	"ndpgpu/internal/stats"
)

// serveKinds are the small legs serve-mix requests: each is one warm key
// (at the run's seed) and, with fresh seeds, the source of cold misses.
var serveKinds = []struct{ workload, mode string }{
	{"STCL", "baseline"}, {"MINIFE", "baseline"}, {"STN", "baseline"}, {"VADD", "baseline"},
	{"STCL", "dyn"}, {"MINIFE", "dyn"}, {"STN", "dyn"}, {"VADD", "dyn"},
}

const (
	// groupSize requests per group, one of them a miss: 90 % hits.
	groupSize = 10
	// plainSessions is how many server lifetimes an untraced run splits its
	// window into, so that set-ups and reference-kernel samples are spread
	// over the whole run.
	plainSessions = 5
	// setupsPerSession is how many times each server session sets the
	// server up (journal open, replay, restore, listen); setup_s is the
	// median over every set-up of the run.
	setupsPerSession = 5
)

// missSeed gives every miss a seed no other request of the run uses: the
// warm keys use the run's seed, and each client numbers its own misses.
func missSeed(seed int64, client, j int) int64 {
	return 1<<50 | (seed&0xffffff)<<24 | int64(client)<<20 | int64(j)
}

// plan is one client's request sequence, fixed by the seed: groups of ten
// with the miss at a seeded position, hits cycling through the warm keys
// and misses through the leg kinds, each in seeded order.
type plan struct {
	rng         *rand.Rand
	seed        int64
	client      int
	n, missAt   int
	hitQ, missQ []int
	misses      int
}

func newPlan(seed int64, client int) *plan {
	return &plan{rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), seed: seed, client: client}
}

func (p *plan) draw(q *[]int) int {
	if len(*q) == 0 {
		*q = p.rng.Perm(len(serveKinds))
	}
	k := (*q)[0]
	*q = (*q)[1:]
	return k
}

// next returns the client's next request and whether it should hit.
func (p *plan) next() (serve.RunRequest, bool) {
	if p.n%groupSize == 0 {
		p.missAt = p.rng.Intn(groupSize)
	}
	miss := p.n%groupSize == p.missAt
	p.n++
	rr := serve.RunRequest{Seed: p.seed, Client: fmt.Sprintf("bench-%d", p.client)}
	if miss {
		k := serveKinds[p.draw(&p.missQ)]
		rr.Workload, rr.Mode, rr.Seed = k.workload, k.mode, missSeed(p.seed, p.client, p.misses)
		p.misses++
		return rr, false
	}
	k := serveKinds[p.draw(&p.hitQ)]
	rr.Workload, rr.Mode = k.workload, k.mode
	return rr, true
}

// warmRequests are the keys the journal holds before timing starts.
func warmRequests(seed int64) []serve.RunRequest {
	out := make([]serve.RunRequest, len(serveKinds))
	for i, k := range serveKinds {
		out[i] = serve.RunRequest{Workload: k.workload, Mode: k.mode, Seed: seed, Client: "bench-warm"}
	}
	return out
}

// prepopulate runs every warm request cold through a journaled scheduler,
// so the journal holds their results, and returns each key's cold digest
// and the warm legs' statistics.
func prepopulate(dir string, workers int, warm []serve.RunRequest) (map[string]string, []*stats.Stats, error) {
	j, err := serve.OpenJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	defer j.Close()
	if _, _, err := j.Replay(); err != nil {
		return nil, nil, err
	}
	sched := serve.New(ndpserveOptions(workers, j))
	defer sched.Shutdown()
	reqs := make([]*serve.Request, len(warm))
	for i := range warm {
		if reqs[i], err = serve.Canonicalize(&warm[i]); err != nil {
			return nil, nil, err
		}
	}
	served := make([]serve.Served, len(warm))
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			served[i], errs[i] = sched.Submit(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	cold := make(map[string]string, len(warm))
	var sts []*stats.Stats
	for i, req := range reqs {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("warm %s/%s: %w", req.Workload, req.ModeSpec, errs[i])
		}
		cold[req.Key] = digestString(served[i].Outcome.Digest)
		sts = append(sts, served[i].Outcome.Stats)
	}
	return cold, sts, nil
}

// ndpserveOptions are the scheduler options cmd/ndpserve runs with when
// no flag is given: its queue capacity, back-pressure hint, run and stall
// watchdogs, and poison quarantine.
func ndpserveOptions(workers int, j *serve.Journal) serve.Options {
	return serve.Options{
		Workers:      workers,
		QueueCap:     1024,
		Runner:       experiments.ServeRunner(),
		RetryAfter:   time.Second,
		RunTimeout:   10 * time.Minute,
		StallTimeout: 2 * time.Minute,
		PoisonK:      3,
		PoisonTTL:    10 * time.Minute,
		Journal:      j,
	}
}

// instance is one in-process ndpserve, with cmd/ndpserve's default
// scheduler options and its journal in a directory of the benchmark's own.
type instance struct {
	journal *serve.Journal
	sched   *serve.Scheduler
	front   *serve.Server
	ln      net.Listener
	replay  serve.ReplayStats
}

// startInstance opens and replays the journal, restores its results into
// a fresh scheduler, and listens: after it returns, connections are
// accepted.
func startInstance(dir string, workers int, t *tracer, id string) (*instance, error) {
	start := time.Now()
	j, err := serve.OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	r0 := time.Now()
	recovered, rst, err := j.Replay()
	t.record(id, "serve.replay", r0, time.Now(), map[string]any{"records": rst.Records})
	if err != nil {
		j.Close()
		return nil, err
	}
	sched := serve.New(ndpserveOptions(workers, j))
	sched.Restore(recovered)
	front := serve.NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Shutdown()
		j.Close()
		return nil, err
	}
	t.record(id, "serve.setup", start, time.Now(), nil)
	return &instance{journal: j, sched: sched, front: front, ln: ln, replay: rst}, nil
}

// close drains the scheduler and closes the journal; srv, when the
// instance was serving, is shut down in between.
func (in *instance) close(srv *http.Server) error {
	in.front.BeginDrain()
	in.sched.Shutdown()
	var err error
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = srv.Shutdown(ctx)
	} else {
		err = in.ln.Close()
	}
	if jerr := in.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// sizeRecorder notes /run response body sizes.
type sizeRecorder struct {
	mu    sync.Mutex
	sizes []float64
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (s *sizeRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/run" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.mu.Lock()
		s.sizes = append(s.sizes, float64(cw.n))
		s.mu.Unlock()
	})
}

// reqSample is one client round trip.
type reqSample struct {
	hit       bool
	ok        bool
	lat       time.Duration
	simWallMS float64
	kinstr    float64
	smCycles  float64
}

// servePhase runs one closed-loop client per plan until the window has
// elapsed: each client sends its next request as soon as the previous one
// completes. Requests in flight at the deadline complete and count; the
// returned duration runs until the last of them.
func servePhase(base string, plans []*plan, cold map[string]string, window time.Duration, t *tracer) ([]reqSample, time.Duration, []string) {
	start := time.Now()
	deadline := start.Add(window)
	samples := make([][]reqSample, len(plans))
	problems := make([][]string, len(plans))
	var wg sync.WaitGroup
	for c, p := range plans {
		wg.Add(1)
		go func(c int, p *plan) {
			defer wg.Done()
			cl := serve.NewClient(base)
			cl.SetRetry(1, 0, 0) // a transport error or 5xx is a failure, not a retry
			for time.Now().Before(deadline) {
				rr, hit := p.next()
				t0 := time.Now()
				resp, st, err := cl.Run(rr)
				t1 := time.Now()
				s := reqSample{hit: hit, lat: t1.Sub(t0)}
				var bad string
				switch {
				case err != nil:
					bad = err.Error()
				case hit && !resp.Cached:
					bad = "warm key was not served from the replayed journal"
				case hit && digestString(resp.Digest) != cold[resp.Key]:
					bad = "hit digest differs from the digest its key produced cold"
				case !hit && resp.Cached:
					bad = "fresh key was served from cache"
				case !hit && st == nil:
					bad = "miss returned no statistics bundle"
				}
				if bad != "" {
					problems[c] = append(problems[c], fmt.Sprintf("client %d %s/%s seed %d: %s", c, rr.Workload, rr.Mode, rr.Seed, bad))
				} else {
					s.ok = true
					s.simWallMS = resp.SimWallMS
					if !hit {
						s.kinstr = float64(instrs(st)) / 1e3
						s.smCycles = float64(st.SMCycles)
					}
				}
				samples[c] = append(samples[c], s)
				if t != nil {
					attrs := map[string]any{"workload": rr.Workload, "mode": rr.Mode, "hit": hit, "ok": s.ok}
					if s.ok {
						attrs["cached"] = resp.Cached
						attrs["sim_wall_ms"] = resp.SimWallMS
					}
					t.record(fmt.Sprintf("req-c%d-%d", c, p.n), "serve.request", t0, t1, attrs)
				}
			}
		}(c, p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqSample
	var probs []string
	for c := range plans {
		all = append(all, samples[c]...)
		probs = append(probs, problems[c]...)
	}
	return all, elapsed, probs
}

// phaseStats are the client-side numbers of one or more serving windows.
type phaseStats struct {
	n, failed                    int
	reqPerS                      float64
	kinstrPerS                   float64
	hitLat, missLat              []float64 // ms; a failure is +Inf
	missOverhead, simWall        []float64 // ms, successful misses
	missKinstr, missSimWallTotal float64   // summed over successful misses
	missCycles                   float64
}

func phaseSummary(samples []reqSample, elapsed time.Duration) phaseStats {
	var ps phaseStats
	for _, s := range samples {
		ps.n++
		ms := float64(s.lat.Nanoseconds()) / 1e6
		if !s.ok {
			ps.failed++
			ms = math.Inf(1)
		}
		if s.hit {
			ps.hitLat = append(ps.hitLat, ms)
			continue
		}
		ps.missLat = append(ps.missLat, ms)
		if s.ok {
			ps.simWall = append(ps.simWall, s.simWallMS)
			ps.missOverhead = append(ps.missOverhead, ms-s.simWallMS)
			ps.missKinstr += s.kinstr
			ps.missSimWallTotal += s.simWallMS
			ps.missCycles += s.smCycles
		}
	}
	ps.reqPerS = ratio(float64(ps.n), elapsed.Seconds())
	ps.kinstrPerS = ratio(ps.missKinstr, ps.missSimWallTotal/1e3)
	return ps
}

// latencyNotes describes the hit and miss latency distributions.
func latencyNotes(res *result, ps phaseStats) {
	for _, d := range []struct {
		name string
		lat  []float64
	}{{"hit", ps.hitLat}, {"miss", ps.missLat}} {
		tl := tailOf(d.lat)
		tailStr := fmt.Sprintf("%s_tail_ms %.4g ms (p%g)", d.name, tl.Value, tl.Pct)
		if !tl.OK {
			tailStr = fmt.Sprintf("%s_tail_ms %.4g ms (the maximum: under 20 samples)", d.name, tl.Value)
		}
		res.note("%s_p50_ms %.4g ms, %s, n=%d", d.name, p50(d.lat), tailStr, tl.N)
	}
}

// copyJournal copies the warm journal's directory, so every session
// replays the same records.
func copyJournal(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// session is one server lifetime: repeated set-ups, then one serving
// window on the last of them.
type session struct {
	setups, replays []float64 // s, ms
	samples         []reqSample
	elapsed         time.Duration
	alloc           uint64 // heap bytes allocated while serving
	problems        []string
	counters        serve.Counters
	journal         *serve.JournalStats
	respSizes       []float64    // /run reply bytes, when profiled
	trace           *traceResult // when profiled
}

// runSession sets a server up on dir's journal, serves the plans for the
// window, and shuts the server down. A profiled session also records
// request spans, reply sizes and a CPU profile while serving.
func runSession(dir string, nproc int, plans []*plan, cold map[string]string, window time.Duration, t *tracer, profile bool, sid int) (*session, error) {
	s := &session{}
	var in *instance
	for rep := 0; rep < setupsPerSession; rep++ {
		start := time.Now()
		var err error
		in, err = startInstance(dir, nproc, t, fmt.Sprintf("setup-%d-%d", sid, rep))
		if err != nil {
			return nil, fmt.Errorf("server set-up: %w", err)
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
		s.replays = append(s.replays, in.replay.ReplayMS)
		if in.replay.Records != len(cold) {
			in.close(nil)
			return nil, fmt.Errorf("journal replayed %d records, want %d", in.replay.Records, len(cold))
		}
		if rep < setupsPerSession-1 {
			if err := in.close(nil); err != nil {
				return nil, err
			}
		}
	}

	var sizes sizeRecorder
	srv := &http.Server{Handler: in.front}
	if profile {
		srv.Handler = sizes.wrap(in.front)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(in.ln) }()
	var tw *traceWindow
	var reqTracer *tracer
	if profile {
		var err error
		if tw, err = startTraceWindow(); err != nil {
			in.close(srv)
			<-served
			return nil, err
		}
		reqTracer = t
	}
	a0 := heapAlloc()
	s.samples, s.elapsed, s.problems = servePhase("http://"+in.ln.Addr().String(), plans, cold, window, reqTracer)
	s.alloc = heapAlloc() - a0
	var traceErr error
	if profile {
		s.trace, traceErr = tw.stop()
	}
	s.counters, s.journal = in.sched.Snapshot(), in.sched.JournalStats()
	closeErr := in.close(srv)
	if err := <-served; err != http.ErrServerClosed {
		return nil, fmt.Errorf("server: %w", err)
	}
	// Shutdown has waited for every handler, so every size is in.
	sizes.mu.Lock()
	s.respSizes = sizes.sizes
	sizes.mu.Unlock()
	if traceErr != nil {
		return nil, traceErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("server shutdown: %w", closeErr)
	}
	return s, nil
}

// runServe runs serve-mix: an in-process ndpserve with one worker per CPU,
// driven by one closed-loop client per CPU. The run fills a journal first;
// each server session then replays a copy of it.
func runServe(o options) (*result, error) {
	nproc := runtime.NumCPU()
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	warm := filepath.Join(dir, "warm")
	cold, warmStats, err := prepopulate(warm, nproc, warmRequests(o.seed))
	if err != nil {
		return nil, fmt.Errorf("filling the journal: %w", err)
	}

	// An untraced run is plainSessions server sessions, with the reference
	// kernel timed before each and after the last. A traced run is two
	// sessions: an untraced one, then a profiled one. Each session has its
	// own copy of the journal and an equal share of the window.
	var t *tracer
	var refs *refSamples
	n := plainSessions
	if o.traced {
		t = &tracer{origin: time.Now()}
		n = 2
	} else {
		refs = &refSamples{}
	}
	plans := make([]*plan, nproc)
	for c := range plans {
		plans[c] = newPlan(o.seed, c)
	}
	var all []*session
	for i := 0; i < n; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("session-%d", i))
		if err := copyJournal(warm, sdir); err != nil {
			return nil, err
		}
		if refs != nil {
			refs.sample()
		}
		s, err := runSession(sdir, nproc, plans, cold, o.window/time.Duration(n), t, o.traced && i == n-1, i)
		if err != nil {
			return nil, err
		}
		all = append(all, s)
	}
	if refs != nil {
		refs.sample()
	}

	res := &result{}
	var setups, replays []float64
	for _, s := range all {
		setups = append(setups, s.setups...)
		replays = append(replays, s.replays...)
		res.problems = append(res.problems, s.problems...)
	}
	plain := all
	if o.traced {
		plain = all[:n-1]
	}
	var samples []reqSample
	var elapsed time.Duration
	var alloc uint64
	for _, s := range plain {
		samples = append(samples, s.samples...)
		elapsed += s.elapsed
		alloc += s.alloc
	}
	psA := phaseSummary(samples, elapsed)
	res.attempted, res.failed = psA.n, psA.failed

	if !o.traced {
		k := refs.scale()
		res.refMS = refs.medianMS()
		res.add("sim_kinstr_per_s", ratio(psA.kinstrPerS, k))
		res.add("setup_s", median(setups)*k)
		res.add("alloc_mb", mib(float64(alloc)*1000/float64(max(psA.n, 1))))
		res.add("peak_rss_mb", mib(float64(peakRSS())))
		res.add("req_per_s", ratio(psA.reqPerS, k))
		res.note("%d clients, %d workers, %d sessions: %d hits, %d misses", nproc, nproc, n, len(psA.hitLat), len(psA.missLat))
		res.note("raw host time: %.2f kinstr/s, set-up %.6f s, %.2f req/s", psA.kinstrPerS, median(setups), psA.reqPerS)
		latencyNotes(res, psA)
		return res, nil
	}

	b := all[n-1]
	psB := phaseSummary(b.samples, b.elapsed)
	res.attempted += psB.n
	res.failed += psB.failed
	zeroFill(res)
	addSimCounts(warmStats, seeded(o.seed), res.add)
	b.trace.layerMetrics(res.add)
	res.add("timing.host_ns_per_sm_cycle", ratio(psB.missSimWallTotal*1e6, psB.missCycles))
	res.add("serve.replay_ms", median(replays))
	if b.journal != nil {
		res.add("serve.journal_appends", float64(b.journal.Appends))
		res.add("serve.journal_syncs", float64(b.journal.Syncs))
	}
	res.add("serve.hit_resp_kb", median(b.respSizes)/1024)
	res.add("serve.sim_wall_ms", median(psB.simWall))
	res.add("serve.miss_overhead_ms", median(psB.missOverhead))
	res.add("serve.cache_hits", float64(b.counters.CacheHits))
	res.add("serve.executed", float64(b.counters.Executed))
	res.add("serve.coalesced", float64(b.counters.Coalesced))
	res.add("serve.max_queued", float64(b.counters.MaxQueued))
	res.add("serve.hit_p50_ms", p50(psB.hitLat))
	res.add("serve.hit_tail_ms", tailOf(psB.hitLat).Value)
	res.add("serve.miss_p50_ms", p50(psB.missLat))
	res.add("serve.miss_tail_ms", tailOf(psB.missLat).Value)
	res.add("bench.trace_overhead_kinstr_per_s", psB.kinstrPerS-psA.kinstrPerS)
	res.note("tracing overhead: traced %.1f vs untraced %.1f kinstr/s", psB.kinstrPerS, psA.kinstrPerS)
	latencyNotes(res, psB)
	return res, finishTrace(o, res, t, b.trace)
}
