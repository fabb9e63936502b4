package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// chaosReq builds a request whose Client triggers ChaosRunner injection.
// Client is excluded from the key, so seed diversity keeps poisoned keys
// distinct from healthy ones.
func chaosReq(t testing.TB, seed int64, client string) *Request {
	t.Helper()
	return reqFor(t, "VADD", seed, client)
}

// TestPanicIsolation: a panicking run is converted into a structured
// *PanicError for its waiters while the lone worker survives to execute the
// next request — with Workers:1 a dead worker would hang the second submit.
func TestPanicIsolation(t *testing.T) {
	stub := newStubSim(0)
	s := New(Options{Workers: 1, QueueCap: 8, Runner: ChaosRunner(stub.runner())})
	defer s.Shutdown()

	_, err := s.Submit(context.Background(), chaosReq(t, 9000, ChaosPanicClient))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking run returned %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected panic") || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost the panic value or stack: %v", pe)
	}

	served, err := s.Submit(context.Background(), reqFor(t, "VADD", 9001, "healthy"))
	if err != nil || served.Outcome == nil {
		t.Fatalf("worker did not survive the panic: %v", err)
	}
	snap := s.Snapshot()
	if snap.Panics != 1 || snap.Errors != 1 || snap.Executed != 1 {
		t.Fatalf("counters after panic: %+v", snap)
	}
}

// TestWatchdogDeadline: a run that blocks past RunTimeout is cooperatively
// canceled (the runner sees Done close) and its waiters get ErrRunTimeout.
func TestWatchdogDeadline(t *testing.T) {
	stub := newStubSim(0)
	s := New(Options{
		Workers: 1, QueueCap: 8,
		Runner:     ChaosRunner(stub.runner()),
		RunTimeout: 50 * time.Millisecond,
	})
	defer s.Shutdown()

	start := time.Now()
	_, err := s.Submit(context.Background(), chaosReq(t, 9100, ChaosHangClient))
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("hung run returned %v, want ErrRunTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("watchdog took %v to fire a 50ms deadline", elapsed)
	}
	if snap := s.Snapshot(); snap.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1", snap.WatchdogKills)
	}
	// The worker is free again.
	if _, err := s.Submit(context.Background(), reqFor(t, "VADD", 9101, "healthy")); err != nil {
		t.Fatalf("worker did not survive the watchdog kill: %v", err)
	}
}

// TestWatchdogStall: with only StallTimeout set, a run that emits no
// progress is killed with ErrRunStalled, while a run that keeps emitting
// progress runs well past the stall window untouched.
func TestWatchdogStall(t *testing.T) {
	stall := 60 * time.Millisecond
	silent := func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error) {
		<-rc.Done()
		return nil, errors.New("engine canceled")
	}
	s := New(Options{Workers: 1, QueueCap: 8, Runner: silent, StallTimeout: stall})
	_, err := s.Submit(context.Background(), reqFor(t, "VADD", 9200, "c"))
	if !errors.Is(err, ErrRunStalled) {
		t.Fatalf("silent run returned %v, want ErrRunStalled", err)
	}
	s.Shutdown()

	// A chatty run outlives many stall windows: every progress event
	// restarts the stall timer.
	chatty := func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error) {
		for i := 0; i < 20; i++ {
			select {
			case <-rc.Done():
				return nil, errors.New("killed despite progress")
			case <-time.After(stall / 4):
				progress(Progress{Cycles: int64(i)})
			}
		}
		return &Outcome{Digest: map[string]float64{"ok": 1}}, nil
	}
	s2 := New(Options{Workers: 1, QueueCap: 8, Runner: chatty, StallTimeout: stall})
	defer s2.Shutdown()
	served, err := s2.Submit(context.Background(), reqFor(t, "VADD", 9201, "c"))
	if err != nil || served.Outcome == nil {
		t.Fatalf("progressing run was killed: %v", err)
	}
	if snap := s2.Snapshot(); snap.WatchdogKills != 0 {
		t.Fatalf("WatchdogKills = %d for a progressing run", snap.WatchdogKills)
	}
}

// TestQuarantine: the poison-request circuit breaker — trip after K
// poisonous failures, refuse with the cached failure during the TTL,
// half-open probe after expiry, close on success.
func TestQuarantine(t *testing.T) {
	stub := newStubSim(0)
	s := New(Options{
		Workers: 1, QueueCap: 8,
		Runner:  ChaosRunner(stub.runner()),
		PoisonK: 2, PoisonTTL: time.Hour,
	})
	defer s.Shutdown()
	// Deterministic clock for the TTL.
	now := time.Unix(1000, 0)
	s.quar.now = func() time.Time { return now }

	key := chaosReq(t, 9300, ChaosPanicClient).Key
	for i := 0; i < 2; i++ {
		_, err := s.Submit(context.Background(), chaosReq(t, 9300, ChaosPanicClient))
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	// Breaker open: refused without executing, visible in the snapshot.
	_, err := s.Submit(context.Background(), chaosReq(t, 9300, ChaosPanicClient))
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("third submit returned %v, want *QuarantineError", err)
	}
	if qe.Failures != 2 || !strings.Contains(qe.LastErr, "panicked") {
		t.Fatalf("quarantine record: %+v", qe)
	}
	if got := stub.execCount(key); got != 0 {
		t.Fatal("quarantined submit still reached the stub runner")
	}
	snap := s.Snapshot()
	if snap.Quarantined != 1 || snap.QuarantineHits != 1 {
		t.Fatalf("counters: quarantined %d hits %d", snap.Quarantined, snap.QuarantineHits)
	}
	entries := s.QuarantineSnapshot()
	if len(entries) != 1 || entries[0].Key != key || entries[0].Until.IsZero() {
		t.Fatalf("QuarantineSnapshot: %+v", entries)
	}

	// TTL expiry: one probe is admitted (half-open). Another poisonous
	// failure re-opens immediately — the count was rewound to K-1.
	now = now.Add(2 * time.Hour)
	_, err = s.Submit(context.Background(), chaosReq(t, 9300, ChaosPanicClient))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("half-open probe returned %v, want *PanicError (admitted)", err)
	}
	_, err = s.Submit(context.Background(), chaosReq(t, 9300, ChaosPanicClient))
	if !errors.As(err, &qe) {
		t.Fatalf("breaker did not re-open after a failed probe: %v", err)
	}

	// A successful probe closes the breaker for good: same key, healthy
	// client (Client is not part of the key).
	now = now.Add(2 * time.Hour)
	served, err := s.Submit(context.Background(), reqFor(t, "VADD", 9300, "healthy"))
	if err != nil || served.Outcome == nil {
		t.Fatalf("successful probe: %v", err)
	}
	if len(s.QuarantineSnapshot()) != 0 {
		t.Fatal("successful run did not clear the quarantine record")
	}
	served2, err := s.Submit(context.Background(), chaosReq(t, 9300, ChaosPanicClient))
	if err != nil || !served2.Cached {
		// The success memoized the key: even the chaos client now gets the
		// cached result without executing (cache check precedes injection).
		t.Fatalf("post-recovery submit: cached=%v err=%v", served2.Cached, err)
	}
}

// TestOrdinaryErrorsNotQuarantined: plain run failures (bad workload, fault
// validation, transient simulator errors) are retriable, never poisonous.
func TestOrdinaryErrorsNotQuarantined(t *testing.T) {
	stub := newStubSim(0)
	s := New(Options{Workers: 1, QueueCap: 8, Runner: stub.runner(), PoisonK: 2, PoisonTTL: time.Hour})
	defer s.Shutdown()
	req := reqFor(t, "VADD", 9400, "c")
	stub.fail[req.Key] = true

	for i := 0; i < 5; i++ {
		if _, err := s.Submit(context.Background(), req); err == nil {
			t.Fatal("failing run returned no error")
		}
	}
	if got := stub.execCount(req.Key); got != 5 {
		t.Fatalf("executed %d times, want 5 (every retry admitted)", got)
	}
	if snap := s.Snapshot(); snap.Quarantined != 0 || snap.Panics != 0 {
		t.Fatalf("ordinary failures tripped the breaker: %+v", snap)
	}
	if len(s.QuarantineSnapshot()) != 0 {
		t.Fatal("ordinary failures left quarantine records")
	}
}

// TestServeChaosHTTP drives panic isolation and quarantine end to end over
// HTTP: structured 500s, then 503 + Retry-After once the breaker opens,
// quarantine visible in /status and /metrics, server still serving.
func TestServeChaosHTTP(t *testing.T) {
	stub := newStubSim(0)
	sched := New(Options{
		Workers: 2, QueueCap: 16,
		Runner:  ChaosRunner(stub.runner()),
		PoisonK: 2, PoisonTTL: time.Hour,
	})
	front := NewServer(sched)
	ts := httptest.NewServer(front)
	t.Cleanup(func() { ts.Close(); sched.Shutdown() })

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	poison := `{"workload":"VADD","mode":"dyn","seed":9500,"client":"chaos-panic"}`

	for i := 0; i < 2; i++ {
		resp := post(poison)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic run %d: status %d, want 500", i, resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "panicked") {
			t.Fatalf("panic run %d: error envelope %q (%v)", i, eb.Error, err)
		}
	}
	resp := post(poison)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined key: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quarantine 503 carries no Retry-After")
	}

	// Quarantine is visible in /status...
	sresp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var status struct {
		Counters   Counters          `json:"counters"`
		Quarantine []QuarantineEntry `json:"quarantine"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Counters.Panics != 2 || status.Counters.QuarantineHits != 1 || status.Counters.Quarantined != 1 {
		t.Fatalf("/status counters: %+v", status.Counters)
	}
	if len(status.Quarantine) != 1 || status.Quarantine[0].Failures != 2 {
		t.Fatalf("/status quarantine: %+v", status.Quarantine)
	}

	// ...and in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"ndpserve_panics_total 2",
		"ndpserve_quarantined 1",
		"ndpserve_quarantine_hits_total 1",
		"ndpserve_ready 1",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("metrics missing %q:\n%s", want, joined)
		}
	}

	// The server keeps serving healthy requests throughout.
	ok := post(`{"workload":"VADD","mode":"dyn","seed":9501}`)
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after chaos: status %d", ok.StatusCode)
	}
}

// TestReadyzTransitions: /healthz is liveness (always green while the
// process answers), /readyz tracks SetReady and BeginDrain, and /run is
// refused with 503 + Retry-After while not ready.
func TestReadyzTransitions(t *testing.T) {
	stub := newStubSim(0)
	sched := New(Options{Workers: 1, QueueCap: 8, Runner: stub.runner()})
	front := NewServer(sched)
	ts := httptest.NewServer(front)
	t.Cleanup(func() { ts.Close(); sched.Shutdown() })

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", got)
	}

	// Startup replay window: not ready, but alive.
	front.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("liveness followed readiness down: /healthz = %d", got)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"VADD","mode":"dyn"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("/run while not ready: status %d Retry-After %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Replay finished.
	front.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("post-replay /readyz = %d", got)
	}
	if !front.Ready() {
		t.Fatal("Ready() disagrees with /readyz")
	}

	// Drain: readiness latches false.
	front.BeginDrain()
	front.BeginDrain() // idempotent
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (still alive)", got)
	}
}

// TestSSEShutdownFrame: drain must terminate an active progress stream with
// a final "event: shutdown" frame instead of leaving the client hanging.
func TestSSEShutdownFrame(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	sched := New(Options{Workers: 1, QueueCap: 8, Runner: stub.runner()})
	front := NewServer(sched)
	ts := httptest.NewServer(front)
	gateOnce := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gateOnce:
		default:
			close(stub.gate)
			close(gateOnce)
		}
		ts.Close()
		sched.Shutdown()
	})

	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"workload":"VADD","mode":"dyn","seed":9600}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	// The run is gated open — the stream is live and idle when drain hits.
	waitSnapshot(t, sched, "stream running", func(c Counters) bool { return c.Running == 1 })
	front.BeginDrain()

	var events []string
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(30*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sc.Scan() {
		if after, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, after)
		}
	}
	if len(events) == 0 || events[len(events)-1] != "shutdown" {
		t.Fatalf("drained stream did not end in a shutdown event: %v", events)
	}

	// The gated execution still completes server-side and seeds the cache —
	// a client that resubmits after restart gets a map lookup.
	close(stub.gate)
	close(gateOnce)
	waitSnapshot(t, sched, "gated run completed", func(c Counters) bool { return c.CacheEntries == 1 })
}
