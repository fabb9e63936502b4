package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubSim is the stub-simulator seam the conformance and load suites drive:
// it records executions per key, optionally blocks on a gate, sleeps a
// configurable "simulation" cost, and returns a deterministic digest.
type stubSim struct {
	mu    sync.Mutex
	execs map[string]int
	order []string // keys in execution-start order

	gate  chan struct{} // nil: run immediately; else block until closed
	delay time.Duration
	fail  map[string]bool // keys that must error
}

func newStubSim(delay time.Duration) *stubSim {
	return &stubSim{execs: map[string]int{}, delay: delay, fail: map[string]bool{}}
}

func (s *stubSim) runner() Runner {
	return func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error) {
		s.mu.Lock()
		s.execs[req.Key]++
		s.order = append(s.order, req.Key)
		gate := s.gate
		s.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		if progress != nil {
			progress(Progress{Cycles: 4000, TimePS: 42})
		}
		s.mu.Lock()
		failed := s.fail[req.Key]
		s.mu.Unlock()
		if failed {
			return nil, errors.New("stub: injected failure")
		}
		return &Outcome{
			Digest: map[string]float64{"Key": float64(len(req.Key)), "TimePS": 42},
			TimePS: 42,
			Wall:   s.delay,
		}, nil
	}
}

func (s *stubSim) execCount(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execs[key]
}

func (s *stubSim) totalExecs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.execs {
		n += c
	}
	return n
}

// reqFor builds a canonical request for key diversity: seed drives the key.
func reqFor(t testing.TB, workload string, seed int64, client string) *Request {
	t.Helper()
	req, err := Canonicalize(&RunRequest{Workload: workload, Mode: "dyn", Seed: seed, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// waitSnapshot polls the scheduler until cond holds (or times out).
func waitSnapshot(t testing.TB, s *Scheduler, what string, cond func(Counters) bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Snapshot()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; snapshot %+v", what, s.Snapshot())
}

func TestSchedulerCacheHitMiss(t *testing.T) {
	stub := newStubSim(10 * time.Millisecond)
	s := New(Options{Workers: 2, QueueCap: 16, Runner: stub.runner()})
	defer s.Shutdown()
	req := reqFor(t, "VADD", 1, "c")

	first, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Coalesced {
		t.Fatalf("first submission should be a miss: %+v", first)
	}
	second, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second submission should be a cache hit")
	}
	if second.Outcome != first.Outcome {
		t.Fatal("cache hit returned a different outcome object")
	}
	if got := stub.execCount(req.Key); got != 1 {
		t.Fatalf("key executed %d times, want 1", got)
	}
	snap := s.Snapshot()
	if snap.CacheHits != 1 || snap.Executed != 1 {
		t.Fatalf("counters: %+v", snap)
	}
}

func TestSchedulerCoalescing(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	s := New(Options{Workers: 2, QueueCap: 64, Runner: stub.runner()})
	defer s.Shutdown()
	req := reqFor(t, "VADD", 2, "c")

	const dup = 16
	results := make(chan Served, dup)
	for i := 0; i < dup; i++ {
		go func() {
			served, err := s.Submit(context.Background(), req)
			if err != nil {
				t.Error(err)
			}
			results <- served
		}()
	}
	// All 16 must be in flight on one execution before we open the gate.
	waitSnapshot(t, s, "16 in flight", func(c Counters) bool { return c.InFlight == dup })
	if got := stub.execCount(req.Key); got != 1 {
		t.Fatalf("started %d executions for one key", got)
	}
	close(stub.gate)

	var coalesced int
	var out *Outcome
	for i := 0; i < dup; i++ {
		served := <-results
		if served.Cached {
			t.Fatal("no submission should see the cache: all were concurrent")
		}
		if served.Coalesced {
			coalesced++
		}
		if out == nil {
			out = served.Outcome
		} else if served.Outcome != out {
			t.Fatal("coalesced submissions got different outcomes")
		}
	}
	if coalesced != dup-1 {
		t.Fatalf("%d coalesced, want %d", coalesced, dup-1)
	}
	if got := stub.execCount(req.Key); got != 1 {
		t.Fatalf("key executed %d times, want exactly once", got)
	}
}

// TestSchedulerFairness: with one worker busy and client A's queue deep,
// client B's first request runs next (round-robin), not after A's backlog.
func TestSchedulerFairness(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	s := New(Options{Workers: 1, QueueCap: 64, Runner: stub.runner()})
	defer s.Shutdown()

	var wg sync.WaitGroup
	submit := func(req *Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}

	a0 := reqFor(t, "VADD", 10, "alice")
	submit(a0)
	// a0 must be running (holding the only worker) before the backlog forms.
	waitSnapshot(t, s, "a0 running", func(c Counters) bool { return c.Running == 1 })
	var aliceBacklog []*Request
	for i := int64(11); i < 16; i++ {
		r := reqFor(t, "VADD", i, "alice")
		aliceBacklog = append(aliceBacklog, r)
		submit(r)
	}
	waitSnapshot(t, s, "alice backlog queued", func(c Counters) bool { return c.Queued == 5 })
	b0 := reqFor(t, "VADD", 20, "bob")
	submit(b0)
	waitSnapshot(t, s, "bob queued", func(c Counters) bool { return c.Queued == 6 })

	close(stub.gate)
	wg.Wait()

	stub.mu.Lock()
	order := append([]string(nil), stub.order...)
	stub.mu.Unlock()
	if len(order) != 7 {
		t.Fatalf("executed %d runs, want 7", len(order))
	}
	if order[0] != a0.Key {
		t.Fatalf("first execution was not a0")
	}
	// Round-robin: alice takes one more turn, then bob — NOT after alice's
	// whole backlog (a plain FIFO would run bob last, at position 6).
	if got := indexOf(order, b0.Key); got != 2 {
		t.Fatalf("bob's request ran at position %d, want 2 (round-robin)", got)
	}
	_ = aliceBacklog
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

func TestSchedulerBackpressure(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	s := New(Options{Workers: 1, QueueCap: 4, Runner: stub.runner(), RetryAfter: 2 * time.Second})
	defer s.Shutdown()

	var wg sync.WaitGroup
	var accepted atomic.Int64
	submit := func(seed int64) {
		req := reqFor(t, "VADD", seed, "c")
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), req); err != nil {
				t.Error(err)
			} else {
				accepted.Add(1)
			}
		}()
	}
	// Occupy the single worker first, then fill the queue to its cap of 4 —
	// sequencing these keeps each admission's queue-depth check deterministic.
	submit(100)
	waitSnapshot(t, s, "worker busy", func(c Counters) bool { return c.Running == 1 })
	for i := int64(1); i <= 4; i++ {
		submit(100 + i)
	}
	waitSnapshot(t, s, "queue full", func(c Counters) bool { return c.Queued == 4 && c.Running == 1 })

	if _, err := s.Submit(context.Background(), reqFor(t, "VADD", 200, "c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit: got %v, want ErrQueueFull", err)
	}
	if s.RetryAfter() != 2*time.Second {
		t.Fatalf("RetryAfter = %v", s.RetryAfter())
	}
	// A duplicate of an in-flight key coalesces even when the queue is full:
	// it consumes no queue slot.
	dupDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), reqFor(t, "VADD", 100, "c"))
		dupDone <- err
	}()

	close(stub.gate)
	wg.Wait()
	if err := <-dupDone; err != nil {
		t.Fatalf("coalesced duplicate rejected during backpressure: %v", err)
	}
	// Every acknowledged request completed.
	if got := accepted.Load(); got != 5 {
		t.Fatalf("%d acknowledged requests completed, want 5", got)
	}
	snap := s.Snapshot()
	if snap.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", snap.Rejected)
	}
	if snap.MaxQueued > 4 {
		t.Fatalf("queue depth %d exceeded cap 4", snap.MaxQueued)
	}
}

func TestSchedulerErrorNotMemoized(t *testing.T) {
	stub := newStubSim(0)
	s := New(Options{Workers: 1, QueueCap: 8, Runner: stub.runner()})
	defer s.Shutdown()
	req := reqFor(t, "VADD", 3, "c")
	stub.fail[req.Key] = true

	if _, err := s.Submit(context.Background(), req); err == nil {
		t.Fatal("failing run returned no error")
	}
	stub.mu.Lock()
	stub.fail[req.Key] = false
	stub.mu.Unlock()
	served, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if served.Cached {
		t.Fatal("failure was memoized")
	}
	if got := stub.execCount(req.Key); got != 2 {
		t.Fatalf("executed %d times, want 2 (failure is retriable)", got)
	}
}

func TestSchedulerCanceledWaiterStillCompletes(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	s := New(Options{Workers: 1, QueueCap: 8, Runner: stub.runner()})
	defer s.Shutdown()
	req := reqFor(t, "VADD", 4, "c")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, req)
		errCh <- err
	}()
	waitSnapshot(t, s, "running", func(c Counters) bool { return c.Running == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: %v", err)
	}
	close(stub.gate)
	// The abandoned execution still completes and seeds the cache.
	waitSnapshot(t, s, "cache seeded", func(c Counters) bool { return c.CacheEntries == 1 })
	served, err := s.Submit(context.Background(), req)
	if err != nil || !served.Cached {
		t.Fatalf("post-cancel submit: cached=%v err=%v", served.Cached, err)
	}
	if got := stub.execCount(req.Key); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
}

// TestServeShutdownDrains: SIGTERM semantics at the scheduler layer — with
// work queued behind a blocked worker, Shutdown must complete every
// acknowledged request, answer every waiter, and reject new submissions.
func TestServeShutdownDrains(t *testing.T) {
	stub := newStubSim(time.Millisecond)
	stub.gate = make(chan struct{})
	s := New(Options{Workers: 2, QueueCap: 64, Runner: stub.runner()})

	const n = 20
	var wg sync.WaitGroup
	var completions atomic.Int64
	for i := int64(0); i < n; i++ {
		req := reqFor(t, "VADD", 300+i, fmt.Sprintf("client%d", i%4))
		wg.Add(1)
		go func() {
			defer wg.Done()
			served, err := s.Submit(context.Background(), req)
			if err != nil {
				t.Errorf("acknowledged request dropped at shutdown: %v", err)
				return
			}
			if served.Outcome == nil {
				t.Error("nil outcome")
			}
			completions.Add(1)
		}()
	}
	waitSnapshot(t, s, "all acknowledged", func(c Counters) bool { return c.InFlight == n })

	shutdownDone := make(chan struct{})
	go func() {
		s.Shutdown()
		close(shutdownDone)
	}()
	// Admission must close promptly, while the drain is still in progress.
	// The probe duplicates an in-flight key so a probe that races ahead of
	// Shutdown coalesces (and times out) instead of admitting a new entry;
	// once closed is set it fails fast with ErrShuttingDown.
	waitSnapshot(t, s, "admission closed", func(Counters) bool {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		_, err := s.Submit(ctx, reqFor(t, "VADD", 300, "probe"))
		return errors.Is(err, ErrShuttingDown)
	})
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while work was still gated")
	default:
	}
	close(stub.gate)
	<-shutdownDone
	wg.Wait()

	if got := completions.Load(); got != n {
		t.Fatalf("%d/%d acknowledged requests completed across shutdown", got, n)
	}
	if got := stub.totalExecs(); got != n {
		t.Fatalf("executed %d runs, want %d (unique keys, no double executions)", got, n)
	}
}

// TestSubmitDuringShutdown: submissions racing Shutdown each return their
// outcome or ErrShuttingDown, none hangs, and exactly the successful ones
// executed — admission and drain never disagree about an entry.
func TestSubmitDuringShutdown(t *testing.T) {
	stub := newStubSim(100 * time.Microsecond)
	s := New(Options{Workers: 2, QueueCap: 1024, Runner: stub.runner()})

	const n = 200
	var wg sync.WaitGroup
	var served, refused atomic.Int64
	start := make(chan struct{})
	for i := int64(0); i < n; i++ {
		req := reqFor(t, "VADD", 10000+i, fmt.Sprintf("client%d", i%8))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := s.Submit(context.Background(), req)
			switch {
			case err == nil && got.Outcome != nil:
				served.Add(1)
			case errors.Is(err, ErrShuttingDown):
				refused.Add(1)
			default:
				t.Errorf("submit during shutdown: outcome %v, err %v", got.Outcome, err)
			}
		}()
	}
	close(start)
	waitSnapshot(t, s, "submissions under way", func(c Counters) bool { return c.Submitted >= n/4 })
	s.Shutdown()

	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(60 * time.Second):
		t.Fatal("a submission racing Shutdown never returned")
	}
	if got := served.Load() + refused.Load(); got != n {
		t.Fatalf("%d of %d submissions returned an outcome or ErrShuttingDown", got, n)
	}
	if got := stub.totalExecs(); int64(got) != served.Load() {
		t.Fatalf("executed %d runs for %d successful submissions", got, served.Load())
	}
	t.Logf("%d served, %d refused", served.Load(), refused.Load())
}

// submitEach submits n unique requests, each from its own goroutine, and
// returns a WaitGroup that is done once every Submit has returned; a
// submission that fails is a test error.
func submitEach(t *testing.T, s *Scheduler, n int, seed0 int64) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := int64(0); i < int64(n); i++ {
		req := reqFor(t, "VADD", seed0+i, fmt.Sprintf("client%d", i%4))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if served, err := s.Submit(context.Background(), req); err != nil || served.Outcome == nil {
				t.Errorf("submit: outcome %v, err %v", served.Outcome, err)
			}
		}()
	}
	return &wg
}

// TestPoolRunsEverything: the scheduler's Options.Workers goroutines run
// every admitted request, and admission refuses work after Shutdown.
func TestPoolRunsEverything(t *testing.T) {
	stub := newStubSim(0)
	s := New(Options{Workers: 4, QueueCap: 128, Runner: stub.runner()})
	submitEach(t, s, 100, 20000).Wait()
	if got := stub.totalExecs(); got != 100 {
		t.Fatalf("ran %d requests, want 100", got)
	}
	s.Shutdown()
	if _, err := s.Submit(context.Background(), reqFor(t, "VADD", 1, "c")); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Shutdown: %v, want ErrShuttingDown", err)
	}
}

// TestPoolBoundsConcurrency: no more than Options.Workers runs execute at
// once, however many are queued.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	run := newStubSim(time.Millisecond).runner()
	var cur, peak atomic.Int64
	s := New(Options{Workers: workers, QueueCap: 64, Runner: func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		return run(rc, req, progress)
	}})
	defer s.Shutdown()
	submitEach(t, s, 50, 21000).Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

// TestPoolCloseDrains: Shutdown does not return before every admitted
// request has run to completion.
func TestPoolCloseDrains(t *testing.T) {
	run := newStubSim(time.Millisecond).runner()
	var finished atomic.Int64
	s := New(Options{Workers: 2, QueueCap: 64, Runner: func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error) {
		defer finished.Add(1)
		return run(rc, req, progress)
	}})
	wg := submitEach(t, s, 20, 22000)
	waitSnapshot(t, s, "all admitted", func(c Counters) bool { return c.Submitted == 20 })
	s.Shutdown() // must not return before every queued request ran
	if got := finished.Load(); got != 20 {
		t.Fatalf("Shutdown returned with %d/20 requests done", got)
	}
	wg.Wait()
}

// TestSchedulerStressExactlyOnce is the concurrency stress leg: many clients
// x duplicated keys x mixed fault schedules, under the race detector via
// `make serve-test`. Every unique key simulates exactly once; every
// submission completes exactly once.
func TestSchedulerStressExactlyOnce(t *testing.T) {
	uniques, dups, clients := 48, 6, 8
	if testing.Short() {
		uniques, dups, clients = 24, 4, 4
	}
	stub := newStubSim(500 * time.Microsecond)
	s := New(Options{Workers: 8, QueueCap: uniques * dups, Runner: stub.runner()})
	defer s.Shutdown()

	// Mixed fault schedules and seeds spread the key space across every
	// canonicalization path.
	faults := []string{
		"",
		"drop:p=0.01;seed=3",
		"linkdown:t=2000000:hmc=0:dim=1",
		"vaultfreeze:t=1000000:hmc=1:vault=5:dur=6000000;timeout=2000;retries=3",
	}
	reqs := make([]*Request, uniques)
	for i := range reqs {
		req, err := Canonicalize(&RunRequest{
			Workload: "VADD",
			Mode:     []string{"baseline", "naive", "dyn"}[i%3],
			Seed:     int64(i / 3),
			Faults:   faults[i%len(faults)],
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}

	var wg sync.WaitGroup
	var completions, failures atomic.Int64
	for c := 0; c < clients; c++ {
		client := fmt.Sprintf("client%d", c)
		for d := 0; d < dups; d++ {
			for i := range reqs {
				req := *reqs[i]
				req.Client = client
				wg.Add(1)
				go func() {
					defer wg.Done()
					served, err := s.Submit(context.Background(), &req)
					if err != nil || served.Outcome == nil {
						failures.Add(1)
						return
					}
					completions.Add(1)
				}()
			}
		}
	}
	wg.Wait()

	want := int64(uniques * dups * clients)
	if failures.Load() != 0 || completions.Load() != want {
		t.Fatalf("completions %d / failures %d, want %d / 0",
			completions.Load(), failures.Load(), want)
	}
	for _, req := range reqs {
		if got := stub.execCount(req.Key); got != 1 {
			t.Fatalf("key %s executed %d times, want exactly once", req.Key[:8], got)
		}
	}
	if got := stub.totalExecs(); got != uniques {
		t.Fatalf("total executions %d, want %d", got, uniques)
	}
	snap := s.Snapshot()
	if snap.Executed != int64(uniques) {
		t.Fatalf("Executed = %d, want %d", snap.Executed, uniques)
	}
	if snap.CacheHits+snap.Coalesced != want-int64(uniques) {
		t.Fatalf("hits %d + coalesced %d != %d duplicates",
			snap.CacheHits, snap.Coalesced, want-int64(uniques))
	}
}
