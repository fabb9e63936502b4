// Package serve is the simulation-as-a-service layer: canonical run
// requests keyed by content digest, a memoizing scheduler with request
// coalescing, per-client fairness, admission backpressure and a fixed set of
// worker goroutines, and a stdlib-only HTTP/JSON front end (cmd/ndpserve)
// with streaming progress.
//
// The package deliberately knows nothing about how a request is executed —
// the Runner seam is injected — so the conformance and load-test suites drive
// it with a stub simulator, while cmd/ndpserve and the experiments sweep wire
// in the real machine.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ndpgpu/internal/stats"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is admission backpressure: the bounded queue is at
	// capacity (429 + Retry-After).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShuttingDown rejects new work during drain (503).
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Progress is one streaming progress event, fed by the epoch-sampled metrics
// layer: the simulation has advanced to the given SM cycle / simulated time.
type Progress struct {
	Cycles int64 `json:"cycles"`
	TimePS int64 `json:"time_ps"`
}

// Outcome is one completed simulation, in the golden-digest format: the
// flattened counter digest (stats.Digest plus TimePS and EnergyTotalPJ) is
// the memoized value, the full statistics bundle rides along for clients
// that rebuild Run structs (ndpsweep -server).
type Outcome struct {
	Digest   map[string]float64 `json:"digest"`
	Stats    *stats.Stats       `json:"stats,omitempty"`
	TimePS   int64              `json:"time_ps"`
	EnergyPJ float64            `json:"energy_pj"`
	Wall     time.Duration      `json:"wall_ns"` // simulation wall time (cold)
}

// Runner executes one canonical request. progress must be safe to call from
// the simulation goroutine and cheap (the scheduler fans events out to
// subscribers without blocking). rc is canceled when the run outlives its
// deadline or stall window: a runner stops its simulation on rc.Done(), for
// instance with context.AfterFunc. Implementations must be deterministic in
// the request: the scheduler memoizes the first Outcome per key forever.
type Runner func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error)

// RunCtx is the context of one execution. Its cause, once canceled, is
// ErrRunTimeout or ErrRunStalled.
type RunCtx struct{ context.Context }

// Options configures a Scheduler.
type Options struct {
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds admitted-but-not-yet-running unique requests; beyond
	// it Submit fails with ErrQueueFull (default 256).
	QueueCap int
	// Runner executes requests (required).
	Runner Runner
	// RetryAfter is the backpressure hint reported alongside ErrQueueFull
	// (default 1s).
	RetryAfter time.Duration

	// RunTimeout bounds one execution's wall time; past it the run is
	// cooperatively canceled and fails with ErrRunTimeout (0 = unlimited).
	RunTimeout time.Duration
	// StallTimeout cancels a run that emits no progress event for this long
	// (ErrRunStalled); it catches wedged engines long before RunTimeout.
	// Only meaningful with a Runner that reports progress (0 = off).
	StallTimeout time.Duration
	// PoisonK quarantines a key after this many poisonous failures — panics
	// or watchdog kills; ordinary errors don't count (default 3).
	PoisonK int
	// PoisonTTL is how long a quarantined key is refused before one probe is
	// re-admitted, half-open (default 10m).
	PoisonTTL time.Duration
	// Journal, when non-nil, makes every memoized outcome durable: Submit
	// acknowledges a run only after its record is fsynced. Open it with
	// OpenJournal, call Replay, and seed the recovered map via Restore.
	Journal *Journal
}

// Counters is a snapshot of the scheduler's accounting.
type Counters struct {
	Submitted int64 `json:"submitted"`  // Submit calls, including rejected
	CacheHits int64 `json:"cache_hits"` // served by map lookup
	Coalesced int64 `json:"coalesced"`  // attached to an in-flight execution
	Executed  int64 `json:"executed"`   // simulations actually run
	Errors    int64 `json:"errors"`     // executions that failed
	Rejected  int64 `json:"rejected"`   // ErrQueueFull + ErrShuttingDown

	Panics         int64 `json:"panics"`          // runner panics converted to errors
	WatchdogKills  int64 `json:"watchdog_kills"`  // runs canceled by deadline or stall
	QuarantineHits int64 `json:"quarantine_hits"` // submissions refused by an open breaker
	Recovered      int64 `json:"recovered"`       // cache entries restored from the journal
	JournalErrors  int64 `json:"journal_errors"`  // appends that failed (result still served)

	Queued      int `json:"queued"`     // admitted, waiting for a worker
	Running     int `json:"running"`    // executing right now
	InFlight    int `json:"in_flight"`  // submissions blocked on a result
	MaxQueued   int `json:"max_queued"` // high-water marks
	MaxRunning  int `json:"max_running"`
	MaxInFlight int `json:"max_in_flight"`

	CacheEntries int `json:"cache_entries"`
	Clients      int `json:"clients"`     // clients currently holding queued work
	Quarantined  int `json:"quarantined"` // keys with an open breaker right now
}

// entry is one admitted unique request: the single execution every duplicate
// submission coalesces onto.
type entry struct {
	req  *Request
	done chan struct{} // closed after out/err are set
	out  *Outcome
	err  error
	subs []chan<- Progress
}

// Scheduler is the batched, digest-memoized run scheduler: Options.Workers
// goroutines fed round-robin across clients, a coalescing in-flight table,
// and a forever cache keyed by request digest. A repeated request costs a map
// lookup; a concurrent duplicate costs a channel wait.
type Scheduler struct {
	opts    Options
	workers sync.WaitGroup

	mu        sync.Mutex
	work      *sync.Cond // signaled by submit, broadcast by Shutdown
	quar      quarantine
	cache     map[string]*Outcome
	inflight  map[string]*entry
	perClient map[string][]*entry // FIFO per client; key present iff in ring
	ring      []string            // round-robin order over clients with work
	ringPos   int
	closed    bool
	c         Counters
}

// New starts a scheduler. Call Shutdown to drain it.
func New(o Options) *Scheduler {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Runner == nil {
		panic("serve: Options.Runner is required")
	}
	if o.PoisonK <= 0 {
		o.PoisonK = 3
	}
	if o.PoisonTTL <= 0 {
		o.PoisonTTL = 10 * time.Minute
	}
	s := &Scheduler{
		opts:      o,
		quar:      newQuarantine(o.PoisonK, o.PoisonTTL),
		cache:     make(map[string]*Outcome),
		inflight:  make(map[string]*entry),
		perClient: make(map[string][]*entry),
	}
	s.work = sync.NewCond(&s.mu)
	s.workers.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	return s
}

// Restore seeds the memoization cache with journal-recovered outcomes
// (first writer wins; existing entries are kept) and returns how many were
// installed. Call it once at startup, between Replay and readiness.
func (s *Scheduler) Restore(outcomes map[string]*Outcome) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key, out := range outcomes {
		if _, ok := s.cache[key]; !ok && out != nil {
			s.cache[key] = out
			n++
		}
	}
	s.c.Recovered += int64(n)
	return n
}

// RetryAfter returns the backpressure hint for 429 responses.
func (s *Scheduler) RetryAfter() time.Duration { return s.opts.RetryAfter }

// Served is the result of one submission plus how it was produced.
type Served struct {
	Outcome   *Outcome
	Cached    bool // map lookup; no simulation ran for this submission
	Coalesced bool // shared an execution that was already in flight
}

// Submit runs (or recalls) one canonical request, blocking until the result
// is available or ctx is canceled. A canceled waiter abandons only the wait:
// the admitted execution still completes and populates the cache.
func (s *Scheduler) Submit(ctx context.Context, req *Request) (Served, error) {
	return s.submit(ctx, req, nil)
}

// SubmitStream is Submit with a progress subscription: epoch samples from
// the running simulation are sent to events (non-blocking; a slow consumer
// misses samples rather than stalling the machine). events is never closed
// by the scheduler. A cache hit produces no events.
func (s *Scheduler) SubmitStream(ctx context.Context, req *Request, events chan<- Progress) (Served, error) {
	return s.submit(ctx, req, events)
}

func (s *Scheduler) submit(ctx context.Context, req *Request, events chan<- Progress) (Served, error) {
	s.mu.Lock()
	s.c.Submitted++
	if s.closed {
		s.c.Rejected++
		s.mu.Unlock()
		return Served{}, ErrShuttingDown
	}
	if out, ok := s.cache[req.Key]; ok {
		s.c.CacheHits++
		s.mu.Unlock()
		return Served{Outcome: out, Cached: true}, nil
	}
	if qerr := s.quar.check(req.Key); qerr != nil {
		// Circuit open: serve the cached failure without touching a worker.
		s.c.QuarantineHits++
		s.mu.Unlock()
		return Served{}, qerr
	}
	if e, ok := s.inflight[req.Key]; ok {
		s.c.Coalesced++
		if events != nil {
			e.subs = append(e.subs, events)
		}
		s.incInFlight()
		s.mu.Unlock()
		return s.await(ctx, e, true)
	}
	if s.c.Queued >= s.opts.QueueCap {
		s.c.Rejected++
		s.mu.Unlock()
		return Served{}, ErrQueueFull
	}
	e := &entry{req: req, done: make(chan struct{})}
	if events != nil {
		e.subs = append(e.subs, events)
	}
	s.inflight[req.Key] = e
	client := req.Client
	if client == "" {
		client = "anon"
	}
	if _, ok := s.perClient[client]; !ok {
		s.ring = append(s.ring, client)
	}
	s.perClient[client] = append(s.perClient[client], e)
	s.c.Queued++
	if s.c.Queued > s.c.MaxQueued {
		s.c.MaxQueued = s.c.Queued
	}
	s.incInFlight()
	s.work.Signal()
	s.mu.Unlock()
	return s.await(ctx, e, false)
}

// incInFlight must run under mu.
func (s *Scheduler) incInFlight() {
	s.c.InFlight++
	if s.c.InFlight > s.c.MaxInFlight {
		s.c.MaxInFlight = s.c.InFlight
	}
}

func (s *Scheduler) await(ctx context.Context, e *entry, coalesced bool) (Served, error) {
	defer func() {
		s.mu.Lock()
		s.c.InFlight--
		s.mu.Unlock()
	}()
	select {
	case <-e.done:
		if e.err != nil {
			return Served{}, e.err
		}
		return Served{Outcome: e.out, Coalesced: coalesced}, nil
	case <-ctx.Done():
		return Served{}, ctx.Err()
	}
}

// worker executes admitted entries, fairly across clients, until Shutdown
// has closed admission and the queue is empty.
func (s *Scheduler) worker() {
	defer s.workers.Done()
	s.mu.Lock()
	for {
		e := s.popFair()
		if e == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.work.Wait()
			continue
		}
		s.c.Queued--
		s.c.Running++
		if s.c.Running > s.c.MaxRunning {
			s.c.MaxRunning = s.c.Running
		}
		s.mu.Unlock()

		out, err := s.execute(e)
		var jerr error
		if err == nil && s.opts.Journal != nil {
			// Durability before acknowledgment: the first waiter unblocks
			// only after the record is fsynced (group-committed under load).
			// A failed append is counted but still served — availability
			// over durability for the result already in hand.
			jerr = s.opts.Journal.Append(e.req.Key, out)
		}

		s.mu.Lock()
		s.c.Running--
		if jerr != nil {
			s.c.JournalErrors++
		}
		if err != nil {
			// Errors are returned to every waiter but not memoized: a
			// transient failure (or a fixed workload) should be retriable.
			e.err = err
			s.c.Errors++
			var pe *PanicError
			if errors.As(err, &pe) {
				s.c.Panics++
			}
			if errors.Is(err, ErrRunTimeout) || errors.Is(err, ErrRunStalled) {
				s.c.WatchdogKills++
			}
			if poisonous(err) {
				s.quar.record(e.req.Key, err)
			}
		} else {
			s.quar.clear(e.req.Key)
			s.cache[e.req.Key] = out
			s.c.Executed++
			e.out = out
		}
		delete(s.inflight, e.req.Key)
		close(e.done)
	}
}

// execute runs one entry under the crash-safety envelope: a recover that
// converts a runner panic into a structured *PanicError, and two timers that
// cancel the run's context past its deadline or stall window, the stall
// timer restarting at each progress event. The worker survives either way.
func (s *Scheduler) execute(e *entry) (out *Outcome, err error) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if d := s.opts.RunTimeout; d > 0 {
		deadline := time.AfterFunc(d, func() { cancel(fmt.Errorf("%w (%v)", ErrRunTimeout, d)) })
		defer deadline.Stop()
	}
	var stall *time.Timer
	if d := s.opts.StallTimeout; d > 0 {
		stall = time.AfterFunc(d, func() { cancel(fmt.Errorf("%w (no sample for %v)", ErrRunStalled, d)) })
		defer stall.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
			return
		}
		// A canceled run that still returned an error is attributed to the
		// timer that canceled it (the runner typically surfaces the
		// underlying engine cancellation); a run that beat the verdict with
		// a result keeps it. This runs before the deferred cancel(nil).
		if cause := context.Cause(ctx); cause != nil && err != nil {
			err = fmt.Errorf("%w (runner: %v)", cause, err)
			out = nil
		}
	}()
	return s.opts.Runner(&RunCtx{ctx}, e.req, func(p Progress) {
		if stall != nil {
			stall.Reset(s.opts.StallTimeout)
		}
		s.publish(e, p)
	})
}

// popFair removes and returns the next entry round-robin across clients, or
// nil when nothing is queued; must run under mu. The invariant throughout: a
// client has a perClient queue iff it appears in ring exactly once.
func (s *Scheduler) popFair() *entry {
	if len(s.ring) == 0 {
		return nil
	}
	if s.ringPos >= len(s.ring) {
		s.ringPos = 0
	}
	name := s.ring[s.ringPos]
	q := s.perClient[name]
	e := q[0]
	q[0] = nil
	if len(q) == 1 {
		delete(s.perClient, name)
		s.ring = append(s.ring[:s.ringPos], s.ring[s.ringPos+1:]...)
	} else {
		s.perClient[name] = q[1:]
		s.ringPos++
	}
	return e
}

// publish fans one progress event out to the entry's subscribers,
// non-blocking: a full subscriber channel drops the sample (progress is a
// UI hint, not a record).
func (s *Scheduler) publish(e *entry, p Progress) {
	s.mu.Lock()
	subs := make([]chan<- Progress, len(e.subs))
	copy(subs, e.subs)
	s.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// Snapshot returns current counters.
func (s *Scheduler) Snapshot() Counters {
	s.mu.Lock()
	c := s.c
	c.CacheEntries = len(s.cache)
	c.Clients = len(s.perClient)
	c.Quarantined = s.quar.open()
	s.mu.Unlock()
	return c
}

// QuarantineSnapshot lists every suspect and quarantined key for /status.
func (s *Scheduler) QuarantineSnapshot() []QuarantineEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quar.snapshot()
}

// JournalStats returns the journal's accounting, or nil when the scheduler
// runs without durability.
func (s *Scheduler) JournalStats() *JournalStats {
	if s.opts.Journal == nil {
		return nil
	}
	st := s.opts.Journal.Stats()
	return &st
}

// Shutdown stops admission and drains: every acknowledged request — queued
// or running — completes and its waiters are notified before Shutdown
// returns. Safe to call more than once.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}
