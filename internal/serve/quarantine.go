package serve

import (
	"fmt"
	"sort"
	"time"
)

// QuarantineError is the cached failure served for a quarantined request key
// (circuit-breaker open). The HTTP layer maps it to 503 with a Retry-After
// of the remaining TTL.
type QuarantineError struct {
	Key      string
	Until    time.Time
	Failures int
	LastErr  string
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("serve: request quarantined after %d poisonous failures until %s (last: %s)",
		e.Failures, e.Until.Format(time.RFC3339), e.LastErr)
}

// QuarantineEntry is the /status view of one suspect or quarantined key.
type QuarantineEntry struct {
	Key      string    `json:"key"`
	Failures int       `json:"failures"`
	Until    time.Time `json:"until,omitempty"` // zero: suspect, breaker not yet open
	LastErr  string    `json:"last_error"`
}

// quarantine is the poison-request circuit breaker: a key whose runs panic or
// hang K times is refused for a TTL, served the cached failure instead of
// burning another worker on it. After the TTL one probe is let through
// (half-open): success clears the record, another poisonous failure re-opens
// the breaker immediately. It runs under the scheduler's mutex.
type quarantine struct {
	k   int
	ttl time.Duration
	now func() time.Time // test seam
	m   map[string]*qrec
}

type qrec struct {
	failures int
	until    time.Time // zero while the breaker is closed
	lastErr  string
}

func newQuarantine(k int, ttl time.Duration) quarantine {
	return quarantine{k: k, ttl: ttl, now: time.Now, m: make(map[string]*qrec)}
}

// check admits or refuses a key. A non-nil result is the cached failure to
// serve. An expired breaker flips to half-open: the probe is admitted with
// the failure count rewound to one-below-K, so a single further poisonous
// failure re-opens it.
func (q *quarantine) check(key string) *QuarantineError {
	rec, ok := q.m[key]
	if !ok || rec.until.IsZero() {
		return nil
	}
	if q.now().Before(rec.until) {
		return &QuarantineError{Key: key, Until: rec.until, Failures: rec.failures, LastErr: rec.lastErr}
	}
	rec.until = time.Time{}
	rec.failures = q.k - 1
	return nil
}

// record counts one poisonous failure, opening the breaker at the K-th.
func (q *quarantine) record(key string, err error) {
	rec, ok := q.m[key]
	if !ok {
		rec = &qrec{}
		q.m[key] = rec
	}
	rec.failures++
	rec.lastErr = err.Error()
	if rec.failures >= q.k && rec.until.IsZero() {
		rec.until = q.now().Add(q.ttl)
	}
}

// clear forgets a key after a successful run (closes the breaker).
func (q *quarantine) clear(key string) { delete(q.m, key) }

// snapshot returns every suspect and quarantined key, sorted for stable
// /status output.
func (q *quarantine) snapshot() []QuarantineEntry {
	out := make([]QuarantineEntry, 0, len(q.m))
	for key, rec := range q.m {
		out = append(out, QuarantineEntry{Key: key, Failures: rec.failures, Until: rec.until, LastErr: rec.lastErr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// open reports how many breakers are open now.
func (q *quarantine) open() int {
	n := 0
	now := q.now()
	for _, rec := range q.m {
		if !rec.until.IsZero() && now.Before(rec.until) {
			n++
		}
	}
	return n
}
