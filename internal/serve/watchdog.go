package serve

import (
	"errors"
	"fmt"
)

// Watchdog sentinels — the poisonous failure classes that, repeated, send a
// request key to quarantine.
var (
	// ErrRunTimeout marks a run canceled for exceeding its total deadline
	// (Options.RunTimeout).
	ErrRunTimeout = errors.New("serve: run exceeded its deadline")
	// ErrRunStalled marks a run canceled for emitting no progress samples
	// within the stall window (Options.StallTimeout).
	ErrRunStalled = errors.New("serve: run stopped making progress")
)

// PanicError is a runner panic converted into a structured per-run error:
// the recovered value plus the goroutine stack at the point of the panic.
// The server maps it to a 500 with the panic value in the error JSON; the
// worker that caught it keeps serving.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("serve: runner panicked: %v", e.Value) }

// poisonous reports whether a run failure counts toward quarantine: panics
// and watchdog kills poison their key, ordinary run errors (bad workload,
// fault-schedule validation) do not.
func poisonous(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) || errors.Is(err, ErrRunTimeout) || errors.Is(err, ErrRunStalled)
}
