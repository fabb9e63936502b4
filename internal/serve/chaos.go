package serve

import (
	"errors"
	"fmt"
)

// Chaos client names that trigger injected failures under ChaosRunner.
const (
	// ChaosPanicClient makes the runner panic inside the worker.
	ChaosPanicClient = "chaos-panic"
	// ChaosHangClient makes the runner block without emitting progress until
	// the watchdog cancels it — a stand-in for a wedged timing engine.
	ChaosHangClient = "chaos-hang"
)

// ChaosRunner wraps a Runner with client-triggered fault injection for the
// kill-and-restart chaos harness (`ndpserve -chaos`): a request whose Client
// is ChaosPanicClient panics in the worker, ChaosHangClient hangs without
// progress until canceled. Any other request passes through untouched. The
// triggers ride on Client — which is excluded from the request key — so the
// harness uses dedicated seeds to keep poisoned keys away from real ones.
// Production servers must not enable it.
func ChaosRunner(next Runner) Runner {
	return func(rc *RunCtx, req *Request, progress func(Progress)) (*Outcome, error) {
		switch req.Client {
		case ChaosPanicClient:
			panic(fmt.Sprintf("chaos: injected panic for key %.8s", req.Key))
		case ChaosHangClient:
			<-rc.Done() // no progress: only the deadline or stall timer ends this
			return nil, errors.New("chaos: hang interrupted")
		}
		return next(rc, req, progress)
	}
}
