package experiments

import (
	"fmt"

	"ndpgpu/internal/config"
	"ndpgpu/internal/energy"
	"ndpgpu/internal/serve"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/timing"
)

// ServeRunner adapts the experiments execution path into the ndpserve
// scheduler's Runner seam: one call builds the workload, runs the machine,
// verifies the output, and returns the result in the golden-digest format
// (goldenDigest, exactly what GoldenDigests emits, so a served digest is
// comparable byte-for-byte with the committed regression file).
//
// Progress events come from the epoch-sampled metrics layer, which is a
// strict no-op on results by contract (TestMetricsDisabledNoOp), so enabling
// it for streaming cannot perturb the digest the cache memoizes.
func ServeRunner() serve.Runner {
	return func(rc *serve.RunCtx, req *serve.Request, progress func(serve.Progress)) (*serve.Outcome, error) {
		prep := func(m *sim.Machine) {
			// Hand the watchdog its stop hook: a deadline or stall verdict
			// cancels the engine cooperatively at its next step barrier.
			rc.OnCancel(m.Cancel)
			if progress == nil {
				return
			}
			mc := m.EnableMetrics(0) // default: the Algorithm-1 epoch
			mc.SetSampleHook(func(now timing.PS, cycles int64) {
				progress(serve.Progress{Cycles: cycles, TimePS: int64(now)})
			})
		}
		run := RunOneWith(req.Cfg, req.Workload, req.Mode, req.Scale, prep)
		if run.Err != nil {
			return nil, run.Err
		}
		return &serve.Outcome{
			Digest:   goldenDigest(run),
			Stats:    run.Stats,
			TimePS:   int64(run.TimePS),
			EnergyPJ: run.Energy.Total(),
			Wall:     run.Wall,
		}, nil
	}
}

// UseServer installs an Exec seam that routes every RunOne through a running
// ndpserve instance (ndpsweep -server): the request ships the job's full
// resolved Config plus the mode's canonical spelling, and the response's
// statistics bundle rebuilds the Run client-side — energy is recomputed
// locally from the returned counters, which is exact because the energy
// model is a pure function of (stats, config, mode). Repeated sweep points
// cost the server a map lookup.
func UseServer(baseURL, client string) error {
	c := serve.NewClient(baseURL)
	if err := c.Healthz(); err != nil {
		return err
	}
	Exec = func(cfg config.Config, abbr string, mode sim.Mode, scale int) *Run {
		run := &Run{Workload: abbr, Mode: mode.Name, Cfg: cfg}
		resp, st, err := c.Run(serve.RunRequest{
			Workload: abbr,
			Mode:     sim.SpecFor(mode),
			Scale:    scale,
			Config:   &cfg,
			Client:   client,
		})
		if err != nil {
			run.Err = fmt.Errorf("%s/%s: served run: %w", abbr, mode.Name, err)
			return run
		}
		if st == nil {
			run.Err = fmt.Errorf("%s/%s: server returned no statistics bundle", abbr, mode.Name)
			return run
		}
		run.Stats = st
		run.TimePS = timing.PS(resp.TimePS)
		run.Energy = energy.Compute(st, cfg, energy.DefaultParams(), mode.NDP)
		return run
	}
	return nil
}

// UseLocal removes an installed Exec seam, restoring local execution.
func UseLocal() { Exec = nil }
