package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"ndpgpu/internal/serve"
	"ndpgpu/internal/stats"
)

// servePhase drives a server from several clients at once: with a stub
// simulator it must see hits and misses, no failures, and a span per
// request. Run with -race, this covers the clients' shared tracer.
func TestServePhaseClosedLoop(t *testing.T) {
	stub := func(_ *serve.RunCtx, req *serve.Request, _ func(serve.Progress)) (*serve.Outcome, error) {
		st := &stats.Stats{IssuedInstrs: 1000, SMCycles: 100}
		return &serve.Outcome{Digest: map[string]float64{"len": float64(len(req.Key)), "seed": float64(req.Cfg.Mem.PlacementSeed)}, Stats: st, Wall: time.Millisecond}, nil
	}
	sched := serve.New(serve.Options{Workers: 2, Runner: stub})
	defer sched.Shutdown()
	cold := map[string]string{}
	for _, rr := range warmRequests(5) {
		req, err := serve.Canonicalize(&rr)
		if err != nil {
			t.Fatal(err)
		}
		served, err := sched.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		cold[req.Key] = digestString(served.Outcome.Digest)
	}
	ts := httptest.NewServer(serve.NewServer(sched))
	defer ts.Close()

	tr := &tracer{origin: time.Now()}
	plans := []*plan{newPlan(5, 0), newPlan(5, 1)}
	samples, elapsed, problems := servePhase(ts.URL, plans, cold, 300*time.Millisecond, tr)
	if len(problems) > 0 {
		t.Fatalf("problems: %v", problems)
	}
	if elapsed < 300*time.Millisecond {
		t.Errorf("phase took %v, shorter than its window", elapsed)
	}
	ps := phaseSummary(samples, elapsed)
	if len(ps.hitLat) == 0 || len(ps.missLat) == 0 || ps.failed != 0 {
		t.Fatalf("hits %d, misses %d, failed %d; want hits and misses and no failures", len(ps.hitLat), len(ps.missLat), ps.failed)
	}
	if len(tr.spans) != len(samples) {
		t.Errorf("%d spans for %d requests", len(tr.spans), len(samples))
	}

	// A hit whose digest disagrees with its cold digest is a failure.
	for k := range cold {
		cold[k] = "tampered"
	}
	if _, _, problems := servePhase(ts.URL, []*plan{newPlan(5, 0)}, cold, 50*time.Millisecond, nil); len(problems) == 0 {
		t.Error("hits with tampered cold digests were not reported")
	}
}
