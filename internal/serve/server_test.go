package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer stands up the full HTTP stack over a stub simulator.
func newTestServer(t *testing.T, stub *stubSim, opts Options) (*httptest.Server, *Scheduler) {
	t.Helper()
	opts.Runner = stub.runner()
	sched := New(opts)
	ts := httptest.NewServer(NewServer(sched))
	t.Cleanup(func() {
		ts.Close()
		sched.Shutdown()
	})
	return ts, sched
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, *RunResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding /run response: %v", err)
	}
	return resp, &rr
}

func TestServeRunRoundTrip(t *testing.T) {
	stub := newStubSim(5 * time.Millisecond)
	ts, _ := newTestServer(t, stub, Options{Workers: 2, QueueCap: 16})

	resp, rr := postRun(t, ts, `{"workload":"VADD","mode":"dyn","seed":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rr.Cached || rr.Workload != "VADD" || rr.Mode != "dyn" || rr.Scale != 1 {
		t.Fatalf("bad response: %+v", rr)
	}
	if rr.TimePS != 42 || rr.Digest["TimePS"] != 42 {
		t.Fatalf("stub outcome not round-tripped: %+v", rr)
	}
	if len(rr.Key) != 64 {
		t.Fatalf("key %q", rr.Key)
	}

	_, again := postRun(t, ts, `{"workload":"VADD","mode":"dyn","seed":3}`)
	if !again.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if again.Key != rr.Key {
		t.Fatal("repeat request got a different key")
	}
	if got := stub.execCount(rr.Key); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
}

func TestServeErrorStatuses(t *testing.T) {
	stub := newStubSim(0)
	ts, _ := newTestServer(t, stub, Options{Workers: 1, QueueCap: 4})

	type errCase struct {
		name   string
		method string
		body   string
		want   int
		msg    string // the error message names the problem
	}
	cases := []errCase{
		{"get not allowed", http.MethodGet, "", http.StatusMethodNotAllowed, ""},
		{"malformed json", http.MethodPost, `{"workload":`, http.StatusBadRequest, ""},
		{"unknown workload", http.MethodPost, `{"workload":"NOPE"}`, http.StatusBadRequest, ""},
		{"unknown field", http.MethodPost, `{"workload":"VADD","bogus":1}`, http.StatusBadRequest, ""},
		{"removed overrides field", http.MethodPost, `{"workload":"VADD","overrides":{"gpu.numsms":8}}`,
			http.StatusBadRequest, "overrides"},
		{"removed StackXlat", http.MethodPost, patchBody("Arch.StackXlat", "true"), http.StatusBadRequest, "StackXlat"},
		{"removed OverflowCap", http.MethodPost, patchBody("HMC.OverflowCap", "64"), http.StatusBadRequest, "OverflowCap"},
		{"unknown backend", http.MethodPost, patchBody("Arch.Backend", `"no-such-arch"`),
			http.StatusBadRequest, "paper|coda|coda-ft|ndpage"},
		{"oversize body", http.MethodPost, `{"workload":"VADD","faults":"` +
			strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, ""},
		{"negative rand count", http.MethodPost, `{"workload":"VADD","faults":"rand:seed=1:n=-1"}`,
			http.StatusBadRequest, "n=-1 out of range"},
		{"windowed nsufail", http.MethodPost, `{"workload":"VADD","faults":"nsufail:t=1:hmc=0:dur=5"}`,
			http.StatusBadRequest, "nsufail is permanent"},
		{"linkdown dim out of range", http.MethodPost, `{"workload":"VADD","faults":"linkdown:t=1:hmc=0:dim=3"}`,
			http.StatusBadRequest, "dim 3 out of range"},
	}
	// Config patches that once panicked in a constructor, hung until the
	// simulated time limit, or ran with an infinite, negative or overflowing
	// link time. Each path is a former override name.
	for _, ov := range []struct{ path, val, field string }{
		{"nsu.numwarps", "-1", "NSU.NumWarps"},
		{"nsu.numwarps", "0", "NSU.NumWarps"},
		{"gpu.tlbentries", "0", "GPU.TLBEntries"},
		{"gpu.tlbentries", "-1", "GPU.TLBEntries"},
		{"gpu.tlbentries", "3", "GPU.TLBEntries"},
		{"gpu.tlbentries", "12", "GPU.TLBEntries"},
		{"gpu.l2.sizebytes", "2048", "GPU.L2.SizeBytes"},
		{"nsu.readonlycachebytes", "100", "NSU.ReadOnlyCacheBytes"},
		{"nsu.readonlycachebytes", "3000", "NSU.ReadOnlyCacheBytes"},
		{"hmc.vaultqueue", "0", "HMC.VaultQueue"},
		{"hmc.vaultqueue", "-1", "HMC.VaultQueue"},
		{"ndp.pendingentries", "0", "NDP.PendingEntries"},
		{"ndp.pendingentries", "-1", "NDP.PendingEntries"},
		{"gpu.linkgbps", "0", "GPU.LinkGBps"},
		{"gpu.linkgbps", "-20", "GPU.LinkGBps"},
		{"hmc.netlinkgbps", "0", "HMC.NetLinkGBps"},
		{"hmc.netlinkgbps", "-5", "HMC.NetLinkGBps"},
		{"gpu.linkgbps", "1e-6", "GPU.LinkGBps"},
		{"gpu.linkgbps", "1e-17", "GPU.LinkGBps"},
		{"gpu.linkgbps", "1.2", "GPU.LinkGBps"},
		{"hmc.netlinkgbps", "1e-6", "HMC.NetLinkGBps"},
		{"hmc.netlinkgbps", "1e-17", "HMC.NetLinkGBps"},
		{"hmc.netlinkgbps", "1.2", "HMC.NetLinkGBps"},
		{"gpu.maxctaspersm", "0", "GPU.MaxCTAsPerSM"},
		{"gpu.maxctaspersm", "-1", "GPU.MaxCTAsPerSM"},
		{"numhmcs", "16", "HMC.NetLinksPerHMC"},
		// Counts a constructor allocates per entry, past 16x their defaults.
		{"gpu.tlbentries", "1073741824", "GPU.TLBEntries"},
		{"nsu.numwarps", "2147483647", "NSU.NumWarps"},
		{"gpu.numsms", "2147483647", "GPU.NumSMs"},
		{"gpu.l2.sizebytes", "67108864", "GPU.L2.SizeBytes"},
		{"hmc.numvaults", "512", "HMC.NumVaults"},
		{"nsu.readonlycachebytes", "262144", "NSU.ReadOnlyCacheBytes"},
		{"arch.stacktlbentries", "1024", "Arch.StackTLBEntries"},
		// Counts that, at zero, took a worker and hung it or failed in it.
		{"gpu.numalus", "0", "GPU.NumALUs"},
		{"nsu.cmdentries", "0", "NSU.CmdEntries"},
	} {
		cases = append(cases, errCase{"config " + ov.path + "=" + ov.val, http.MethodPost,
			patchBody(ov.path, ov.val), http.StatusBadRequest, ov.field})
	}
	// A config naming a field the model does not have is an unknown field:
	// the warp width is the constant config.WarpWidth, the L2 slices tick on
	// the crossbar clock, the NSU constant cache always hits, and packet
	// sizes are core constants.
	for _, f := range []struct{ section, field string }{
		{"GPU", "WarpWidth"},
		{"NSU", "WarpWidth"},
		{"GPU", "L2ClockMHz"},
		{"NSU", "ConstCacheBytes"},
		{"NDP", "HeaderBytes"},
		{"NDP", "WordBytes"},
	} {
		cases = append(cases, errCase{"config " + f.section + "." + f.field, http.MethodPost,
			patchBody(f.section+"."+f.field, "64"), http.StatusBadRequest, f.field})
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+"/run", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if resp.StatusCode != http.StatusOK {
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Errorf("%s: error response carries no JSON envelope (%v)", tc.name, err)
			}
			if !strings.Contains(eb.Error, tc.msg) {
				t.Errorf("%s: error %q does not name %q", tc.name, eb.Error, tc.msg)
			}
		}
		resp.Body.Close()
	}
}

func TestServeBackpressure429(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	ts, sched := newTestServer(t, stub, Options{
		Workers: 1, QueueCap: 1, RetryAfter: 3 * time.Second})

	// Fill the system: one running, one queued — sequenced so each
	// admission's queue check is deterministic.
	results := make(chan int, 2)
	post := func(seed string) {
		resp, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(`{"workload":"VADD","mode":"dyn","seed":`+seed+`}`))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		results <- resp.StatusCode
	}
	go post("1")
	waitSnapshot(t, sched, "running", func(c Counters) bool { return c.Running == 1 })
	go post("2")
	waitSnapshot(t, sched, "queued", func(c Counters) bool { return c.Queued == 1 })

	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"VADD","mode":"dyn","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", got)
	}

	close(stub.gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("acknowledged request finished with %d", code)
		}
	}
}

func TestServeShutdown503(t *testing.T) {
	stub := newStubSim(0)
	ts, sched := newTestServer(t, stub, Options{Workers: 1, QueueCap: 4})
	sched.Shutdown()
	resp, _ := postRun(t, ts, `{"workload":"VADD"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", resp.StatusCode)
	}
}

func TestServeStatusAndMetrics(t *testing.T) {
	stub := newStubSim(0)
	ts, _ := newTestServer(t, stub, Options{Workers: 2, QueueCap: 16})
	postRun(t, ts, `{"workload":"VADD","mode":"dyn"}`)
	postRun(t, ts, `{"workload":"VADD","mode":"dyn"}`) // cache hit

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		UptimeSec float64  `json:"uptime_sec"`
		Counters  Counters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Counters.Executed != 1 || status.Counters.CacheHits != 1 {
		t.Fatalf("status counters: %+v", status.Counters)
	}
	if status.Counters.CacheEntries != 1 {
		t.Fatalf("cache entries = %d", status.Counters.CacheEntries)
	}

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
		"ndpserve_executed_total 1",
		"ndpserve_cache_hits_total 1",
		"ndpserve_cache_entries 1",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("metrics missing %q:\n%s", want, joined)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hresp.StatusCode)
	}
}

// TestServeSSEStream: ?stream=1 yields progress events (fed by the metrics
// sample hook in production; by the stub here) then a final result event
// identical in content to a plain POST.
func TestServeSSEStream(t *testing.T) {
	stub := newStubSim(5 * time.Millisecond)
	ts, _ := newTestServer(t, stub, Options{Workers: 1, QueueCap: 4})

	resp, err := http.Post(ts.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"workload":"VADD","mode":"dyn","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	var events []string
	var datas []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, after)
		}
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			datas = append(datas, after)
		}
	}
	if len(events) == 0 || events[len(events)-1] != "result" {
		t.Fatalf("stream did not end in a result event: %v", events)
	}
	sawProgress := false
	for i, ev := range events {
		if ev == "progress" {
			sawProgress = true
			var p Progress
			if err := json.Unmarshal([]byte(datas[i]), &p); err != nil {
				t.Fatalf("bad progress payload %q: %v", datas[i], err)
			}
			if p.Cycles != 4000 {
				t.Fatalf("progress payload: %+v", p)
			}
		}
	}
	if !sawProgress {
		t.Fatal("no progress events before the result")
	}
	var rr RunResponse
	if err := json.Unmarshal([]byte(datas[len(datas)-1]), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Workload != "VADD" || rr.Cached || rr.TimePS != 42 {
		t.Fatalf("streamed result: %+v", rr)
	}

	// Accept: text/event-stream also selects SSE, and a cache hit streams
	// just the result (no progress — nothing ran).
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run",
		strings.NewReader(`{"workload":"VADD","mode":"dyn","seed":5}`))
	req.Header.Set("Accept", "text/event-stream")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body := new(strings.Builder)
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		body.WriteString(sc2.Text() + "\n")
	}
	if strings.Contains(body.String(), "event: progress") {
		t.Fatal("cache hit produced progress events")
	}
	if !strings.Contains(body.String(), "event: result") {
		t.Fatalf("cache hit stream:\n%s", body.String())
	}
	if !strings.Contains(body.String(), `"cached":true`) {
		t.Fatal("streamed cache hit not marked cached")
	}
}

// TestServeClientRoundTrip drives the Go client (ndpsweep -server transport)
// against the live stack, including transparent 429 retry.
func TestServeClientRoundTrip(t *testing.T) {
	stub := newStubSim(0)
	ts, _ := newTestServer(t, stub, Options{Workers: 2, QueueCap: 16})
	c := NewClient(ts.URL)
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	resp, _, err := c.Run(RunRequest{Workload: "VADD", Mode: "dyn", Seed: 9, Client: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Digest["TimePS"] != 42 {
		t.Fatalf("client response: %+v", resp)
	}
	resp2, _, err := c.Run(RunRequest{Workload: "VADD", Mode: "dyn", Seed: 9, Client: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("client repeat not cached")
	}
	if _, _, err := c.Run(RunRequest{Workload: "NOPE"}); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("bad request error: %v", err)
	}
}

// TestServeXClientFairnessIdentity: the X-Client header sets the fairness
// identity when the body carries none.
func TestServeXClientFairnessIdentity(t *testing.T) {
	stub := newStubSim(0)
	stub.gate = make(chan struct{})
	ts, sched := newTestServer(t, stub, Options{Workers: 1, QueueCap: 16})

	var wg sync.WaitGroup
	post := func(seed, client string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run",
				strings.NewReader(`{"workload":"VADD","mode":"dyn","seed":`+seed+`}`))
			req.Header.Set("X-Client", client)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	post("1", "alice")
	waitSnapshot(t, sched, "running", func(c Counters) bool { return c.Running == 1 })
	post("2", "alice")
	waitSnapshot(t, sched, "alice queued", func(c Counters) bool { return c.Queued == 1 })
	post("3", "bob")
	waitSnapshot(t, sched, "two clients", func(c Counters) bool { return c.Clients == 2 })

	close(stub.gate)
	wg.Wait()
	if snap := sched.Snapshot(); snap.Executed != 3 {
		t.Fatalf("executed %d, want 3", snap.Executed)
	}
}
