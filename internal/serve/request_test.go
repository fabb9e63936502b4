package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"ndpgpu/internal/config"
)

func TestParseRunRequestMinimal(t *testing.T) {
	req, err := ParseRunRequest([]byte(`{"workload":"VADD"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Workload != "VADD" || req.ModeSpec != "baseline" || req.Scale != 1 {
		t.Fatalf("bad canonical request: %+v", req)
	}
	if req.Mode.NDP {
		t.Fatal("default mode should be baseline (no NDP)")
	}
	if len(req.Key) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", req.Key)
	}
	def, _ := config.Canonical(config.Default())
	got, _ := config.Canonical(req.Cfg)
	if string(def) != string(got) {
		t.Fatal("minimal request should resolve to the default config")
	}
}

func TestParseRunRequestErrors(t *testing.T) {
	cases := map[string]string{
		"empty object":       `{}`,
		"malformed":          `{"workload":`,
		"trailing garbage":   `{"workload":"VADD"} {"x":1}`,
		"unknown field":      `{"workload":"VADD","wokload":"x"}`,
		"unknown workload":   `{"workload":"NOPE"}`,
		"unknown mode":       `{"workload":"VADD","mode":"turbo"}`,
		"bad static ratio":   `{"workload":"VADD","mode":"static=1.5"}`,
		"unknown override":   `{"workload":"VADD","overrides":{"gpu.nope":1}}`,
		"fractional smcount": `{"workload":"VADD","overrides":{"gpu.numsms":2.5}}`,
		"invalid config":     `{"workload":"VADD","overrides":{"gpu.numsms":-3}}`,
		"bad faults":         `{"workload":"VADD","faults":"meteor:t=0"}`,
		"negative scale":     `{"workload":"VADD","scale":-1}`,
		"huge scale":         `{"workload":"VADD","scale":99999999}`,
		"unknown cfg field":  `{"workload":"VADD","config":{"Bogus":1}}`,
		"removed scheduler":  `{"workload":"VADD","config":{"GPU":{"SchedulerKind":"gto"}}}`,
	}
	for name, body := range cases {
		if _, err := ParseRunRequest([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// TestRemovedExecutorKnobsRejected: the sharded executor's overrides and
// Config fields no longer exist, so naming one is a client error whose
// message lists the valid overrides, never a silently ignored knob.
func TestRemovedExecutorKnobsRejected(t *testing.T) {
	for _, name := range []string{"parallel", "fusionwidth"} {
		_, err := ParseRunRequest([]byte(`{"workload":"VADD","overrides":{"` + name + `":4}}`))
		if err == nil || !strings.Contains(err.Error(), "valid: ") || !strings.Contains(err.Error(), "gpu.numsms") {
			t.Errorf("override %s: err = %v, want an unknown-override error listing the valid ones", name, err)
		}
	}
	for _, field := range []string{"Parallel", "FusionWidth", "NoQuiescentBatch"} {
		if _, err := ParseRunRequest([]byte(`{"workload":"VADD","config":{"` + field + `":1}}`)); err == nil {
			t.Errorf("config field %s accepted", field)
		}
	}
}

// TestCanonicalKeyOrderInsensitive pins the cache-key contract: override
// order, mode spelling, and irrelevant fields (client) must not change the
// key; anything that changes the simulation must.
func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		req, err := ParseRunRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return req.Key
	}

	a := key(`{"workload":"VADD","mode":"dyn","overrides":{"gpu.numsms":8,"nsu.clockmhz":175}}`)
	b := key(`{"workload":"VADD","mode":"dyn","overrides":{"nsu.clockmhz":175,"gpu.numsms":8}}`)
	if a != b {
		t.Fatal("override order changed the key")
	}
	if c := key(`{"client":"alice","workload":"VADD","mode":"dyn","overrides":{"gpu.numsms":8,"nsu.clockmhz":175}}`); c != a {
		t.Fatal("client identity leaked into the key")
	}
	if c := key(`{"workload":"VADD","mode":"static=0.50"}`); c != key(`{"workload":"VADD","mode":"static=0.5"}`) {
		t.Fatal("static-ratio spelling changed the key")
	}
	if c := key(`{"workload":"VADD"}`); c != key(`{"workload":"VADD","mode":"baseline","scale":1}`) {
		t.Fatal("explicit defaults changed the key")
	}

	// Distinct runs must get distinct keys.
	distinct := []string{
		`{"workload":"VADD","mode":"dyn"}`,
		`{"workload":"VADD","mode":"naive"}`,
		`{"workload":"VADD","mode":"static=0"}`, // NDP machinery at ratio 0 != baseline
		`{"workload":"BFS","mode":"dyn"}`,
		`{"workload":"VADD","mode":"dyn","seed":7}`,
		`{"workload":"VADD","mode":"dyn","scale":2}`,
		`{"workload":"VADD","mode":"dyn","overrides":{"gpu.numsms":8}}`,
		`{"workload":"VADD","mode":"dyn","faults":"drop:p=0.01;seed=3"}`,
	}
	seen := map[string]string{}
	for _, body := range distinct {
		k := key(body)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", prev, body)
		}
		seen[k] = body
	}
}

// TestCanonicalizeMatchesReserialization: parsing a request, re-marshaling
// the wire struct (which sorts map keys), and parsing again must preserve
// the key — the round-trip every coalescing client relies on.
func TestCanonicalizeMatchesReserialization(t *testing.T) {
	body := `{"workload":"FWT","mode":"dyncache","seed":11,"scale":2,` +
		`"overrides":{"nsu.clockmhz":700,"gpu.numsms":16,"ndp.epochcycles":2000},` +
		`"faults":"linkdown:t=2000000:hmc=0:dim=1;drop:p=0.01;seed=7"}`
	req1, err := ParseRunRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RunRequest
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	req2, err := ParseRunRequest(re)
	if err != nil {
		t.Fatalf("re-marshaled request rejected: %v\n%s", err, re)
	}
	if req1.Key != req2.Key {
		t.Fatalf("key changed across re-serialization:\n%s\n%s", req1.Key, req2.Key)
	}
}

func TestParseRunRequestFullConfig(t *testing.T) {
	cfg := config.Default()
	cfg.GPU.NumSMs = 4
	body, err := json.Marshal(RunRequest{Workload: "VADD", Mode: "naive", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseRunRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if req.Cfg.GPU.NumSMs != 4 {
		t.Fatalf("full config not honored: NumSMs = %d", req.Cfg.GPU.NumSMs)
	}
	// Same run spelled as default-config + override must share the key.
	req2, err := ParseRunRequest([]byte(`{"workload":"VADD","mode":"naive","overrides":{"gpu.numsms":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Key != req2.Key {
		t.Fatal("full-config and override spellings of the same run disagree on the key")
	}
}

func TestParseRunRequestSeedAndFaults(t *testing.T) {
	req, err := ParseRunRequest([]byte(
		`{"workload":"VADD","mode":"dyn","seed":9,"faults":"vaultfreeze:t=1000000:hmc=1:vault=5:dur=6000000;timeout=2000;retries=3"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Cfg.Mem.PlacementSeed != 9 || req.Cfg.NDP.DecisionSeed != 9 {
		t.Fatalf("seed not folded into config: %+v", req.Cfg.Mem)
	}
	if len(req.Cfg.Fault.Events) != 1 || req.Cfg.Fault.Events[0].Kind != "vaultfreeze" {
		t.Fatalf("fault schedule not folded in: %+v", req.Cfg.Fault)
	}
	if req.Cfg.Fault.TimeoutCycles != 2000 || req.Cfg.Fault.MaxRetries != 3 {
		t.Fatalf("protocol knobs not folded in: %+v", req.Cfg.Fault)
	}
}

func TestParseRunRequestMoreCore(t *testing.T) {
	req, err := ParseRunRequest([]byte(`{"workload":"VADD","mode":"morecore"}`))
	if err != nil {
		t.Fatal(err)
	}
	def := config.Default()
	if req.Cfg.GPU.NumSMs != def.GPU.NumSMs+def.NumHMCs {
		t.Fatalf("morecore adjustment missing: NumSMs = %d", req.Cfg.GPU.NumSMs)
	}
	// Canonical spelling is baseline (the adjustment lives in the config),
	// so re-canonicalizing never double-applies it.
	if req.ModeSpec != "baseline" {
		t.Fatalf("morecore canonical spec = %q", req.ModeSpec)
	}
	plain, _ := ParseRunRequest([]byte(`{"workload":"VADD"}`))
	if req.Key == plain.Key {
		t.Fatal("morecore and baseline share a key")
	}
}

func TestRequestKeyStable(t *testing.T) {
	// The key is part of the service's persistent cache contract; pin one
	// so accidental canonicalization changes are loud. (Updating this pin
	// is fine when intentional — it invalidates every cache, which a
	// release note should mention.)
	req, err := ParseRunRequest([]byte(`{"workload":"VADD"}`))
	if err != nil {
		t.Fatal(err)
	}
	again, _ := ParseRunRequest([]byte(`{"workload":"VADD"}`))
	if req.Key != again.Key {
		t.Fatal("key not deterministic across parses")
	}
	if !strings.EqualFold(req.Key, req.Key) || strings.ToLower(req.Key) != req.Key {
		t.Fatal("key should be lower-case hex")
	}
}
