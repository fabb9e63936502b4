package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ndpgpu/internal/config"
	"ndpgpu/internal/fault"
	"ndpgpu/internal/sim"
	"ndpgpu/internal/workloads"
)

// MaxScale bounds the problem-size scale a request may ask for; a runaway
// scale is an admission-time client error, not a worker-pool stall.
const MaxScale = 1 << 20

// RunRequest is the wire form of one simulation request (POST /run). All
// fields but Workload are optional; unknown fields are rejected.
type RunRequest struct {
	// Workload is the Table 1 abbreviation (VADD, BFS, ...).
	Workload string `json:"workload"`
	// Mode is the CLI mode spelling (baseline|morecore|naive|static=<p>|
	// dyn|dyncache); empty means baseline.
	Mode string `json:"mode,omitempty"`
	// Scale is the problem-size scale factor; values below 1 mean 1.
	Scale int `json:"scale,omitempty"`
	// Seed, when nonzero, overrides both the page-placement and the
	// offload-decision PRNG seeds.
	Seed int64 `json:"seed,omitempty"`
	// Faults is a fault schedule in the -faults DSL (see internal/fault).
	Faults string `json:"faults,omitempty"`
	// Config is the base configuration the mode, seed and faults are
	// applied to; nil means config.Default(). On the wire it is a patch:
	// ParseRunRequest decodes it over the Table 2 defaults, so the fields a
	// request names replace their defaults and the rest keep them. Field
	// names follow internal/config, matched case-insensitively.
	Config *config.Config `json:"config,omitempty"`
	// Client identifies the submitter for round-robin fairness; falls back
	// to the X-Client header, then the remote address.
	Client string `json:"client,omitempty"`
}

// Request is the canonical, fully-resolved form of a RunRequest: the mode
// spelling normalized, the base configuration with mode adjustment, seed,
// and fault schedule folded in, and the content-digest key computed over the
// result. Two RunRequests that mean the same run — however they spelled it —
// resolve to the same Key.
type Request struct {
	Workload string
	ModeSpec string // canonical spelling (e.g. "static=0.5", never "static=0.50")
	Mode     sim.Mode
	Scale    int
	Cfg      config.Config
	Client   string
	Key      string // hex SHA-256 over the canonical serialization
}

// ParseRunRequest decodes and canonicalizes one request body. The config
// patch is decoded over a copy of config.Default(). Unknown fields at any
// depth, trailing data, unknown workloads or modes, malformed fault
// schedules, and inconsistent configurations are all errors; no input panics.
func ParseRunRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	base := config.Default()
	rr := RunRequest{Config: &base}
	if err := dec.Decode(&rr); err != nil {
		return nil, fmt.Errorf("bad request JSON: %w", err)
	}
	// More() alone misses trailing bytes that are not a valid token start
	// (a stray '}', say); require a clean EOF like strict json.Unmarshal.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing data after request object")
	}
	return Canonicalize(&rr)
}

// Canonicalize resolves a RunRequest into its canonical Request.
func Canonicalize(rr *RunRequest) (*Request, error) {
	if rr.Workload == "" {
		return nil, errors.New("missing workload")
	}
	if !knownWorkload(rr.Workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", rr.Workload, workloads.Abbrs())
	}
	if rr.Scale < 0 || rr.Scale > MaxScale {
		return nil, fmt.Errorf("scale %d out of range [0,%d]", rr.Scale, MaxScale)
	}

	base := config.Default()
	if rr.Config != nil {
		base = *rr.Config
	}
	spec := rr.Mode
	if spec == "" {
		spec = "baseline"
	}
	mode, cfg, err := sim.ParseMode(spec, base)
	if err != nil {
		return nil, err
	}
	if rr.Seed != 0 {
		cfg.Mem.PlacementSeed = rr.Seed
		cfg.NDP.DecisionSeed = rr.Seed
	}
	if rr.Faults != "" {
		fc, err := fault.Parse(rr.Faults, cfg.NumHMCs, cfg.HMC.NumVaults)
		if err != nil {
			return nil, fmt.Errorf("bad fault schedule: %w", err)
		}
		cfg.Fault = fc
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}

	req := &Request{
		Workload: rr.Workload,
		ModeSpec: sim.SpecFor(mode),
		Mode:     mode,
		Scale:    max(rr.Scale, 1),
		Cfg:      cfg,
		Client:   rr.Client,
	}
	key, err := requestKey(req)
	if err != nil {
		return nil, err
	}
	req.Key = key
	return req, nil
}

// requestKey digests the canonical request. The resolved Config already
// folds in the config patch, seed, and fault schedule, so hashing it — plus the
// workload, the normalized mode spelling (two specs with identical flags
// still differ in the rewritten binary they select), and the scale — covers
// every input that can change a result. The fairness Client is deliberately
// excluded: identical runs from different clients share one execution and
// one cache line. The model itself is not an input, so the version prefix
// stands in for it: any change that moves a golden digest bumps it, and a
// journal written by an older model then replays nothing.
func requestKey(r *Request) (string, error) {
	cj, err := config.Canonical(r.Cfg)
	if err != nil {
		return "", fmt.Errorf("canonicalize config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "ndpserve-req-v2|%s|%s|%d|", r.Workload, r.ModeSpec, r.Scale)
	h.Write(cj)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func knownWorkload(abbr string) bool {
	for _, a := range workloads.Abbrs() {
		if a == abbr {
			return true
		}
	}
	return false
}
