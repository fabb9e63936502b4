package sim

import (
	"fmt"
	"strconv"
	"strings"

	"ndpgpu/internal/config"
)

// ModeUsage enumerates the CLI mode spellings every command accepts; flag
// help strings and parse errors both quote it so the tools stay consistent.
const ModeUsage = "baseline|morecore|naive|static=<p>|dyn|dyncache"

// ParseMode maps a CLI mode string to a Mode and the configuration
// adjustments it implies (morecore adds one SM per memory stack to the
// baseline, the §6.1 iso-area comparison point). Shared by every command so
// the accepted spellings — and the error message listing them — are
// identical across ndpsim, ndpsweep, ndpasm, and ndptrace.
func ParseMode(name string, cfg config.Config) (Mode, config.Config, error) {
	switch {
	case name == "baseline":
		return Baseline, cfg, nil
	case name == "morecore":
		return MoreCore, config.MoreCore(cfg), nil
	case name == "naive":
		return NaiveNDP, cfg, nil
	case name == "dyn":
		return DynNDP, cfg, nil
	case name == "dyncache":
		return DynCache, cfg, nil
	case strings.HasPrefix(name, "static="):
		p, err := strconv.ParseFloat(strings.TrimPrefix(name, "static="), 64)
		if err != nil || p < 0 || p > 1 {
			return Mode{}, cfg, fmt.Errorf("bad static ratio %q: want static=<p> with p in [0,1]", name)
		}
		return StaticNDP(p), cfg, nil
	default:
		return Mode{}, cfg, fmt.Errorf("unknown mode %q (valid: %s)", name, ModeUsage)
	}
}

// SpecFor maps a Mode back to a CLI spelling ParseMode accepts, keyed purely
// by the mode's mechanism flags — the inverse ndpserve clients use to ship a
// locally-constructed Mode over the wire. Display names are not round-tripped
// ("Baseline_MoreCore" maps to "baseline": its SM-count adjustment lives in
// the Config the request carries, and re-spelling it "morecore" would apply
// the adjustment a second time server-side).
func SpecFor(m Mode) string {
	switch {
	case !m.NDP:
		return "baseline"
	case m.Always:
		return "naive"
	case m.Dynamic && m.Cache:
		return "dyncache"
	case m.Dynamic:
		return "dyn"
	default:
		return fmt.Sprintf("static=%g", m.Static)
	}
}
