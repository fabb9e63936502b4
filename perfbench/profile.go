package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) just far enough to attribute self samples to packages. The
// standard library has no public profile reader and the module takes no
// dependencies, so the decoder reads the handful of fields it needs and
// skips the rest.

// cpuProfile is a decoded profile reduced to self time per function.
type cpuProfile struct {
	Total int64            // summed sample value over every sample
	Self  map[string]int64 // leaf function name -> summed sample value
}

// parseProfile decodes a gzipped profile.proto. Self time goes to the
// innermost function of each sample's leaf location: when a location
// carries several lines, the first is the inlined callee, the last its
// caller.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []sample
		types     []int64               // sample_type[i].type as a string-table index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string-table index
		strtab    []string
		decodeErr error
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 1: // sample_type
			_ = fields(b, func(n, _ int, v uint64, _ []byte) {
				if n == 1 {
					types = append(types, int64(v))
				}
			})
		case 2: // sample
			var s sample
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, b []byte) {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			first := true
			decodeErr = errors.Join(decodeErr, fields(b, func(n, _ int, v uint64, b []byte) {
				switch n {
				case 1:
					id = v
				case 4: // line: keep the first (innermost) one
					if first {
						first = false
						_ = fields(b, func(n, _ int, v uint64, _ []byte) {
							if n == 1 {
								fn = v
							}
						})
					}
				}
			}))
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n, _ int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Weight by CPU time when the profile says which value that is, else
	// by the last value (sample counts, for a single-valued profile).
	vi := len(types) - 1
	for i, t := range types {
		if t >= 0 && int(t) < len(strtab) && strtab[t] == "cpu" {
			vi = i
		}
	}
	name := func(loc uint64) string {
		idx := funcName[locFunc[loc]]
		if idx <= 0 || int(idx) >= len(strtab) {
			return "[unknown]"
		}
		return strtab[idx]
	}
	p := &cpuProfile{Self: map[string]int64{}}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			continue
		}
		v := s.vals[vi]
		p.Total += v
		leaf := "[unknown]"
		if len(s.locs) > 0 {
			leaf = name(s.locs[0])
		}
		p.Self[leaf] += v
	}
	return p, nil
}

// fields walks one protobuf message, calling fn for each field with its
// varint value (wire types 0, 1 and 5) or its bytes (wire type 2).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(num, wire, v, nil)
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			var v uint64
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
			fn(num, wire, v, nil)
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			fn(num, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints handles a repeated scalar in either encoding: one varint
// (wire type 0) or a packed run of them (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import path prefix of the simulator's packages.
const modulePrefix = "ndpgpu/internal/"

// layerOf maps a profiled function name to the layer its self time is
// charged to: the simulator's internal/ package name ("gpu", "cache", ...),
// "bench" for this program, "runtime" for the Go runtime, and "stdlib" for
// every other standard-library package (net/http, encoding/json, reflect,
// syscall, ...).
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		rest := strings.TrimPrefix(pkg, modulePrefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "main" || strings.HasPrefix(pkg, "ndpgpu/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "" || strings.HasPrefix(fn, "["):
		return "other"
	default:
		return "stdlib"
	}
}

// packageOf returns the import path of a Go function symbol such as
// "ndpgpu/internal/gpu.(*SM).coalesce" or "net/http.(*conn).serve". Type
// arguments are cut first: they may themselves contain slashes and dots.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i > 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// layerShares returns each layer's share of the profile's self time, in
// percent.
func (p *cpuProfile) layerShares() map[string]float64 {
	out := map[string]float64{}
	if p.Total == 0 {
		return out
	}
	for fn, v := range p.Self {
		out[layerOf(fn)] += 100 * float64(v) / float64(p.Total)
	}
	return out
}

// funcShare is one function's share of self time.
type funcShare struct {
	Func  string  `json:"func"`
	Layer string  `json:"layer"`
	Pct   float64 `json:"pct"`
}

// top returns the n functions with the most self time, largest first.
func (p *cpuProfile) top(n int) []funcShare {
	out := make([]funcShare, 0, len(p.Self))
	for fn, v := range p.Self {
		if p.Total > 0 {
			out = append(out, funcShare{Func: fn, Layer: layerOf(fn), Pct: 100 * float64(v) / float64(p.Total)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
