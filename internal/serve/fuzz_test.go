package serve

import (
	"encoding/json"
	"testing"
)

// FuzzParseRunRequest: arbitrary bytes must never panic the parser, and any
// accepted request must canonicalize stably — re-marshaling the wire struct
// (which re-orders override keys) and re-parsing must reproduce the same
// cache key. This is the property the memoization cache and every coalescing
// client depend on.
func FuzzParseRunRequest(f *testing.F) {
	seeds := []string{
		`{"workload":"VADD"}`,
		`{"workload":"BFS","mode":"dyn","scale":2,"seed":7}`,
		`{"workload":"VADD","mode":"static=0.5"}`,
		`{"workload":"VADD","mode":"dyncache","overrides":{"gpu.numsms":8,"nsu.clockmhz":175}}`,
		`{"workload":"KMN","mode":"naive","faults":"drop:p=0.01;seed=3"}`,
		`{"workload":"STCL","faults":"vaultfreeze:t=1000000:hmc=1:vault=5:dur=6000000;timeout=2000;retries=3"}`,
		`{"workload":"VADD","mode":"morecore","client":"alice"}`,
		`{"workload":"NOPE"}`,
		`{"workload":`,
		`{"workload":"VADD","overrides":{"gpu.numsms":-3}}`,
		`{"workload":"VADD","overrides":{"bogus.knob":1}}`,
		`{"workload":"VADD","scale":99999999}`,
		`{"workload":"VADD","config":{"Bogus":1}}`,
		`{"workload":"VADD"} trailing`,
		`[]`,
		`null`,
		`{"workload":"VADD","mode":"static=nan"}`,
		`{"workload":"VADD","overrides":{"gpu.numsms":1e100}}`,
		`{"workload":"VADD","faults":"rand:seed=1:n=-1"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRunRequest(data)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if len(req.Key) != 64 {
			t.Fatalf("accepted request has malformed key %q", req.Key)
		}
		// Round-trip: decode the original wire form, re-marshal (JSON sorts
		// map keys, permuting override order), re-parse, compare keys.
		var rr RunRequest
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatalf("ParseRunRequest accepted what json.Unmarshal rejects: %v", err)
		}
		re, err := json.Marshal(rr)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		req2, err := ParseRunRequest(re)
		if err != nil {
			t.Fatalf("re-marshaled request rejected: %v\noriginal: %q\nre-marshaled: %q", err, data, re)
		}
		if req2.Key != req.Key {
			t.Fatalf("key changed across re-serialization:\noriginal: %q -> %s\nre-marshaled: %q -> %s",
				data, req.Key, re, req2.Key)
		}
		// A parsed request is always internally consistent.
		if req.Scale < 0 || req.Scale > MaxScale {
			t.Fatalf("accepted out-of-range scale %d", req.Scale)
		}
		if err := req.Cfg.Validate(); err != nil {
			t.Fatalf("accepted invalid config: %v", err)
		}
	})
}
