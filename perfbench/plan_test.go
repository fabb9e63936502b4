package main

import "testing"

func TestPlanIsSeededAndMissesAreUnique(t *testing.T) {
	const n = 400
	seen := map[int64]bool{}
	for c := 0; c < 2; c++ {
		a, b := newPlan(7, c), newPlan(7, c)
		misses := 0
		for i := 0; i < n; i++ {
			ra, hita := a.next()
			rb, hitb := b.next()
			if ra.Workload != rb.Workload || ra.Mode != rb.Mode || ra.Seed != rb.Seed || ra.Client != rb.Client || hita != hitb {
				t.Fatalf("client %d request %d differs between two plans of one seed", c, i)
			}
			if hita {
				if ra.Seed != 7 {
					t.Fatalf("hit with seed %d, want the run's seed", ra.Seed)
				}
				continue
			}
			misses++
			if ra.Seed == 7 || seen[ra.Seed] {
				t.Fatalf("miss seed %d is not fresh", ra.Seed)
			}
			seen[ra.Seed] = true
		}
		if misses != n/groupSize {
			t.Errorf("client %d: %d misses in %d requests, want %d", c, misses, n, n/groupSize)
		}
	}
	other := newPlan(8, 0)
	same := 0
	ref := newPlan(7, 0)
	for i := 0; i < 100; i++ {
		ra, _ := ref.next()
		rb, _ := other.next()
		if ra.Workload == rb.Workload && ra.Mode == rb.Mode {
			same++
		}
	}
	if same == 100 {
		t.Error("seeds 7 and 8 give the same request sequence")
	}
}
