package timing

import (
	"math/rand"
	"strings"
	"testing"
)

func TestWheelBasics(t *testing.T) {
	w := NewWheel()
	if w.Min() != Never {
		t.Fatalf("empty wheel Min = %d, want Never", w.Min())
	}
	a := w.Add(100)
	b := w.Add(50)
	if w.Len() != 2 || w.Min() != 50 {
		t.Fatalf("Min = %d after adds, want 50", w.Min())
	}
	// Re-arming the minimum later must trigger the lazy rescan.
	w.Arm(b, 200)
	if w.Min() != 100 {
		t.Fatalf("Min = %d after arming the minimum later, want 100", w.Min())
	}
	// Arming earlier updates the cached minimum in place.
	w.Arm(a, 30)
	if w.Min() != 30 {
		t.Fatalf("Min = %d after arming earlier, want 30", w.Min())
	}
	// Wake is monotone: a later time must not move the slot.
	w.Wake(a, 500)
	if w.At(a) != 30 {
		t.Fatalf("Wake moved slot later: At = %d, want 30", w.At(a))
	}
	w.Wake(b, 40)
	if w.At(b) != 40 || w.Min() != 30 {
		t.Fatalf("Wake earlier: At = %d Min = %d, want 40/30", w.At(b), w.Min())
	}
}

func TestWheelPastWakeStaysDue(t *testing.T) {
	// A wake time in the past is legal — the slot is simply due at the next
	// edge. NextWorkAt hints of busy components routinely return times at or
	// before now, and the engine arms them verbatim.
	w := NewWheel()
	s := w.Add(1000)
	w.Arm(s, -5)
	if w.At(s) != -5 || w.Min() != -5 {
		t.Fatalf("past arm: At = %d Min = %d, want -5/-5", w.At(s), w.Min())
	}
	w.Wake(s, 100) // later than the past wake: must not move it
	if w.At(s) != -5 {
		t.Fatalf("Wake overrode an earlier past wake: At = %d", w.At(s))
	}
}

func TestWheelNeverThenRearm(t *testing.T) {
	w := NewWheel()
	s := w.Add(0)
	w.Arm(s, Never)
	if w.Min() != Never {
		t.Fatalf("Min = %d after parking at Never, want Never", w.Min())
	}
	w.Wake(s, 70)
	if w.At(s) != 70 || w.Min() != 70 {
		t.Fatalf("re-arm from Never: At = %d Min = %d, want 70/70", w.At(s), w.Min())
	}
}

// probeTicker is a scheduled test component: Tick records fired edges, and
// the hint function is NextWorkAt.
type probeTicker struct {
	ticks  []PS
	hint   func(now PS) PS
	onTick func(now PS)
}

func (p *probeTicker) Tick(now PS) {
	p.ticks = append(p.ticks, now)
	if p.onTick != nil {
		p.onTick(now)
	}
}
func (p *probeTicker) NextWorkAt(now PS) PS { return p.hint(now) }

// TestScheduledPastHintTicksEveryEdge: a hint in the past means "busy" and
// must never park the component.
func TestScheduledPastHintTicksEveryEdge(t *testing.T) {
	e := NewEngine()
	d := e.AddDomain("d", 100)
	p := &probeTicker{hint: func(now PS) PS { return now - 1 }}
	d.AttachScheduled(p)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if len(p.ticks) != 10 {
		t.Fatalf("ticked %d times over 10 edges, want 10", len(p.ticks))
	}
}

// timerTicker is a polled component that fires at fixed times and invokes a
// callback at each — the "external event source" of the wake tests.
type timerTicker struct {
	times  []PS
	onFire func(now PS)
}

func (tt *timerTicker) Tick(now PS) {
	if len(tt.times) > 0 && tt.times[0] <= now {
		tt.times = tt.times[1:]
		if tt.onFire != nil {
			tt.onFire(now)
		}
	}
}
func (tt *timerTicker) NextWorkAt(now PS) PS {
	if len(tt.times) == 0 {
		return Never
	}
	return tt.times[0]
}

// TestScheduledNeverThenExternalWake: a component parked at Never is re-armed
// by an external event and ticks again, and the domain's cycle count stays
// the one a component derives from time.
func TestScheduledNeverThenExternalWake(t *testing.T) {
	// Two attach orders: source before sleeper delivers the wake on the same
	// edge (the sleeper is visited later in the fire loop); source after
	// sleeper delivers it on the following edge — exactly the attach-order
	// semantics dense ticking has.
	for _, srcFirst := range []bool{true, false} {
		e := NewEngine()
		d := e.AddDomain("d", 100)
		sleeper := &probeTicker{hint: func(now PS) PS { return Never }}
		src := &timerTicker{times: []PS{500}}
		var slot int
		if srcFirst {
			d.Attach(src)
			slot = d.AttachScheduled(sleeper)
		} else {
			slot = d.AttachScheduled(sleeper)
			d.Attach(src)
		}
		src.onFire = func(now PS) { d.Wake(slot, now) }
		for e.Now() < 1000 {
			e.Step()
		}
		want := []PS{100, 500}
		if !srcFirst {
			want = []PS{100, 600}
		}
		if len(sleeper.ticks) != 2 || sleeper.ticks[0] != want[0] || sleeper.ticks[1] != want[1] {
			t.Fatalf("srcFirst=%v: sleeper ticks = %v, want %v", srcFirst, sleeper.ticks, want)
		}
		if d.Cycles != e.Now()/d.PeriodPS {
			t.Fatalf("srcFirst=%v: domain cycles = %d at %d ps, want now/period", srcFirst, d.Cycles, e.Now())
		}
	}
}

// TestWakeCheckCatchesMissedRearm: with the verification mode on, a parked
// component that reports due work (an external event mutated its state
// without a Wake) panics at the first edge where dense ticking would have
// diverged.
func TestWakeCheckCatchesMissedRearm(t *testing.T) {
	e := NewEngine()
	e.SetWakeCheck(true)
	d := e.AddDomain("d", 100)
	hasWork := false
	sleeper := &probeTicker{hint: func(now PS) PS {
		if hasWork {
			return now
		}
		return Never
	}}
	d.AttachScheduled(sleeper)
	// The buggy event source: deposits work at t=500 without waking the slot.
	src := &timerTicker{times: []PS{500, 900}}
	src.onFire = func(now PS) { hasWork = true }
	d.Attach(src)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("missed re-arm did not panic under SetWakeCheck")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "parked until") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	for e.Now() < 2000 {
		e.Step()
	}
}

// TestScheduledHintConservatismFuzz: any conservative hint sequence — wake
// times jittered arbitrarily earlier than the true next work, down to "busy
// now" — must leave the observable work schedule bit-identical to dense
// ticking, with the domain's cycle count equal to now / period after every
// step, the invariant every component's derived cycle count relies on.
func TestScheduledHintConservatismFuzz(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		// One random work schedule per seed, shared by all legs.
		gen := rand.New(rand.NewSource(seed))
		var work []PS
		at := PS(0)
		for len(work) < 40 {
			at += PS(1+gen.Intn(12)) * 100
			work = append(work, at)
		}
		limit := work[len(work)-1] + 5000

		// run returns the edge at which each work item was consumed.
		run := func(dense bool, jitterSeed int64) []PS {
			jit := rand.New(rand.NewSource(jitterSeed))
			e := NewEngine()
			e.SetWakeCheck(true)
			if dense {
				e.SetIdleSkip(false)
			}
			d := e.AddDomain("d", 100)
			idx := 0
			var done []PS
			p := &probeTicker{}
			p.onTick = func(now PS) {
				for idx < len(work) && work[idx] <= now {
					done = append(done, now)
					idx++
				}
			}
			p.hint = func(now PS) PS {
				if idx >= len(work) {
					return Never
				}
				next := work[idx]
				if next <= now {
					return now
				}
				// Conservative jitter: report earlier, never later.
				next -= PS(jit.Intn(4)) * 100
				if next <= now {
					return now
				}
				return next
			}
			d.AttachScheduled(p)
			for idx < len(work) && e.Now() < limit {
				e.Step()
				if d.Cycles != e.Now()/d.PeriodPS {
					t.Fatalf("seed %d: domain cycles = %d at %d ps, want now/period", seed, d.Cycles, e.Now())
				}
			}
			return done
		}

		ref := run(true, 0)
		for leg := int64(1); leg <= 3; leg++ {
			got := run(false, seed*31+leg)
			if len(got) != len(ref) {
				t.Fatalf("seed %d leg %d: %d work items consumed, want %d", seed, leg, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d leg %d: work %d consumed at %d, dense consumed at %d",
						seed, leg, i, got[i], ref[i])
				}
			}
		}
	}
}
