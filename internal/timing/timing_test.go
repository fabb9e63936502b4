package timing

import (
	"testing"
	"testing/quick"
)

func TestPeriodFromMHz(t *testing.T) {
	cases := []struct {
		mhz  int
		want PS
	}{
		{700, 1429}, // 1428.57 rounds to 1429
		{1250, 800},
		{350, 2857},
		{175, 5714},
		{1000, 1000},
	}
	for _, c := range cases {
		if got := PeriodFromMHz(c.mhz); got != c.want {
			t.Errorf("PeriodFromMHz(%d) = %d, want %d", c.mhz, got, c.want)
		}
	}
}

func TestPeriodFromMHzPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PeriodFromMHz(0)
}

func TestSingleDomainTicksAtPeriod(t *testing.T) {
	e := NewEngine()
	d := e.AddDomain("sm", 1000)
	var times []PS
	d.Attach(TickFunc(func(now PS) { times = append(times, now) }))
	for i := 0; i < 3; i++ {
		e.Step()
	}
	want := []PS{1000, 2000, 3000}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick times = %v, want %v", times, want)
		}
	}
	if d.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3", d.Cycles)
	}
}

func TestTwoDomainsInterleave(t *testing.T) {
	e := NewEngine()
	fast := e.AddDomain("fast", 500)
	slow := e.AddDomain("slow", 1000)
	var order []string
	fast.Attach(TickFunc(func(now PS) { order = append(order, "f") }))
	slow.Attach(TickFunc(func(now PS) { order = append(order, "s") }))
	for i := 0; i < 6; i++ {
		e.Step()
	}
	// t=500 f; t=1000 f,s; t=1500 f; t=2000 f,s  (after 4 steps: 6 ticks)
	got := ""
	for _, s := range order {
		got += s
	}
	if got != "ffsffsff" && got != "ffsffs" {
		// 6 Steps: edges at 500,1000,1500,2000,2500,3000 -> f fs f fs f fs
		if got != "ffsffsffs" {
			t.Fatalf("order = %q", got)
		}
	}
	if fast.Cycles != 6 || slow.Cycles != 3 {
		t.Fatalf("cycles fast=%d slow=%d, want 6/3", fast.Cycles, slow.Cycles)
	}
}

func TestCoincidentEdgesFireBothOnce(t *testing.T) {
	e := NewEngine()
	a := e.AddDomain("a", 1000)
	b := e.AddDomain("b", 1000)
	var na, nb int
	a.Attach(TickFunc(func(PS) { na++ }))
	b.Attach(TickFunc(func(PS) { nb++ }))
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if na != 5 || nb != 5 {
		t.Fatalf("na=%d nb=%d, want 5/5", na, nb)
	}
	if e.Now() != 5000 {
		t.Fatalf("now = %d, want 5000", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	d := e.AddDomain("d", 100)
	n := 0
	d.Attach(TickFunc(func(PS) { n++ }))
	steps, ok := e.RunUntil(func() bool { return n >= 10 }, 1<<40)
	if !ok {
		t.Fatal("RunUntil timed out")
	}
	if steps != 10 || n != 10 {
		t.Fatalf("steps=%d n=%d, want 10/10", steps, n)
	}
}

func TestRunUntilTimeout(t *testing.T) {
	e := NewEngine()
	e.AddDomain("d", 100)
	_, ok := e.RunUntil(func() bool { return false }, 1000)
	if ok {
		t.Fatal("expected timeout")
	}
	if e.Now() < 1000 {
		t.Fatalf("now = %d, want >= 1000", e.Now())
	}
}

func TestRunUntilCancel(t *testing.T) {
	e := NewEngine()
	d := e.AddDomain("d", 100)
	n := 0
	d.Attach(TickFunc(func(PS) {
		n++
		if n == 5 {
			e.Cancel() // a watchdog would call this from another goroutine
		}
	}))
	steps, ok := e.RunUntil(func() bool { return false }, 1<<40)
	if ok {
		t.Fatal("canceled run reported success")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
	if steps != 5 || n != 5 {
		t.Fatalf("steps=%d n=%d, want 5/5: cancel must stop at the next step boundary", steps, n)
	}
}

func TestCancelDoesNotMaskQuiescence(t *testing.T) {
	// A run that satisfies its done predicate on the same step the cancel
	// lands still counts as a clean quiescence.
	e := NewEngine()
	d := e.AddDomain("d", 100)
	n := 0
	d.Attach(TickFunc(func(PS) { n++ }))
	e.Cancel()
	_, ok := e.RunUntil(func() bool { return true }, 1<<40)
	if !ok {
		t.Fatal("already-done run reported cancellation")
	}
}

func TestStepEmptyEngine(t *testing.T) {
	if NewEngine().Step() {
		t.Fatal("empty engine should not step")
	}
}

func TestTickCountMatchesTimeProperty(t *testing.T) {
	// Property: after k steps of a single-domain engine, Now == k*period
	// and Cycles == k.
	f := func(period uint16, steps uint8) bool {
		p := PS(period%5000) + 1
		e := NewEngine()
		d := e.AddDomain("x", p)
		k := int64(steps % 50)
		for i := int64(0); i < k; i++ {
			e.Step()
		}
		return e.Now() == p*k && d.Cycles == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDomainRatioProperty(t *testing.T) {
	// Property: for two domains with periods p and 2p, the fast domain
	// always has >= the slow domain's cycles and at most 2x+1.
	f := func(pRaw uint16, steps uint8) bool {
		p := PS(pRaw%1000) + 1
		e := NewEngine()
		fast := e.AddDomain("f", p)
		slow := e.AddDomain("s", 2*p)
		for i := 0; i < int(steps); i++ {
			e.Step()
		}
		return fast.Cycles >= slow.Cycles && fast.Cycles <= 2*slow.Cycles+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
