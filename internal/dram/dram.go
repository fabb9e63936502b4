// Package dram models one HMC vault: a bounded request queue served by an
// FR-FCFS scheduler over banks with open-row state and DDR3-1333H-like
// timing (Table 2: tCK=1.50 ns, tRP=9, tCCD=4, tRCD=9, tCL=9, tWR=12,
// tRAS=24). Each access moves one 128-byte line; with tCCD=4 the per-vault
// data bus sustains 128 B / 6 ns ≈ 21 GB/s, i.e. ≈340 GB/s per 16-vault
// stack, matching the HMC's ~320 GB/s peak DRAM bandwidth.
package dram

import (
	"ndpgpu/internal/audit"
	"ndpgpu/internal/config"
	"ndpgpu/internal/timing"
)

// Request is one line-sized DRAM access.
type Request struct {
	Line    uint64 // line-aligned address
	Bank    int
	Row     int64
	IsWrite bool
	Arrival timing.PS
	// triggeredAct marks that this request caused the bank's current row
	// activation, so its own CAS is not counted as a row-buffer hit.
	triggeredAct bool
	// Done is invoked when the access completes (data available for reads,
	// write committed for writes).
	Done func(now timing.PS)
}

type bankState struct {
	rowOpen   bool
	openRow   int64
	readyAt   timing.PS // earliest time a new column/act/pre command may issue
	activated timing.PS // time of last activation, for tRAS
}

type completion struct {
	at  timing.PS
	req *Request
}

// VaultStats counts per-vault DRAM events.
type VaultStats struct {
	Reads            int64
	Writes           int64
	Activations      int64
	RowHits          int64
	Precharges       int64
	QueueFullRejects int64
	Refreshes        int64
	// BusyCycles counts DRAM clocks on which the vault had work: a queued
	// request, a completion retiring this edge, or a refresh firing. A
	// fault-frozen edge is never busy. A skipped edge can only be busy
	// through its queue, which the vault charges when it next settles, so
	// the count is identical under dense and skipped execution.
	BusyCycles int64
}

// Vault is one vault controller.
type Vault struct {
	cfg      config.HMCConfig
	banks    []bankState
	queue    []*Request
	done     []completion
	busUntil timing.PS

	nextRefresh timing.PS // next tREFI edge
	refreshing  timing.PS // all banks blocked until this time

	// seen is the last DRAM cycle (time / tCK) BusyCycles accounts for. The
	// cycles after it were skipped with the queue as it is now: a Tick, an
	// Enqueue or a frozen edge settles them first, so "queued work present"
	// decides the whole gap at once.
	seen int64

	aud *audit.VaultAudit // nil unless bank-state auditing is attached

	Stats VaultStats
}

// NewVault builds a vault controller.
func NewVault(cfg config.HMCConfig) *Vault {
	return &Vault{
		cfg:         cfg,
		banks:       make([]bankState, cfg.BanksPerVault),
		nextRefresh: timing.PS(cfg.TREFIps),
	}
}

func (v *Vault) tck(n int) timing.PS { return timing.PS(n) * timing.PS(v.cfg.TCKps) }

// SetAudit attaches a bank-state auditor (nil detaches). The vault reports
// every ACT/PRE/CAS/refresh it issues; the auditor re-derives legality from
// the timing parameters independently of the controller's own bookkeeping.
func (v *Vault) SetAudit(a *audit.VaultAudit) { v.aud = a }

// cycle returns the DRAM cycle whose edge is at or last before t.
func (v *Vault) cycle(t timing.PS) int64 { return int64(t / timing.PS(v.cfg.TCKps)) }

// settle charges the cycles after seen through c, which the vault slept
// through: each was skipped with the queue in its present state, and a
// skipped edge retires no completion and fires no refresh (the vault's wake
// bounds any skip), so the queue alone decides whether it was busy.
func (v *Vault) settle(c int64) {
	if n := c - v.seen; n > 0 {
		if len(v.queue) > 0 {
			v.Stats.BusyCycles += n
		}
		v.seen = c
	}
}

// Enqueue adds a request if the queue has room, returning false when full.
// The cycles through the request's arrival were spent with the old queue.
func (v *Vault) Enqueue(r *Request) bool {
	if len(v.queue) >= v.cfg.VaultQueue {
		v.Stats.QueueFullRejects++
		return false
	}
	v.settle(v.cycle(r.Arrival))
	v.queue = append(v.queue, r)
	return true
}

// Frozen records a fault-frozen edge at now: the vault serves nothing and
// the edge is not busy, whatever is queued.
func (v *Vault) Frozen(now timing.PS) {
	c := v.cycle(now)
	v.settle(c - 1)
	v.seen = c
}

// Pending returns the number of waiting plus in-flight requests.
func (v *Vault) Pending() int { return len(v.queue) + len(v.done) }

// Tick advances the vault by one DRAM clock: retire finished accesses, then
// schedule at most one command using FR-FCFS (first ready — i.e. open-row
// hit — first-come-first-served otherwise).
func (v *Vault) Tick(now timing.PS) {
	c := v.cycle(now)
	v.settle(c - 1)
	v.seen = c
	busy := len(v.queue) > 0
	// Retire completions.
	kept := v.done[:0]
	for _, c := range v.done {
		if c.at <= now {
			busy = true
			if c.req.IsWrite {
				v.Stats.Writes++
			} else {
				v.Stats.Reads++
			}
			if c.req.Done != nil {
				c.req.Done(now)
			}
		} else {
			kept = append(kept, c)
		}
	}
	v.done = kept

	// All-bank refresh every tREFI: close the rows and block the vault for
	// tRFC (disabled when tREFI is zero).
	if v.cfg.TREFIps > 0 && now >= v.nextRefresh {
		busy = true
		v.nextRefresh += timing.PS(v.cfg.TREFIps)
		v.refreshing = now + timing.PS(v.cfg.TRFCps)
		for i := range v.banks {
			v.banks[i].rowOpen = false
			if v.banks[i].readyAt < v.refreshing {
				v.banks[i].readyAt = v.refreshing
			}
		}
		v.Stats.Refreshes++
		if v.aud != nil {
			v.aud.OnRefresh(now, v.refreshing)
		}
	}
	if busy {
		v.Stats.BusyCycles++
	}
	if now < v.refreshing {
		return
	}

	if len(v.queue) == 0 {
		return
	}

	// FR-FCFS pass 1: oldest request hitting an open row on a ready bank.
	pick := -1
	for i, r := range v.queue {
		b := &v.banks[r.Bank]
		if b.rowOpen && b.openRow == r.Row && b.readyAt <= now && v.busUntil <= now {
			pick = i
			break
		}
	}
	if pick >= 0 {
		r := v.queue[pick]
		v.issueColumn(r, now, !r.triggeredAct)
		v.queue = append(v.queue[:pick], v.queue[pick+1:]...)
		return
	}

	// Pass 2: oldest request whose bank can accept a row command.
	for _, r := range v.queue {
		b := &v.banks[r.Bank]
		if b.readyAt > now {
			continue
		}
		if b.rowOpen && b.openRow != r.Row {
			// Precharge, honouring tRAS since activation.
			start := now
			if b.activated+v.tck(v.cfg.TRAS) > start {
				start = b.activated + v.tck(v.cfg.TRAS)
			}
			b.rowOpen = false
			b.readyAt = start + v.tck(v.cfg.TRP)
			v.Stats.Precharges++
			if v.aud != nil {
				v.aud.OnPrecharge(now, start, r.Bank)
			}
			return // one command per tick
		}
		if !b.rowOpen {
			b.rowOpen = true
			b.openRow = r.Row
			b.activated = now
			b.readyAt = now + v.tck(v.cfg.TRCD)
			r.triggeredAct = true
			v.Stats.Activations++
			if v.aud != nil {
				v.aud.OnActivate(now, r.Bank, r.Row)
			}
			return
		}
		// Open-row hit but bus busy: this request waits for the bus; let a
		// younger request on another bank activate or precharge meanwhile.
	}
}

// issueColumn performs the CAS for a request whose row is open.
func (v *Vault) issueColumn(r *Request, now timing.PS, rowHit bool) {
	b := &v.banks[r.Bank]
	if rowHit {
		v.Stats.RowHits++
	}
	if v.aud != nil {
		v.aud.OnColumn(now, r.Bank, r.Row, r.IsWrite)
	}
	lat := v.tck(v.cfg.TCL)
	if r.IsWrite {
		lat = v.tck(v.cfg.TWR)
	}
	v.busUntil = now + v.tck(v.cfg.TCCD)
	b.readyAt = now + v.tck(v.cfg.TCCD)
	v.done = append(v.done, completion{at: now + lat + v.tck(v.cfg.TCCD), req: r})
}

// Idle reports whether the vault has no queued or in-flight work.
func (v *Vault) Idle() bool { return len(v.queue) == 0 && len(v.done) == 0 }

// BusyCyclesThrough returns the busy-cycle count through DRAM cycle c, with
// the unsettled cycles up to c folded in computationally — a side-effect-free
// read for stats aggregation and metrics probes. A vault that has already
// accounted for a later cycle reports its count through that cycle.
func (v *Vault) BusyCyclesThrough(c int64) int64 {
	b := v.Stats.BusyCycles
	if len(v.queue) > 0 && c > v.seen {
		b += c - v.seen
	}
	return b
}

// NextWorkAt returns the earliest time the vault could do work. Rather than
// reporting "now" whenever a request is queued, it computes the earliest time
// FR-FCFS could actually issue a command for any queued request — a row hit
// waits for its bank and the shared data bus (tCCD), a row conflict or closed
// row waits only for the bank to accept a row command (a precharge may issue
// immediately, with tRAS folded into the resulting ready time). The engine
// parks the vault's stack across pure timing-parameter waits (tRCD/tRAS/tRP
// stretches), whose BusyCycles the vault settles when it next ticks. A
// refresh in progress floors every command at its end. Due completions and
// the refresh timer — a scheduled event the idle-skip engine must never skip
// past — bound the result.
func (v *Vault) NextWorkAt(now timing.PS) timing.PS {
	wake := timing.Never
	for _, r := range v.queue {
		b := &v.banks[r.Bank]
		var t0 timing.PS
		if b.rowOpen && b.openRow == r.Row {
			t0 = b.readyAt
			if v.busUntil > t0 {
				t0 = v.busUntil
			}
		} else {
			t0 = b.readyAt
		}
		if t0 < v.refreshing {
			t0 = v.refreshing
		}
		if t0 <= now {
			return now
		}
		if t0 < wake {
			wake = t0
		}
	}
	for _, c := range v.done {
		if c.at <= now {
			return now
		}
		if c.at < wake {
			wake = c.at
		}
	}
	if v.cfg.TREFIps > 0 {
		if v.nextRefresh <= now {
			return now
		}
		if v.nextRefresh < wake {
			wake = v.nextRefresh
		}
	}
	return wake
}
