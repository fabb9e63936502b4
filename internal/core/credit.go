package core

import (
	"fmt"

	"ndpgpu/internal/config"
)

// BufferKind names one of the NSU-side NDP buffers (§4.3).
type BufferKind int

// NSU buffer kinds.
const (
	CmdBuffer BufferKind = iota
	ReadDataBuffer
	WriteAddrBuffer
	numBufferKinds
)

// String implements fmt.Stringer.
func (k BufferKind) String() string {
	switch k {
	case CmdBuffer:
		return "cmd"
	case ReadDataBuffer:
		return "read-data"
	case WriteAddrBuffer:
		return "write-addr"
	default:
		return fmt.Sprintf("buffer(%d)", int(k))
	}
}

// BufferManager is the GPU-side credit-based manager for the NDP buffers in
// every NSU (§4.3). An SM reserves one command-buffer entry, NumLD read-data
// entries, and NumST write-address entries before its packets may enter the
// ready buffer; the NSU returns credits as entries drain. This guarantees a
// packet is never sent toward a full NSU buffer, which is the paper's
// deadlock-freedom argument.
type BufferManager struct {
	credits [][numBufferKinds]int
	initial [numBufferKinds]int

	// quarantined marks NSUs the GPU has written off after a fault:
	// reservations fail, credit returns become no-ops (the credits of a
	// dead stack are unaccountable), and AllReturned ignores the target.
	// nil on the fault-free path.
	quarantined []bool

	// rejects counts the reservation attempts denied for lack of credits,
	// per target NSU: the per-stack credit-stall series of the metrics layer.
	rejects []int64

	// onReturn, when set, is called after a credit return that leaves the
	// target at least one command credit (SetReturnHook).
	onReturn func(target int)
}

// NewBufferManager builds the manager for the configured NSU buffer sizes.
func NewBufferManager(cfg config.Config) *BufferManager {
	m := &BufferManager{
		credits: make([][numBufferKinds]int, cfg.NumHMCs),
		rejects: make([]int64, cfg.NumHMCs),
	}
	m.initial[CmdBuffer] = cfg.NSU.CmdEntries
	m.initial[ReadDataBuffer] = cfg.NSU.ReadDataEntries
	m.initial[WriteAddrBuffer] = cfg.NSU.WriteAddrEntries
	for i := range m.credits {
		m.credits[i] = m.initial
	}
	return m
}

// Reserve attempts to take 1 command, numLD read-data, and numST
// write-address credits for the target NSU. Reservation is all-or-nothing.
func (m *BufferManager) Reserve(target, numLD, numST int) bool {
	if m.quarantined != nil && m.quarantined[target] {
		m.rejects[target]++
		return false
	}
	c := &m.credits[target]
	if c[CmdBuffer] < 1 || c[ReadDataBuffer] < numLD || c[WriteAddrBuffer] < numST {
		m.rejects[target]++
		return false
	}
	c[CmdBuffer]--
	c[ReadDataBuffer] -= numLD
	c[WriteAddrBuffer] -= numST
	return true
}

// Return gives back n credits of the given kind for the target NSU. Credits
// are piggybacked on response packets in the paper, so returning them has no
// modeled traffic cost.
func (m *BufferManager) Return(target int, kind BufferKind, n int) {
	if m.quarantined != nil && m.quarantined[target] {
		return
	}
	c := &m.credits[target]
	c[kind] += n
	if c[kind] > m.initial[kind] {
		panic(fmt.Sprintf("core: %v credits for NSU %d exceed initial %d",
			kind, target, m.initial[kind]))
	}
	if m.onReturn != nil && c[CmdBuffer] > 0 {
		m.onReturn(target)
	}
}

// SetReturnHook installs f, called after every credit return that leaves the
// target at least one command credit. Every reservation takes a command
// credit, so a reservation that failed can succeed only after such a return:
// the GPU uses the hook to wake the SMs whose warps wait on the target.
func (m *BufferManager) SetReturnHook(f func(target int)) { m.onReturn = f }

// Available returns the current credit count.
func (m *BufferManager) Available(target int, kind BufferKind) int {
	return m.credits[target][kind]
}

// Initial returns the configured capacity of one buffer kind; outstanding
// credits are Initial minus Available.
func (m *BufferManager) Initial(kind BufferKind) int { return m.initial[kind] }

// NumTargets returns the number of NSUs the manager tracks.
func (m *BufferManager) NumTargets() int { return len(m.credits) }

// TargetRejects returns the reservation attempts denied for target's buffers.
func (m *BufferManager) TargetRejects(target int) int64 { return m.rejects[target] }

// ChargeRejects counts n denied attempts on target's buffers that were not
// made as Reserve calls: those a parked SM would have repeated on the cycles
// it slept through.
func (m *BufferManager) ChargeRejects(target int, n int64) { m.rejects[target] += n }

// AllReturned reports whether every NSU's credits are back at their initial
// values — the quiescence invariant checked after each run. Quarantined
// targets are exempt: their outstanding credits died with the stack.
func (m *BufferManager) AllReturned() bool {
	for i := range m.credits {
		if m.quarantined != nil && m.quarantined[i] {
			continue
		}
		if m.credits[i] != m.initial {
			return false
		}
	}
	return true
}

// Quarantine permanently writes off the target NSU (fault path only).
func (m *BufferManager) Quarantine(target int) {
	if m.quarantined == nil {
		m.quarantined = make([]bool, len(m.credits))
	}
	m.quarantined[target] = true
}

// Quarantined reports whether the target NSU has been written off.
func (m *BufferManager) Quarantined(target int) bool {
	return m.quarantined != nil && m.quarantined[target]
}
