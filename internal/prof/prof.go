// Package prof wires the standard Go CPU, heap, mutex, and block profilers
// into the command-line tools, so simulator hot spots and lock contention
// can be inspected with `go tool pprof` without rebuilding anything.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs; empty paths disable the corresponding
// profiler.
type Options struct {
	CPU   string // CPU profile, sampled while running
	Mem   string // GC-settled heap profile, written at stop
	Mutex string // mutex-contention profile, written at stop
	Block string // blocking (channel/lock wait) profile, written at stop
}

// StartOpts enables the requested profilers and returns a stop function that
// writes every end-of-run profile. The stop function must run before process
// exit; it is safe to call when all paths are empty.
//
// Mutex and block profiling carry a runtime cost while enabled, so their
// collection rates are only raised when an output path asks for them.
func StartOpts(o Options) (stop func(), err error) {
	var cpu *os.File
	if o.CPU != "" {
		cpu, err = os.Create(o.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if o.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if o.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if o.Mem != "" {
			writeProfile(o.Mem, "memprofile", func(f *os.File) error {
				runtime.GC() // settle the heap so the profile shows live objects
				return pprof.WriteHeapProfile(f)
			})
		}
		if o.Mutex != "" {
			writeNamed(o.Mutex, "mutexprofile", "mutex")
		}
		if o.Block != "" {
			writeNamed(o.Block, "blockprofile", "block")
		}
	}, nil
}

// writeNamed dumps one of the runtime's named profiles.
func writeNamed(path, label, profile string) {
	writeProfile(path, label, func(f *os.File) error {
		return pprof.Lookup(profile).WriteTo(f, 0)
	})
}

func writeProfile(path, label string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, label+":", err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, label+":", err)
	}
}
