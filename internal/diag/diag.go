// Package diag wires Go's standard profiling endpoints into the
// campaign commands: an optional pprof HTTP listener, a CPU profile,
// and a heap profile, all behind flags. It uses only net/http/pprof
// and runtime/pprof — no dependencies — and everything is off unless
// its flag is set, so the default invocation pays nothing.
package diag

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profiling configuration of one command.
type Flags struct {
	PprofAddr  string
	CPUProfile string
	MemProfile string
}

// AddFlagsTo registers -pprof, -cpuprofile and -memprofile on fs.
// Call before parsing.
func AddFlagsTo(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Start activates whatever was requested and returns a stop function
// to defer: it ends the CPU profile and writes the heap profile. The
// pprof listener runs until the process exits (its lifetime is the
// debugging session, not the campaign). Errors that prevent a profile
// from being collected are returned immediately — a profiling run that
// silently profiles nothing wastes the whole campaign.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("diag: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("diag: cpu profile: %w", err)
		}
	}
	if f.PprofAddr != "" {
		ln := f.PprofAddr
		go func() {
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "diag: pprof listener %s: %v\n", ln, err)
			}
		}()
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				return fmt.Errorf("diag: heap profile: %w", err)
			}
			defer mf.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(mf); err != nil {
				return fmt.Errorf("diag: heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
