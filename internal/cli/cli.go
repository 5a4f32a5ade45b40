// Package cli holds the flag wiring and run-session lifecycle shared
// by the campaign binaries (cmd/figures, cmd/snn-attack, cmd/snn-worker):
// the -workers/-jsonl/-cache-dir/-report/-quiet/-progress flags, the
// pprof flags, the live progress line, JSONL sink setup/teardown, disk
// cache instrumentation with first-write-error warnings, and
// end-of-run report writing. Before this package each binary carried
// its own copy of this plumbing; the suite interpreter would have been
// the fourth.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"snnfi/internal/core"
	"snnfi/internal/diag"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
)

// Group selects which shared flags a binary registers. Binaries differ
// (snn-worker has no JSONL stream or campaign report), so the groups
// keep each command's flag surface honest: a flag is only present when
// the session actually honors it.
type Group uint

// Flag groups.
const (
	Workers Group = 1 << iota
	JSONL
	CacheDir
	Report
	Quiet
	Progress
	Pprof
	Store

	// Campaign is the full surface of the sweep-running binaries.
	Campaign = Workers | JSONL | CacheDir | Report | Quiet | Progress | Pprof | Store
	// Worker is cmd/snn-worker's surface: a fabric worker streams no
	// JSONL and writes no campaign report (the coordinator merge owns
	// both), but shares everything else including the store.
	Worker = Workers | CacheDir | Quiet | Progress | Pprof | Store
)

// Flags holds the shared flag values after flag.Parse.
type Flags struct {
	Workers  int
	JSONL    string
	CacheDir string
	Report   string
	Quiet    bool
	Progress bool
	Store    string

	prof *diag.Flags
}

// AddFlags registers the group's flags on the default flag set. Call
// before flag.Parse.
func AddFlags(g Group) *Flags {
	return AddFlagsTo(flag.CommandLine, g)
}

// AddFlagsTo registers the group's flags on an explicit flag set.
func AddFlagsTo(fs *flag.FlagSet, g Group) *Flags {
	f := &Flags{}
	if g&Workers != 0 {
		fs.IntVar(&f.Workers, "workers", 0, "worker-pool size (0 = all CPUs)")
	}
	if g&JSONL != 0 {
		fs.StringVar(&f.JSONL, "jsonl", "", "optional JSONL file streaming every sweep point")
	}
	if g&CacheDir != 0 {
		fs.StringVar(&f.CacheDir, "cache-dir", "", "optional directory persisting trained/measured results, so a killed run resumes with only the missing cells recomputed")
	}
	if g&Report != 0 {
		fs.StringVar(&f.Report, "report", "", "write the end-of-run campaign report (JSON) to this file")
	}
	if g&Quiet != 0 {
		fs.BoolVar(&f.Quiet, "quiet", false, "suppress the live progress line and the stderr report summary")
	}
	if g&Progress != 0 {
		fs.BoolVar(&f.Progress, "progress", false, "log each completed sweep cell to stderr")
	}
	if g&Store != 0 {
		fs.StringVar(&f.Store, "store", "", "base URL of a shared campaign content store (cmd/cached); results are read from and written through it, composing with -cache-dir as memory→disk→store")
	}
	if g&Pprof != 0 {
		f.prof = diag.AddFlagsTo(fs)
	}
	return f
}

// Session is one command invocation's shared run state: profiling
// started, progress line built, JSONL sink opened, telemetry registry
// ready. Close (or Finish) must run on every exit path — it flushes
// the sink, stops the profiler and surfaces persistence failures.
type Session struct {
	// Name prefixes warnings ("figures: warning: ...").
	Name string
	// Flags are the parsed shared flags the session was built from.
	Flags *Flags
	// Registry spans the whole invocation; instrument caches, pools and
	// the spice solver into it so one report covers every tier.
	Registry *obs.Registry
	// Line is the live \r-redrawn status line (enabled only on a
	// terminal, and only when neither -progress nor -quiet asked for
	// different stderr traffic).
	Line *runner.ProgressLine
	// Sink is the -jsonl stream; nil when none was requested.
	Sink *runner.JSONLSink

	progress func(runner.Progress)
	stopProf func() error
	disks    []interface{ Err() error }
	closed   bool
}

// Start builds the session after flag.Parse: it checks the -store's
// protocol, starts the requested profiles, opens the JSONL sink and
// wires the progress chain.
func (f *Flags) Start(name string) (*Session, error) {
	if f.Store != "" {
		if err := checkStore(os.Stderr, name, f.Store); err != nil {
			return nil, err
		}
	}
	s := &Session{Name: name, Flags: f, Registry: obs.NewRegistry()}
	if f.prof != nil {
		stop, err := f.prof.Start()
		if err != nil {
			return nil, err
		}
		s.stopProf = stop
	}
	if f.Progress {
		s.progress = func(p runner.Progress) {
			note := ""
			if p.CacheHit {
				note = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s%s\n", p.Done, p.Total, p.Label, note)
		}
	}
	// The live status line shares stderr with -progress logging; enable
	// it only when neither explicit logging nor -quiet is in effect
	// (and only on a terminal).
	s.Line = runner.NewProgressLine(os.Stderr, !f.Progress && !f.Quiet)
	s.progress = runner.ChainProgress(s.progress, s.Line.Observe)
	if f.JSONL != "" {
		file, err := os.Create(f.JSONL)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Sink = runner.NewJSONLSink(file)
	}
	return s, nil
}

// OnProgress returns the chained progress observer (the optional
// -progress logger followed by the live line).
func (s *Session) OnProgress() func(runner.Progress) { return s.progress }

// Sinks returns the session's sink list (empty without -jsonl), in the
// shape Experiment/Characterizer take.
func (s *Session) Sinks() []runner.Sink {
	if s.Sink == nil {
		return nil
	}
	return []runner.Sink{s.Sink}
}

// WarnWriteError builds a DiskCache.OnFirstWriteError callback: one
// line, on the first failure only, the moment resumability degrades.
func (s *Session) WarnWriteError(tier string) func(error) {
	return func(err error) {
		fmt.Fprintf(os.Stderr, "%s: warning: %s results are no longer being persisted: %v\n", s.Name, tier, err)
	}
}

// TrackDisk registers a disk tier whose write failures must fail the
// command at Close — a campaign whose results did not persist is not
// resumable, and exiting 0 would hide that.
func (s *Session) TrackDisk(d interface{ Err() error }) { s.disks = append(s.disks, d) }

// FinishReport ends the live line and emits the campaign report: JSON
// to -report when requested, and the stderr digest unless -quiet. A
// nil monitor (no campaign ran) is tolerated — the -report request is
// then declined loudly instead of writing an empty file.
func (s *Session) FinishReport(mon *core.Monitor) error {
	s.Line.Finish()
	if mon == nil {
		if s.Flags.Report != "" {
			fmt.Fprintf(os.Stderr, "%s: no network campaign ran; -report not written\n", s.Name)
		}
		return nil
	}
	rep := mon.Report()
	if s.Flags.Report != "" {
		if err := rep.WriteFile(s.Flags.Report); err != nil {
			return err
		}
	}
	if !s.Flags.Quiet {
		rep.Summarize(os.Stderr)
	}
	return nil
}

// Close tears the session down: finishes the line, flushes the sink,
// stops profiling and reports the first persistence failure of any
// tracked disk tier. Safe to call more than once; later calls are
// no-ops.
func (s *Session) Close() (err error) {
	if s.closed {
		return nil
	}
	s.closed = true
	s.Line.Finish()
	if s.Sink != nil {
		// Close even after a failed run, so records streamed by the
		// sweeps that did complete reach disk.
		if cerr := s.Sink.Close(); err == nil {
			err = cerr
		}
	}
	if s.stopProf != nil {
		if perr := s.stopProf(); err == nil {
			err = perr
		}
	}
	for _, d := range s.disks {
		if derr := d.Err(); err == nil && derr != nil {
			err = fmt.Errorf("result cache: %w", derr)
		}
	}
	return err
}

// CloseInto folds Close's error into a command's named return — the
// defer-friendly form: defer sess.CloseInto(&retErr).
func (s *Session) CloseInto(retErr *error) {
	if err := s.Close(); *retErr == nil {
		*retErr = err
	}
}

var _ io.Closer = (*Session)(nil)
