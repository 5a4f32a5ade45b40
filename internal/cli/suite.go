package cli

import (
	"fmt"
	"os"
	"strings"

	"snnfi/internal/core"
	"snnfi/internal/neuron"
	"snnfi/internal/spice"
	"snnfi/internal/suite"
)

// SuiteOptions carries cmd/figures' suite knobs: which file to
// interpret, which entries, where the artifacts go, and the
// reduced-scale overrides.
type SuiteOptions struct {
	// Path is the suite file (-suite).
	Path string
	// Only restricts the run to a comma-separated list of entry IDs.
	Only string
	// List prints the table of contents and exits; Validate checks the
	// file and exits. Both run the full strict decode + validation.
	List     bool
	Validate bool
	// OutDir receives the CSV artifacts of entries with an output spec.
	OutDir string
	// DataDir optionally points at a real-MNIST directory.
	DataDir string
	// Images/Neurons/Steps override the suite's network spec when >0.
	Images  int
	Neurons int
	Steps   int
}

// RunSuite loads, validates and interprets a suite under the session's
// lifecycle: one telemetry registry, progress line and JSONL stream
// across the circuit and network tiers, with -cache-dir persisting both
// (circuit/ and network/ subdirectories) exactly as the pre-suite
// binaries did.
func (s *Session) RunSuite(opts SuiteOptions) error {
	su, err := suite.Load(opts.Path)
	if err != nil {
		return err
	}
	if err := su.Validate(); err != nil {
		return err
	}
	if opts.List {
		su.Describe(os.Stdout)
		return nil
	}
	if opts.Validate {
		fmt.Printf("%s: %d entries, valid\n", opts.Path, len(su.Entries))
		return nil
	}
	// One registry spans both tiers: circuit sweeps and spice solves
	// record into it immediately; the network experiment adopts it when
	// lazily built.
	spice.Instrument(s.Registry)
	char := neuron.NewCharacterizer()
	char.Workers = s.Flags.Workers
	char.OnProgress = s.OnProgress()
	char.Sinks = s.Sinks()
	char.Obs = s.Registry
	// Circuit measurements persist beside the network results (separate
	// tier subdirectory/namespace, same lifecycle): repeated runs
	// re-measure nothing, and with -store the fabric shares them too.
	circuitCache, _, _, err := Tiers[float64](s, char.Cache, "circuit")
	if err != nil {
		return err
	}
	char.Cache = circuitCache
	r := &suite.Runner{
		Suite:      su,
		Name:       s.Name,
		OutDir:     opts.OutDir,
		DataDir:    opts.DataDir,
		Images:     opts.Images,
		Neurons:    opts.Neurons,
		Steps:      opts.Steps,
		Workers:    s.Flags.Workers,
		Char:       char,
		OnProgress: s.OnProgress(),
		Sinks:      s.Sinks(),
		Obs:        s.Registry,
	}
	r.OnExperiment = func(e *core.Experiment) error {
		cache, _, _, err := Tiers[*core.Result](s, e.Cache, "network")
		if err != nil {
			return err
		}
		e.Cache = cache
		return nil
	}
	only := SplitIDs(opts.Only)
	if err := r.Run(only); err != nil {
		return err
	}
	return s.FinishReport(r.Monitor())
}

// SplitIDs parses a comma-separated -only value, dropping empty parts.
func SplitIDs(list string) []string {
	var out []string
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}
