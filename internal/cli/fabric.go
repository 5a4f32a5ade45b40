package cli

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"snnfi/internal/core"
	"snnfi/internal/runner"
	"snnfi/internal/suite"
)

// Fabric-side CLI plumbing: the list-valued axis flags, the shared
// single-scenario builder (cmd/snn-attack and cmd/snn-worker MUST
// compile the identical core.Scenario from the same flags, or their
// cells get different content addresses and the fabric shards
// nothing), and the cache-chain composition for -cache-dir/-store.

// Floats is a flag.Value holding a comma-separated float64 list. The
// default survives until the first explicit -flag value, which
// replaces it (repeated flags append), so `-change -20` keeps its
// single-value meaning while `-change -20,-10,10` sweeps an axis.
type Floats struct {
	vals []float64
	set  bool
}

// FloatsFlag registers a Floats flag with a default list.
func FloatsFlag(fs *flag.FlagSet, name string, def []float64, usage string) *Floats {
	f := &Floats{vals: def}
	fs.Var(f, name, usage)
	return f
}

// String renders the current list, comma-separated.
func (f *Floats) String() string {
	if f == nil {
		return ""
	}
	parts := make([]string, len(f.vals))
	for i, v := range f.vals {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// Set parses one comma-separated value; the first Set discards the
// default.
func (f *Floats) Set(s string) error {
	if !f.set {
		f.vals, f.set = nil, true
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("bad value %q: want a comma-separated number list", part)
		}
		f.vals = append(f.vals, v)
	}
	if len(f.vals) == 0 {
		return fmt.Errorf("empty list")
	}
	return nil
}

// Values returns the parsed list (the default if the flag never
// appeared).
func (f *Floats) Values() []float64 { return f.vals }

// AttackFlags is the single-scenario flag surface shared by
// cmd/snn-attack and cmd/snn-worker.
type AttackFlags struct {
	Attack    *int
	Changes   *Floats
	Fractions *Floats
	VDDs      *Floats
	Defense   *string
}

// AddAttackFlags registers the scenario flags on fs.
func AddAttackFlags(fs *flag.FlagSet) *AttackFlags {
	return &AttackFlags{
		Attack:    fs.Int("attack", 3, "attack number (1-5)"),
		Changes:   FloatsFlag(fs, "change", []float64{-20}, "parameter change(s) in percent, comma-separated (attacks 1-4)"),
		Fractions: FloatsFlag(fs, "fraction", []float64{100}, "percent(s) of the layer affected, comma-separated (attacks 2-3)"),
		VDDs:      FloatsFlag(fs, "vdd", []float64{0.8}, "supply voltage(s), comma-separated (attack 5)"),
		Defense:   fs.String("defense", "none", "defense: none|robust-driver|bandgap|sizing|comparator"),
	}
}

// defenseFlags maps each -defense value to the hardened replay columns
// it adds.
var defenseFlags = map[string][]suite.DefenseSpec{
	"none":          nil,
	"robust-driver": {{Kind: "robust-driver", ResidualPc: 0.1}},
	"bandgap":       {{Kind: "bandgap", Neuron: "iaf"}},
	"sizing":        {{Kind: "sizing", WLMultiple: 32}},
	"comparator":    {{Kind: "comparator"}},
}

// Scenario compiles the flags into the canonical core.Scenario — the
// one deterministic mapping both the coordinator and every worker run,
// so a cell's content address is identical in every process. The flags
// fill a suite.ScenarioSpec, and the suite's compiler lowers it, as it
// does a suite entry's: changes for attacks 1-4, fractions for 2-3,
// supplies over the I&F transfer curves for 5, and the I&F detector.
func (a *AttackFlags) Scenario() (*core.Scenario, error) {
	defenses, ok := defenseFlags[*a.Defense]
	if !ok {
		return nil, fmt.Errorf("unknown defense %q", *a.Defense)
	}
	spec := suite.ScenarioSpec{Attack: *a.Attack, Defenses: defenses, Detector: &suite.DetectorSpec{Neuron: "iaf"}}
	switch *a.Attack {
	case 5:
		spec.VDDs, spec.Neuron = a.VDDs.Values(), "iaf"
	case 2, 3:
		spec.FractionsPc = a.Fractions.Values()
		fallthrough
	default:
		for _, c := range a.Changes.Values() {
			spec.ChangesPc = append(spec.ChangesPc, suite.AxisValue{Value: c})
		}
	}
	return spec.Compile()
}

// httpObsName names an HTTP tier's instruments: the network tier (the
// primary result namespace) owns the plain "cache.http" prefix, other
// tiers qualify it.
func httpObsName(tier string) string {
	if tier == "network" {
		return "cache.http"
	}
	return "cache.http." + tier
}

// checkStore asks the -store once which protocol it speaks. A store
// that speaks another version fails the command: its routes differ,
// so every lookup would fail and every cell be recomputed without a
// word. A store that does not answer is only warned about, on w: its
// lookups degrade to misses, as they always have, and the campaign
// still runs.
func checkStore(w io.Writer, name, base string) error {
	p, err := runner.StoreProtocolAt(base)
	if err != nil {
		fmt.Fprintf(w, "%s: warning: store %s did not report its protocol: %v\n", name, base, err)
		return nil
	}
	if p != runner.StoreProtocol {
		return fmt.Errorf("store %s speaks %q, not %q: serve it with a cached built from this version", base, p, runner.StoreProtocol)
	}
	return nil
}

// Tiers composes one result tier's cache chain under the session's
// lifecycle: memory → disk (-cache-dir, when set) → store (-store,
// when set), each slower level instrumented, warned on first write
// failure and surfaced at Close exactly like the classic disk tier.
// With neither flag set, mem is returned untouched. The typed disk
// and HTTP tiers come back too (nil when absent) for callers that
// need Manifest().
func Tiers[T any](s *Session, mem runner.Cache[T], tier string) (runner.Cache[T], *runner.DiskCache[T], *runner.HTTPCache[T], error) {
	levels := []runner.Cache[T]{mem}
	var disk *runner.DiskCache[T]
	if s.Flags.CacheDir != "" {
		var err error
		disk, err = runner.NewDiskCache[T](filepath.Join(s.Flags.CacheDir, tier))
		if err != nil {
			return nil, nil, nil, err
		}
		disk.Instrument(s.Registry, "cache."+tier)
		disk.OnFirstWriteError = s.WarnWriteError(tier)
		s.TrackDisk(disk)
		levels = append(levels, disk)
	}
	var store *runner.HTTPCache[T]
	if s.Flags.Store != "" {
		store = runner.NewHTTPCache[T](s.Flags.Store, tier)
		store.Instrument(s.Registry, httpObsName(tier))
		store.OnFirstWriteError = s.WarnWriteError(tier + " store")
		s.TrackDisk(store)
		levels = append(levels, store)
	}
	if len(levels) == 1 {
		return mem, nil, nil, nil
	}
	chain := runner.NewChain[T](levels...)
	chain.Instrument(s.Registry, "cache."+tier+".chain")
	return chain, disk, store, nil
}
