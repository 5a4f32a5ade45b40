// Command snn-attack runs one of the paper's five power attacks against
// the Diehl&Cook digit classifier and reports accuracy relative to the
// attack-free baseline, with optional defended replays and the
// dummy-neuron detector judging alongside. Whole campaigns, declared
// as suite files, run under cmd/figures -suite.
//
// Usage:
//
//	snn-attack -attack 3 -change -20 -fraction 100 [-n 1000]
//	snn-attack -attack 3 -change -20,-10,10,20 -defense sizing
//	snn-attack -attack 5 -vdd 0.8 [-defense bandgap] [-cache-dir DIR]
//	snn-attack -attack 4 -change -20 -cache-dir DIR -audit
//	snn-attack -attack 3 -change -20,10 -store http://HOST:PORT -audit-json -
//
// Attacks: 1 (driver theta), 2 (excitatory threshold), 3 (inhibitory
// threshold), 4 (both layers), 5 (black-box VDD).
// Defenses: none, robust-driver, bandgap, sizing, comparator.
//
// The attack compiles into a core.Scenario — the axis coordinates
// crossed with the undefended column and any requested defense — and
// executes on internal/runner's campaign pool: -workers sizes it,
// -jsonl streams every cell as a JSON-lines record, and -cache-dir /
// -store persist trained results (memory→disk→store chain) so a
// repeated invocation (same data, same configuration) retrains
// nothing; with -store that holds across machines. -audit prints
// which of the scenario's cells the cache tiers already hold and
// exits without training anything; -audit-json writes the same audit
// machine-readably (the fabric's shard-assignment input, see
// cmd/snn-worker).
package main

import (
	"flag"
	"fmt"
	"os"

	"snnfi/internal/cli"
	"snnfi/internal/core"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
	"snnfi/internal/spice"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "snn-attack:", err)
		os.Exit(1)
	}
}

// run returns instead of exiting so deferred cleanup (flushing the
// JSONL sink) executes on every path.
func run() (retErr error) {
	var (
		nImages   = flag.Int("n", 1000, "training images")
		dataDir   = flag.String("data", "", "optional real-MNIST directory")
		audit     = flag.Bool("audit", false, "report which cells -cache-dir/-store already hold, without training anything")
		auditJSON = flag.String("audit-json", "", "write the audit as JSON to this file ('-' = stdout); implies -audit")
	)
	attackFlags := cli.AddAttackFlags(flag.CommandLine)
	shared := cli.AddFlags(cli.Campaign)
	flag.Parse()
	if *auditJSON != "" {
		*audit = true
	}
	if *audit && shared.CacheDir == "" && shared.Store == "" {
		return fmt.Errorf("-audit needs -cache-dir or -store to inspect")
	}

	sess, err := shared.Start("snn-attack")
	if err != nil {
		return err
	}
	defer sess.CloseInto(&retErr)

	scn, err := attackFlags.Scenario()
	if err != nil {
		return err
	}

	exp, err := core.NewExperiment(*dataDir, *nImages, snn.DefaultConfig())
	if err != nil {
		return err
	}
	exp.Workers = shared.Workers
	exp.OnProgress = sess.OnProgress()
	exp.Sinks = sess.Sinks()
	exp.Obs = sess.Registry

	// Telemetry: the monitor adopts the session registry and counts
	// cells; instrument the memory tier before it disappears inside the
	// chain, then the slower tiers, then the circuit solver. None of
	// this changes what the campaign computes.
	mon := core.NewMonitor(exp, fmt.Sprintf("attack%d", *attackFlags.Attack))
	if mem, ok := exp.Cache.(*runner.MemoryCache[*core.Result]); ok {
		mem.Instrument(sess.Registry, "cache.network.mem")
	}
	spice.Instrument(sess.Registry)

	// Same tier layout as cmd/figures (network/ under -cache-dir, the
	// "network" store tier), so one cache warms every binary — and with
	// -store, every machine.
	cache, disk, store, err := cli.Tiers[*core.Result](sess, exp.Cache, "network")
	if err != nil {
		return err
	}
	exp.Cache = cache

	if *audit {
		held, source, err := heldCells(disk, store)
		if err != nil {
			return err
		}
		a, err := exp.AuditScenario(scn, core.HeldSet(held))
		if err != nil {
			return err
		}
		if *auditJSON != "" {
			w := os.Stdout
			if *auditJSON != "-" {
				f, err := os.Create(*auditJSON)
				if err != nil {
					return err
				}
				defer f.Close()
				w = f
			}
			return a.WriteJSON(w)
		}
		fmt.Printf("audit of %s against %s (%d keys held):\n", a.Name, source, len(held))
		for _, c := range a.Cells {
			status := "MISSING"
			if c.Present {
				status = "present"
			}
			fmt.Printf("  %-8s %s\n", status, c.Desc)
		}
		fmt.Printf("%d cells → %d distinct; %d/%d cells held; a resume would train %d networks\n",
			len(a.Cells), a.Distinct, a.Present, len(a.Cells), len(a.MissingKeys()))
		return nil
	}

	base, err := exp.Baseline()
	if err != nil {
		return err
	}
	pts, err := exp.RunScenario(scn)
	if err != nil {
		return err
	}
	fmt.Printf("baseline accuracy: %.2f%%\n", 100*base)
	for _, p := range pts {
		col := "undefended"
		if p.Defense != "" {
			col = p.Defense
		}
		fmt.Printf("%-28s plan %s\n", col+":", p.Plan.Name)
		for _, f := range p.Plan.Faults {
			fmt.Printf("  %-12v scale %.4f over %.0f%% of the layer\n", f.Layer, f.Scale, 100*f.Fraction)
		}
		fmt.Printf("  accuracy %.2f%%  relative change %+.2f%%  detector: %s\n",
			100*p.Result.Accuracy, p.RelChangePc, verdict(p.Detected))
	}
	// The count the cache chain exists to drive to zero: a repeated
	// invocation against a warm -cache-dir or -store must print 0.
	fmt.Printf("trained networks: %d\n", exp.TrainCount())

	return sess.FinishReport(mon)
}

// heldCells merges the manifests of whichever slow tiers are
// configured — an audit reflects what a resume's chain would find,
// and a resume probes disk and store alike.
func heldCells(disk *runner.DiskCache[*core.Result], store *runner.HTTPCache[*core.Result]) ([]string, string, error) {
	var held []string
	var sources []string
	if disk != nil {
		keys, err := disk.Manifest()
		if err != nil {
			return nil, "", err
		}
		held = append(held, keys...)
		sources = append(sources, disk.Dir())
	}
	if store != nil {
		keys, err := store.Manifest()
		if err != nil {
			return nil, "", err
		}
		held = append(held, keys...)
		sources = append(sources, "the store")
	}
	source := ""
	for i, s := range sources {
		if i > 0 {
			source += " + "
		}
		source += s
	}
	return held, source, nil
}

func verdict(detected bool) string {
	if detected {
		return "ATTACK DETECTED"
	}
	return "silent"
}
