// Command campaignbench times whole snnfi campaigns: the paper suite
// (suites/paper.json) cold and warm at the golden scale, and the
// network-tier entries at the paper's network geometry. Every pass runs
// through suite.Runner at two workers over the cache chain a fabric
// worker uses (memory → runner.HTTPCache → fabric.Server on disk), with
// the store served from this process on a loopback listener, and every
// artifact byte is checked. NOTES.md records why each workload exists.
//
// Usage, from the repository root (campaignbench/run.sh builds it):
//
//	campaignbench -workload paper-cold|network-cold|paper-warm
//	              [-seed 7] [-seconds 25] [-trace 0|1] [-root .]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones (setup_s, wall_s, cpu_s, alloc_mb);
// with -trace 1 they are the per-layer ones, and the spans are written
// to .bench_build/trace/ under the root. The exit code is 0 whenever a
// result was printed, also when a check failed (then "correct" is
// false); it is non-zero, with no result, when the benchmark cannot
// run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-cold, network-cold or paper-warm")
	seed := fs.Int64("seed", defaultSeed, "synthetic-corpus seed (7 is the seed the goldens use)")
	seconds := fs.Float64("seconds", 25, "measurement time: passes run until this much pass time is spent (at least one)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "repository checkout whose suite and goldens are used")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "campaignbench: want -workload %s and -trace 0|1\n", workloadNames())
		return 2
	}
	b, err := newBench(*root, wl, *seed, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	var metrics []metric
	if *trace == 1 {
		metrics, err = b.tracedRun(*seconds)
	} else {
		metrics, err = b.timedRun(*seconds)
	}
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	printResult(stdout, b, metrics)
	return 0
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// printResult writes a human-readable table and then, as the last
// line, the JSON result. failed_frac heads the table but stays out of
// the JSON metrics: it reads 0 on every correct run, and the result's
// "failed" and "attempted" carry it.
func printResult(w io.Writer, b *bench, metrics []metric) {
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "workload %s, seed %d: %d passes, %d of %d operations failed\n",
		b.wl.name, b.seed, b.passes, b.failed, b.attempted)
	fmt.Fprintf(w, "  %-32s %14.6g %s\n", "failed_frac", frac, "ratio")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(metrics))
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = value{m.value, m.unit}
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, out}
	line, _ := json.Marshal(res) // plain data: cannot fail
	fmt.Fprintln(w, string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
