// Command snn-worker executes one shard of a campaign's missing cells
// against a shared content store (cmd/cached) — the worker side of the
// distributed fabric.
//
// Every process launched with the same attack flags, the same -shards
// count and a distinct -shard index derives the identical audit from
// the store manifest, takes the missing cells whose round-robin slot
// matches its index, trains them, and writes the results through the
// store. No coordination channel exists or is needed: cells are pure
// functions of their content address, so the only shared state is the
// store itself. When every shard exits, a coordinator run
// (snn-attack with the same flags and -store) finds the store warm,
// trains nothing, and emits sinks byte-identical to a single-process
// run.
//
//	cached -dir store -addr-file store.addr &
//	snn-worker -store http://$(cat store.addr) -attack 3 -change -20,-10,10,20 -shards 2 -shard 0 &
//	snn-worker -store http://$(cat store.addr) -attack 3 -change -20,-10,10,20 -shards 2 -shard 1 &
//	wait
//	snn-attack  -store http://$(cat store.addr) -attack 3 -change -20,-10,10,20 -jsonl merged.jsonl
//
// The shared attack-free baseline is elected, not raced: shard 0
// trains it when missing; other shards poll the store until it
// appears (bounded by -baseline-wait, after which they train it
// themselves — wasted work, never wrong results).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"snnfi/internal/cli"
	"snnfi/internal/core"
	"snnfi/internal/fabric"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
	"snnfi/internal/spice"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "snn-worker:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		nImages      = flag.Int("n", 1000, "training images")
		dataDir      = flag.String("data", "", "optional real-MNIST directory")
		shards       = flag.Int("shards", 1, "total number of worker processes over this scenario")
		shard        = flag.Int("shard", 0, "this process's shard index (0-based)")
		baselineWait = flag.Duration("baseline-wait", 10*time.Minute, "how long a non-zero shard waits for shard 0's baseline before training its own")
	)
	attackFlags := cli.AddAttackFlags(flag.CommandLine)
	shared := cli.AddFlags(cli.Worker)
	flag.Parse()
	if shared.Store == "" {
		return fmt.Errorf("-store is required: a worker's whole job is writing cells through the shared store")
	}
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		return fmt.Errorf("bad shard geometry %d/%d (want 0 <= shard < shards)", *shard, *shards)
	}

	scn, err := attackFlags.Scenario()
	if err != nil {
		return err
	}

	sess, err := shared.Start(fmt.Sprintf("snn-worker[%d/%d]", *shard, *shards))
	if err != nil {
		return err
	}
	defer sess.CloseInto(&retErr)

	exp, err := core.NewExperiment(*dataDir, *nImages, snn.DefaultConfig())
	if err != nil {
		return err
	}
	exp.Workers = shared.Workers
	exp.OnProgress = sess.OnProgress()
	exp.Obs = sess.Registry
	if mem, ok := exp.Cache.(*runner.MemoryCache[*core.Result]); ok {
		mem.Instrument(sess.Registry, "cache.network.mem")
	}
	spice.Instrument(sess.Registry)

	cache, _, store, err := cli.Tiers[*core.Result](sess, exp.Cache, "network")
	if err != nil {
		return err
	}
	exp.Cache = cache

	// The shard assignment input: audit the scenario against the store
	// manifest. Every worker derives the same ordered missing list.
	held, err := store.Manifest()
	if err != nil {
		return err
	}
	audit, err := exp.AuditScenario(scn, core.HeldSet(held))
	if err != nil {
		return err
	}
	// The baseline is elected below, not sharded; cells that share a
	// key (plans with equal effects) are one unit of work.
	baseline := audit.Cells[0]
	var missing []string
	for _, k := range audit.MissingKeys() {
		if k != baseline.Key {
			missing = append(missing, k)
		}
	}
	mine := fabric.Shard(missing, *shard, *shards)
	fmt.Printf("shard %d/%d: %d of %d missing cells assigned (%d already in store)\n",
		*shard, *shards, len(mine), len(missing), audit.Present)

	// Baseline election: exactly one shard trains the shared baseline,
	// the rest read it from the store. Shard 0 trains it eagerly even
	// when its shard is otherwise empty — someone must.
	if !baseline.Present {
		if *shard == 0 {
			if _, err := exp.Baseline(); err != nil {
				return err
			}
		} else if err := awaitKey(store, baseline.Key, *baselineWait); err != nil {
			fmt.Fprintf(os.Stderr, "snn-worker: %v; training the baseline locally\n", err)
		}
	}

	if len(mine) == 0 {
		fmt.Println("executed cells: 0")
		fmt.Printf("trained networks: %d\n", exp.TrainCount())
		return nil
	}
	keep := func(_ int, key string) bool { return slices.Contains(mine, key) }
	pts, err := exp.RunScenarioSubset(scn, keep)
	if err != nil {
		return err
	}
	fmt.Printf("executed cells: %d\n", len(pts))
	fmt.Printf("trained networks: %d\n", exp.TrainCount())
	return nil
}

// awaitKey polls the store manifest until key appears or the wait
// budget runs out. Polling the manifest (not Get) keeps the typed
// cache's hit/miss accounting clean. The caller treats exhaustion as
// "train it yourself": with -baseline-wait 0 a shard skips the
// election entirely and duplicates the (deterministic, byte-identical)
// baseline on its own cores — the right trade when cores are free and
// wall-clock is the goal.
func awaitKey(store *runner.HTTPCache[*core.Result], key string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		keys, err := store.Manifest()
		if err == nil && slices.Contains(keys, key) {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("baseline %s… not in store after %v", key[:12], wait)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
