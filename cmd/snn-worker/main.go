// Command snn-worker executes one shard of a campaign's missing cells
// against a shared content store (cmd/cached) — the worker side of the
// distributed fabric.
//
// Every process launched with the same attack flags, the same -shards
// count and a distinct -shard index derives the identical audit from
// the store manifest, takes the missing cells whose round-robin slot
// matches its index, trains them, and writes the results through the
// store. The attack-free baseline is one of those cells: a cell stores
// only its own score, so no shard waits for another. No coordination
// channel exists or is needed: cells are pure functions of their
// content address, so the only shared state is the store itself. When
// every shard exits, a coordinator run (snn-attack with the same flags
// and -store) finds the store warm, trains nothing, and emits sinks
// byte-identical to a single-process run.
//
//	cached -dir store -addr-file store.addr &
//	snn-worker -store http://$(cat store.addr) -attack 3 -change -20,-10,10,20 -shards 2 -shard 0 &
//	snn-worker -store http://$(cat store.addr) -attack 3 -change -20,-10,10,20 -shards 2 -shard 1 &
//	wait
//	snn-attack  -store http://$(cat store.addr) -attack 3 -change -20,-10,10,20 -jsonl merged.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

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
		nImages = flag.Int("n", 1000, "training images")
		dataDir = flag.String("data", "", "optional real-MNIST directory")
		shards  = flag.Int("shards", 1, "total number of worker processes over this scenario")
		shard   = flag.Int("shard", 0, "this process's shard index (0-based)")
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
	// manifest. Every worker derives the same ordered missing list, the
	// attack-free baseline first when it is missing; cells that share a
	// key (plans with equal effects) are one unit of work.
	held, err := store.Manifest()
	if err != nil {
		return err
	}
	audit, err := exp.AuditScenario(scn, core.HeldSet(held))
	if err != nil {
		return err
	}
	missing := audit.MissingKeys()
	mine := fabric.Shard(missing, *shard, *shards)
	fmt.Printf("shard %d/%d: %d of %d missing cells assigned (%d already in store)\n",
		*shard, *shards, len(mine), len(missing), audit.Present)

	ran, err := exp.RunScenarioSubset(scn, func(key string) bool { return slices.Contains(mine, key) })
	if err != nil {
		return err
	}
	fmt.Printf("executed cells: %d\n", len(ran))
	fmt.Printf("trained networks: %d\n", exp.TrainCount())
	return nil
}
