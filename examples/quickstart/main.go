// Quickstart: train a small Diehl&Cook digit classifier, hit its
// inhibitory layer with the paper's worst-case power fault (Attack 3,
// −20% threshold), and compare accuracies.
//
// Run with: go run ./examples/quickstart [-workers N] [-cache-dir DIR]
//
// -workers sizes both the campaign pool and each cell's intra-cell
// evaluation pass (0 = all CPUs; results are identical at every
// width); -cache-dir persists the two trained cells so a repeated run
// trains nothing.
package main

import (
	"flag"
	"fmt"
	"log"

	"snnfi/internal/core"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

func main() {
	var (
		workers  = flag.Int("workers", 0, "worker-pool size (0 = all CPUs)")
		cacheDir = flag.String("cache-dir", "", "optional directory persisting trained results across runs")
	)
	flag.Parse()

	// A reduced configuration so the example finishes in seconds: 300
	// images, 40+40 neurons, 150 ms presentations. cmd/figures runs the
	// full paper-scale campaign.
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = 40, 40
	cfg.Steps = 150

	exp, err := core.NewExperiment("", 300, cfg)
	if err != nil {
		log.Fatal(err)
	}
	exp.Workers = *workers
	var disk *runner.DiskCache[*core.Result]
	if *cacheDir != "" {
		disk, err = runner.NewDiskCache[*core.Result](*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		exp.Cache = runner.NewChain[*core.Result](exp.Cache, disk)
	}

	base, err := exp.Baseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack-free baseline: %.1f%% accuracy\n", 100*base)

	// Attack 3: laser-induced local VDD drop lowers every inhibitory
	// neuron's membrane threshold voltage by 20% (the paper's worst
	// case, Fig. 8b).
	plan := core.NewAttack3(0.8, 1.0, 1)
	res, err := exp.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under %s: %.1f%% accuracy (%+.1f%% vs baseline)\n",
		plan.Name, 100*res.Result.Accuracy, res.RelChangePc)
	fmt.Println("the inhibitory layer is the soft spot: losing winner-take-all")
	fmt.Println("competition destroys STDP specialization, exactly as the paper reports.")
	fmt.Printf("trained networks: %d\n", exp.TrainCount())
	if disk != nil {
		if err := disk.Err(); err != nil {
			log.Fatal(err)
		}
	}
}
