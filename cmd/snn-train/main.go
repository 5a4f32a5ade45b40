// Command snn-train trains the Diehl&Cook network on the digit corpus
// without any fault injection and reports the baseline classification
// accuracy (the reference every attack is measured against; the paper
// reports 75.92% on 1000 training images).
//
// Usage:
//
//	snn-train [-n 1000] [-data DIR] [-neurons 100] [-steps 250] [-seed 1]
//	          [-workers N] [-cache-dir DIR]
//
// The learning pass is the paper's serial STDP protocol. The
// post-training label-assignment pass runs on the intra-cell
// evaluation pool: -workers sizes it (0 = all CPUs) and results are
// bit-identical at every width. -cache-dir persists the trained result
// by content address, so a repeated invocation with identical data and
// configuration trains nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"snnfi/internal/cli"
	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "snn-train:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		nImages = flag.Int("n", 1000, "training images")
		dataDir = flag.String("data", "", "optional real-MNIST directory (IDX files)")
		neurons = flag.Int("neurons", 100, "excitatory/inhibitory neurons per layer")
		steps   = flag.Int("steps", 250, "presentation steps per image (ms)")
		seed    = flag.Int64("seed", 1, "weight-initialization seed")
	)
	shared := cli.AddFlags(cli.Training)
	flag.Parse()
	sess, err := shared.Start("snn-train")
	if err != nil {
		return err
	}
	defer sess.CloseInto(&retErr)

	images, err := mnist.Load(*dataDir, *nImages, 7)
	if err != nil {
		return err
	}
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = *neurons, *neurons
	cfg.Steps = *steps
	cfg.Seed = *seed

	const encSeed = 42
	var (
		disk *runner.DiskCache[*snn.TrainResult]
		key  string
	)
	if shared.CacheDir != "" {
		disk, err = cli.Disk[*snn.TrainResult](sess, shared.CacheDir, "cache.train", "training")
		if err != nil {
			return err
		}
		key = runner.KeyOf("snn-train", snn.ProtocolVersion, cfg, int64(encSeed), len(images), mnist.Digest(images))
	}

	trained := 0
	res, cached := disk.Get(key)
	if !cached {
		net, err := snn.NewDiehlCook(cfg)
		if err != nil {
			return err
		}
		corpus := snn.EncodeCorpus(images, encoding.NewPoissonEncoder(encSeed), cfg.Steps)
		// The session's live line treats each learning-pass image as one
		// unit of progress (in order: Index tracks Done, never a hit).
		start := time.Now()
		opt := snn.TrainOptions{Workers: shared.Workers}
		opt.OnProgress = func(done, total int) {
			sess.Line.Observe(runner.Progress{
				Done: done, Total: total, Index: done - 1,
				Label: "stdp", Elapsed: time.Since(start),
			})
		}
		res, err = snn.TrainWith(net, corpus, opt)
		sess.Line.Finish()
		if err != nil {
			return err
		}
		trained = 1
		disk.Put(key, res)
	}

	fmt.Printf("images: %d   neurons: %d+%d   steps/image: %d\n",
		len(images), cfg.NExc, cfg.NInh, cfg.Steps)
	fmt.Printf("baseline accuracy: %.2f%%   (paper baseline: 75.92%%)\n", 100*res.Accuracy)
	fmt.Printf("total excitatory spikes: %.0f (%.1f per image)\n",
		res.TotalSpikes, res.TotalSpikes/float64(len(images)))

	var perClass [10]int
	for _, a := range res.Assignments {
		if a >= 0 {
			perClass[a]++
		}
	}
	fmt.Printf("neurons assigned per class: %v\n", perClass)
	// The count -cache-dir drives to zero on a warm repeat.
	fmt.Printf("trained networks: %d\n", trained)
	return nil
}
