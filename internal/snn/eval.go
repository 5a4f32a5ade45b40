package snn

// Intra-cell parallel inference (see DESIGN.md "Intra-cell inference
// engine").
//
// Training mutates a DiehlCook in place and is inherently serial — each
// presentation's STDP depends on the weights the previous one left
// behind. The read-only phases are not: the label-assignment pass after
// training and every evaluation present images to the *frozen* trained
// network, so images can run concurrently once two things hold:
//
//  1. Workers share the trained network without sharing mutable state.
//     Each worker presents through its own frozen copy (frozenCopy): a
//     DiehlCook that shares the trained weight matrix read-only, holds
//     the thresholds, fault hooks and drive scale by copy, and steps
//     with the one DiehlCook.Step, learn=false.
//  2. Each image's spike train depends only on the image, not on the
//     encoder position a serial loop happened to reach. Image i is
//     encoded once, into the Corpus, from ImageSeed(base, i) —
//     runner.DeriveSeed over the base seed and the image index — and
//     every pass, serial or parallel, reads that train, which is what
//     makes counts and accuracy bit-identical at any worker count.
//
// Frozen means frozen: a frozen presentation changes no parameter of
// the trained network, and none of its copy's either. learn=false
// leaves the weights alone, and the copy's ThetaPlus of 0 and theta
// decay of exactly 1 keep every theta's bits (θ·1 and θ+0 are θ, and θ
// is never −0), matching BindsNET's learning-gated theta update — so
// image i's result never depends on the images before it.
//
// Copies are recycled through a package-level sync.Pool across passes
// and campaign cells, so a full scenario matrix stays allocation-flat
// in its read-only phases.

import (
	"fmt"
	"runtime"
	"sync"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/tensor"
)

// ImageSeed derives the presentation seed of image i from a base
// encoder seed. EncodeCorpus encodes image i from this seed, so a
// spike train depends only on (base, i), never on presentation order.
func ImageSeed(base int64, i int) int64 {
	return runner.DeriveSeed(base, "image", i)
}

// frozenCopy is one evaluation worker's view of a trained network: a
// DiehlCook that presents with learn=false.
type frozenCopy struct {
	net *DiehlCook
}

// frozenPool recycles frozen copies across evaluation passes and
// campaign cells. sync.Pool may drop entries under GC pressure —
// correctness never depends on a hit, only allocation volume does.
var frozenPool sync.Pool

// newFrozenCopy builds a frozen copy of n outside the pool. Its own
// weight matrix is never allocated: it shares n's.
func newFrozenCopy(n *DiehlCook) *frozenCopy {
	f := &frozenCopy{net: newDiehlCook(n.Cfg, newLIFGroup(n.Exc.Cfg), newLIFGroup(n.Inh.Cfg))}
	f.freeze(n)
	return f
}

// acquireFrozen returns a frozen copy of n ready to present, reusing a
// pooled one when it can.
func acquireFrozen(n *DiehlCook) *frozenCopy {
	f, _ := frozenPool.Get().(*frozenCopy)
	return f.refreeze(n)
}

// refreeze returns f frozen from n when f (possibly nil) has n's layer
// sizes, else a new frozen copy of n.
func (f *frozenCopy) refreeze(n *DiehlCook) *frozenCopy {
	if f == nil || len(f.net.preSeen) != n.Cfg.NInput || len(f.net.counts) != n.Cfg.NExc || len(f.net.Inh.V) != n.Cfg.NInh {
		return newFrozenCopy(n)
	}
	f.freeze(n)
	return f
}

// freeze makes f the frozen image of n: n's configuration, weights (by
// reference) and drive scale, and layers frozen by LIFGroup.freezeFrom.
// Whatever f presented before leaves no trace, since every
// presentation starts with ResetState.
func (f *frozenCopy) freeze(n *DiehlCook) {
	f.net.Cfg, f.net.W, f.net.InputDriveScale = n.Cfg, n.W, n.InputDriveScale
	f.net.Exc.freezeFrom(n.Exc)
	f.net.Inh.freezeFrom(n.Inh)
}

func releaseFrozen(f *frozenCopy) {
	f.net.W = nil // hold no trained network alive from the pool
	frozenPool.Put(f)
}

// present runs one frozen presentation and returns the per-neuron
// excitatory spike counts. The returned vector is the copy's
// accumulator — copy it to retain past the next presentation.
// Steady-state the call allocates nothing.
func (f *frozenCopy) present(tr SpikeTrain) tensor.Vector {
	return f.net.present(tr, false)
}

// EvalOptions configures a read-only presentation pass.
type EvalOptions struct {
	// Workers is the evaluation pool width; ≤0 uses all CPUs. Results
	// are bit-identical at every width.
	Workers int
	// Obs, when non-nil, receives the evaluation pool's telemetry under
	// "snn.eval.*" (per-shard run/wait histograms, job counters,
	// utilization) and the pass's work counters (see workCounts),
	// added once when the pass ends. Purely observational: results are
	// bit-identical with or without it.
	Obs *obs.Registry
}

// evalShard is how many consecutive images one pool job presents. The
// shard size trades scheduling overhead against load balance; it does
// not affect results (each image's train is fixed in the corpus).
const evalShard = 8

// runShards presents the corpus to frozen copies of n in contiguous
// image shards on the evaluation pool and returns run's per-image
// results in image order. run is called with a ready copy and an image
// index. A corpus that does not fit n's configuration is an error. n
// is only read, and must not change until runShards returns.
func runShards[T any](n *DiehlCook, c *Corpus, opt EvalOptions, run func(f *frozenCopy, i int) T) ([]T, error) {
	if err := c.fits(n.Cfg); err != nil {
		return nil, err
	}
	total := c.Len()
	var (
		mu   sync.Mutex
		work workCounts
	)
	jobs := make([]runner.Job[[]T], 0, (total+evalShard-1)/evalShard)
	for lo := 0; lo < total; lo += evalShard {
		lo, hi := lo, min(lo+evalShard, total)
		jobs = append(jobs, runner.Job[[]T]{
			Label: fmt.Sprintf("images[%d:%d]", lo, hi),
			Run: func() ([]T, error) {
				f := acquireFrozen(n)
				defer releaseFrozen(f)
				f.net.clearWork()
				out := make([]T, hi-lo)
				for i := lo; i < hi; i++ {
					out[i-lo] = run(f, i)
				}
				if opt.Obs != nil {
					mu.Lock()
					work.add(f.net.work())
					mu.Unlock()
				}
				return out, nil
			},
		})
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := &runner.Pool[[]T]{Workers: workers, Obs: opt.Obs, Name: "snn.eval"}
	shards, err := pool.Run(jobs)
	if err != nil {
		return nil, err
	}
	work.publish(opt.Obs)
	out := make([]T, 0, total)
	for _, s := range shards {
		out = append(out, s...)
	}
	return out, nil
}

// CountsParallel presents every image of the corpus to the trained
// network n with learning off and returns the per-image excitatory
// spike counts, in image order — the parallel label-assignment kernel.
// Counts are bit-identical at any worker count.
func CountsParallel(n *DiehlCook, c *Corpus, opt EvalOptions) ([]tensor.Vector, error) {
	return runShards(n, c, opt, func(f *frozenCopy, i int) tensor.Vector {
		return f.present(c.Train(i)).Copy()
	})
}

// EvaluateParallel presents every image of the corpus to the trained
// network n with learning off, classifies each with the given
// neuron→class assignments, and returns the fraction classified
// correctly. Unlike CountsParallel it keeps no per-image counts, so a
// full evaluation pass is allocation-flat.
func EvaluateParallel(n *DiehlCook, c *Corpus, assignments []int, opt EvalOptions) (float64, error) {
	correct, err := runShards(n, c, opt, func(f *frozenCopy, i int) int {
		if Classify(f.present(c.Train(i)), assignments) == int(c.Labels[i]) {
			return 1
		}
		return 0
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, ok := range correct {
		total += ok
	}
	return float64(total) / float64(len(correct)), nil
}
