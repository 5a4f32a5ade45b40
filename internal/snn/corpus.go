package snn

import (
	"fmt"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
)

// Corpus is the spike input of a set of images: each image's Poisson
// spike train over one presentation, encoded once from its per-image
// seed and then read, never written, by every pass that presents it.
// The Diehl&Cook protocol trains every attack configuration on
// identical spike trains, and every cell presents each image twice
// (learning and assignment passes), so a campaign that encoded per
// presentation would redo the same encoding for every pass of every
// cell. A Corpus is safe for concurrent use.
type Corpus struct {
	// Steps is the presentation length every train covers; it must
	// equal the presenting network's Cfg.Steps.
	Steps int
	// Labels are the images' classes, in image order.
	Labels []uint8

	trains []SpikeTrain
}

// SpikeTrain is one image's encoded presentation. Step t's spiking
// pixels are spikes[off[t]:off[t+1]], in ascending pixel order, so a
// train costs one int per spike plus one offset per step.
type SpikeTrain struct {
	spikes []int
	off    []int32
}

// Steps returns the number of presentation steps the train covers.
func (tr SpikeTrain) Steps() int { return len(tr.off) - 1 }

// Step returns the pixels that spike at step t. The slice is shared
// with the corpus and must not be modified.
func (tr SpikeTrain) Step(t int) []int {
	lo, hi := tr.off[t], tr.off[t+1]
	return tr.spikes[lo:hi:hi]
}

// EncodeCorpus encodes every image for a presentation of steps steps:
// image i from the seed ImageSeed(enc.Seed(), i), at the encoder's
// MaxRate, Dt and Mode, so the trains are exactly what streaming
// image i from that seed would produce. The encoder's base seed is
// restored on return.
func EncodeCorpus(images []mnist.Image, enc *encoding.PoissonEncoder, steps int) *Corpus {
	base := enc.Seed()
	defer enc.Reseed(base)
	steps = max(steps, 0)
	c := &Corpus{
		Steps:  steps,
		Labels: make([]uint8, len(images)),
		trains: make([]SpikeTrain, len(images)),
	}
	// Each image is encoded into one reused scratch buffer and copied
	// out at its exact size: growing every train by append would leave
	// about as much garbage again as the corpus itself.
	var scratch []int
	for i := range images {
		c.Labels[i] = images[i].Label
		enc.Reseed(ImageSeed(base, i))
		enc.Begin(&images[i])
		off := make([]int32, steps+1)
		scratch = scratch[:0]
		for t := 0; t < steps; t++ {
			scratch = append(scratch, enc.EncodeStep()...)
			off[t+1] = int32(len(scratch))
		}
		c.trains[i] = SpikeTrain{spikes: append(make([]int, 0, len(scratch)), scratch...), off: off}
	}
	return c
}

// Len returns the number of images in the corpus.
func (c *Corpus) Len() int { return len(c.trains) }

// Train returns image i's spike train.
func (c *Corpus) Train(i int) SpikeTrain { return c.trains[i] }

// Spikes returns the total number of input spikes the corpus holds.
func (c *Corpus) Spikes() int {
	total := 0
	for _, tr := range c.trains {
		total += len(tr.spikes)
	}
	return total
}

// fits reports whether the corpus can be presented to a network with
// configuration cfg: it must hold at least one image, each encoded
// for exactly cfg.Steps steps.
func (c *Corpus) fits(cfg DiehlCookConfig) error {
	if c == nil || c.Len() == 0 {
		return fmt.Errorf("snn: no images to present")
	}
	if c.Steps != cfg.Steps {
		return fmt.Errorf("snn: corpus encodes %d steps per image, network presents %d", c.Steps, cfg.Steps)
	}
	return nil
}
