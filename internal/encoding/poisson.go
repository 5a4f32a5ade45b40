// Package encoding converts images into spike trains. The attack
// experiments use BindsNET-compatible Poisson rate coding: each pixel
// becomes an independent Bernoulli spike process whose rate is
// proportional to intensity.
//
// The encoder draws that process with a geometric skip-sampler: one
// exponential variate per *spike*, sampling the gap to each pixel's
// next spike and skipping the quiet steps, where a draw-per-pixel
// sampler draws one uniform per nonzero pixel per *step*. The per-step
// law is the same; the random stream is consumed differently, which is
// why the sampler is part of the training protocol (snn.ProtocolVersion).
package encoding

import (
	"math"
	"math/bits"
	"math/rand"

	"snnfi/internal/mnist"
)

// Skip-sampler event ring: pending spike/deferral events are bucketed
// by the step they are due at, modulo ringSize. Gaps are scheduled at
// most skipHorizon steps ahead; a sampled gap of ≥ skipHorizon becomes
// a deferral event skipHorizon steps out, where the remaining gap is
// resampled — by the memorylessness of the geometric distribution the
// total gap keeps exactly the geometric law. The farthest schedule
// target from a step t is t+1+skipHorizon = t+255 < t+ringSize, so a
// bucket never receives events while it is being drained.
const (
	ringSize    = 256
	ringMask    = ringSize - 1
	skipHorizon = ringSize - 2
)

// PoissonEncoder converts pixel intensities into Bernoulli spike
// probabilities per timestep: p = (pixel/255)·MaxRate·Dt, with MaxRate
// in Hz and Dt in milliseconds (BindsNET's convention with
// intensity=128).
type PoissonEncoder struct {
	MaxRate float64 // peak firing rate for a saturated pixel (Hz)
	Dt      float64 // timestep (ms)

	rng  *rand.Rand
	seed int64

	// Streaming state (Begin/EncodeStep): the image's nonzero-probability
	// pixels and a reusable spike buffer, so encoding one timestep
	// allocates nothing. One image streams at a time per encoder; Begin
	// resets the state.
	idx []int
	buf []int

	// Skip-sampler state: per-slot 1/ln(1/(1−p)) — the exponential-to-
	// geometric scale of drawGap; 0 marks p ≥ 1, a pixel that spikes
	// every step — the event ring, the step counter, and the per-step
	// drain bitmaps (one bit per active slot, plus the deferral flags)
	// used to emit a step's events in ascending pixel order without
	// sorting.
	invLnQ []float64
	ring   [ringSize][]int32
	step   int
	occ    []uint64
	dfr    []uint64
}

// NewPoissonEncoder returns an encoder with the experiment defaults
// (128 Hz peak rate, 1 ms steps, skip-sampling) and a deterministic
// stream.
func NewPoissonEncoder(seed int64) *PoissonEncoder {
	return &PoissonEncoder{MaxRate: 128, Dt: 1, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Reseed resets the encoder's random stream, making spike trains
// reproducible across runs over the same images. The generator is
// reinitialized in place, so per-image reseeding (the snn engine's
// seeding contract) allocates nothing once the encoder exists.
func (e *PoissonEncoder) Reseed(seed int64) {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(seed))
	} else {
		e.rng.Seed(seed)
	}
	e.seed = seed
}

// Seed returns the seed of the most recent NewPoissonEncoder/Reseed —
// the base from which per-image presentation seeds are derived.
func (e *PoissonEncoder) Seed() int64 { return e.seed }

// Probabilities returns the per-step spike probability of every pixel.
func (e *PoissonEncoder) Probabilities(img *mnist.Image) []float64 {
	p := make([]float64, len(img.Pixels))
	scale := e.MaxRate * e.Dt / 1000 / 255
	for i, px := range img.Pixels {
		p[i] = float64(px) * scale
	}
	return p
}

// Begin prepares streaming encoding of img: it precomputes the list of
// pixels with nonzero spike probability and draws each pixel's first
// spike step. Streaming (Begin/EncodeStep) and materialized (Encode)
// paths are bit-identical for the same seed.
func (e *PoissonEncoder) Begin(img *mnist.Image) {
	scale := e.MaxRate * e.Dt / 1000 / 255
	e.idx = e.idx[:0]
	e.invLnQ = e.invLnQ[:0]
	for i := range e.ring {
		e.ring[i] = e.ring[i][:0]
	}
	e.step = 0
	for i, px := range img.Pixels {
		p := float64(px) * scale
		if p <= 0 {
			continue
		}
		slot := len(e.idx)
		e.idx = append(e.idx, i)
		inv := 0.0 // p ≥ 1: a certain spike every step, gap always 0
		if p < 1 {
			inv = -1 / math.Log1p(-p)
		}
		e.invLnQ = append(e.invLnQ, inv)
		// First candidate step is 0: the first spike lands g steps in.
		e.scheduleFrom(int32(slot), 0)
	}
	words := (len(e.idx) + 63) / 64
	if cap(e.occ) < words {
		e.occ = make([]uint64, words)
		e.dfr = make([]uint64, words)
	} else {
		e.occ = e.occ[:words]
		e.dfr = e.dfr[:words]
		for w := range e.occ {
			e.occ[w] = 0
			e.dfr[w] = 0
		}
	}
}

// drawGap samples the geometric gap (failures before the next spike)
// for a pixel with inv = 1/ln(1/(1−p)), clamped to the deferral
// sentinel: a return of skipHorizon means "no spike for skipHorizon
// steps, resample there". With E ~ Exp(1), floor(E·inv) is geometric
// on {0,1,…}: P(gap ≥ k) = P(E ≥ −k·ln(1−p)) = (1−p)^k — the same
// exact law as inverting a uniform through log1p, but drawn by the
// ziggurat (ExpFloat64), which costs a table lookup instead of a
// logarithm on almost every draw. inv = 0 (p ≥ 1) yields gap 0 — a
// certain spike — while still consuming one draw, keeping the stream
// advance uniform per event.
func (e *PoissonEncoder) drawGap(inv float64) int {
	fg := e.rng.ExpFloat64() * inv
	if !(fg < skipHorizon) { // catches extreme tail draws
		return skipHorizon
	}
	return int(fg)
}

// scheduleFrom draws the gap from candidate step pos and files the
// pixel's next event: a spike at pos+gap, or a deferral at
// pos+skipHorizon when the gap reaches the horizon.
func (e *PoissonEncoder) scheduleFrom(slot int32, pos int) {
	g := e.drawGap(e.invLnQ[slot])
	ev := slot << 1
	if g == skipHorizon {
		ev |= 1
	}
	b := (pos + g) & ringMask
	e.ring[b] = append(e.ring[b], ev)
}

// EncodeStep draws one timestep of the image installed by Begin and
// returns the indices of pixels that spiked, in ascending pixel order.
// The returned slice is reused by the next call; copy it to retain.
// Encoding a step performs no allocation once the buffers have warmed
// up.
func (e *PoissonEncoder) EncodeStep() []int {
	t := e.step
	bucket := e.ring[t&ringMask]
	e.buf = e.buf[:0]
	if len(bucket) > 0 {
		// Events accumulated from different source steps: scatter them
		// into the slot bitmaps, then drain in ascending bit order, so
		// spikes emit in ascending pixel order and RNG draws happen in a
		// canonical (pixel-order) sequence within the step. Each pixel
		// has at most one pending event, so slots never collide.
		occ, dfr := e.occ, e.dfr
		for _, ev := range bucket {
			slot := ev >> 1
			w, b := slot>>6, uint(slot&63)
			occ[w] |= 1 << b
			if ev&1 != 0 {
				dfr[w] |= 1 << b
			}
		}
		e.ring[t&ringMask] = bucket[:0]
		for w, bw := range occ {
			if bw == 0 {
				continue
			}
			occ[w] = 0
			dbits := dfr[w]
			dfr[w] = 0
			base := int32(w) << 6
			for bw != 0 {
				bz := bits.TrailingZeros64(bw)
				bw &= bw - 1
				slot := base + int32(bz)
				if dbits&(1<<uint(bz)) != 0 {
					// Deferral: the pixel has not spiked for skipHorizon
					// steps; resample the remaining gap from here. A
					// zero gap is a spike at this very step.
					g := e.drawGap(e.invLnQ[slot])
					if g > 0 {
						nev := slot << 1
						if g == skipHorizon {
							nev |= 1
						}
						b := (t + g) & ringMask
						e.ring[b] = append(e.ring[b], nev)
						continue
					}
				}
				e.buf = append(e.buf, e.idx[slot])
				e.scheduleFrom(slot, t+1)
			}
		}
	}
	e.step++
	return e.buf
}

// Encode produces a spike train of the given number of steps: for each
// step, the indices of pixels that spiked. The sparse representation is
// what the network's propagation kernel consumes directly. It is the
// materialized form of Begin/EncodeStep and produces bit-identical
// trains.
func (e *PoissonEncoder) Encode(img *mnist.Image, steps int) [][]int {
	e.Begin(img)
	train := make([][]int, steps)
	for t := 0; t < steps; t++ {
		if step := e.EncodeStep(); len(step) > 0 {
			train[t] = append(make([]int, 0, len(step)), step...)
		}
	}
	return train
}

// CountSpikes returns the total spike count per pixel over a train,
// useful for verifying rate proportionality.
func CountSpikes(train [][]int, n int) []int {
	counts := make([]int, n)
	for _, step := range train {
		for _, i := range step {
			counts[i]++
		}
	}
	return counts
}
