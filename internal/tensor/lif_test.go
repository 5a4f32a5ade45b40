package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// lifSizes are the layer sizes the LIF kernels are checked at: every
// tail length after the 4-wide groups, and mask words that end full,
// partial or one neuron into the next word.
var lifSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 130}

// lifCase is one randomized layer state with the LIF kernel's
// operands.
type lifCase struct {
	v, theta, drive, gain, scale    Vector
	refrac                          []int
	rest, decay, thresh, thetaDecay float64
}

// lifSpecials are the values the cases sprinkle into every operand.
var lifSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308,
}

// newLIFCase draws a state around the Diehl&Cook excitatory constants
// in which some neurons fire, some are refractory (a few with negative
// counts, which Go treats as not refractory) and about one operand in
// ten is a special value. Gains include 0 and ±Inf, and one case in
// three decays theta by exactly 1.
func newLIFCase(rng *rand.Rand, n int) *lifCase {
	pick := func(normal float64) float64 {
		if rng.Intn(10) == 0 {
			return lifSpecials[rng.Intn(len(lifSpecials))]
		}
		return normal
	}
	c := &lifCase{
		v: NewVector(n), theta: NewVector(n), drive: NewVector(n),
		gain: NewVector(n), scale: NewVector(n),
		refrac: make([]int, n),
		rest:   -65, decay: math.Exp(-0.01), thresh: -52,
		thetaDecay: math.Exp(-1e-7),
	}
	if rng.Intn(3) == 0 {
		c.thetaDecay = 1
	}
	if rng.Intn(8) == 0 {
		c.rest = pick(c.rest)
		c.decay = pick(c.decay)
		c.thresh = pick(c.thresh)
	}
	gains := []float64{1, 1, 1, 0.9, 0, math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		c.v[i] = pick(-65 + 15*rng.Float64())
		c.theta[i] = pick(0.5 * rng.Float64())
		c.drive[i] = pick(6 * rng.NormFloat64())
		c.gain[i] = pick(gains[rng.Intn(len(gains))])
		c.scale[i] = pick([]float64{1, 0.8, 1.25}[rng.Intn(3)])
		switch rng.Intn(6) {
		case 0:
			c.refrac[i] = 1 + rng.Intn(5)
		case 1:
			c.refrac[i] = -rng.Intn(3)
		}
	}
	return c
}

func (c *lifCase) copy() *lifCase {
	d := *c
	d.v, d.theta, d.drive = c.v.Copy(), c.theta.Copy(), c.drive.Copy()
	d.gain, d.scale = c.gain.Copy(), c.scale.Copy()
	d.refrac = append([]int(nil), c.refrac...)
	return &d
}

// sameLIF fails the test unless the two states hold the same bits.
func sameLIF(t *testing.T, got, want *lifCase, gotMask, wantMask []uint64) {
	t.Helper()
	for i := range want.v {
		if !sameFloat(got.v[i], want.v[i]) {
			t.Fatalf("neuron %d/%d: v %v, Go loop %v", i, len(want.v), got.v[i], want.v[i])
		}
		if !sameFloat(got.theta[i], want.theta[i]) {
			t.Fatalf("neuron %d/%d: theta %v, Go loop %v", i, len(want.v), got.theta[i], want.theta[i])
		}
		if got.refrac[i] != want.refrac[i] {
			t.Fatalf("neuron %d/%d: refrac %d, Go loop %d", i, len(want.v), got.refrac[i], want.refrac[i])
		}
	}
	for w := range wantMask {
		if gotMask[w] != wantMask[w] {
			t.Fatalf("mask word %d/%d: %#x, Go loop %#x", w, len(wantMask), gotMask[w], wantMask[w])
		}
	}
}

// checkLIFStep steps one random layer of n neurons three times through
// the dispatched kernel and its Go loop and compares them bit for bit
// after every step. It returns how many spikes the Go loop emitted.
func checkLIFStep(t *testing.T, seed int64, n int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := MaskWords(n)
	spikes := 0
	want := newLIFCase(rng, n)
	got := want.copy()
	// One word past the mask holds a sentinel the kernel must not touch;
	// the mask itself starts dirty.
	gotMask := make([]uint64, words+1)
	for w := range gotMask {
		gotMask[w] = ^uint64(0)
	}
	wantMask := make([]uint64, words+1)
	wantMask[words] = ^uint64(0)
	for step := 0; step < 3; step++ {
		clear(wantMask[:words])
		LIFStep(got.v, got.theta, got.refrac, got.drive, got.gain, got.scale, got.rest, got.decay, got.thresh, got.thetaDecay, gotMask)
		lifStepGeneric(0, want.v, want.theta, want.refrac, want.drive, want.gain, want.scale, want.rest, want.decay, want.thresh, want.thetaDecay, wantMask)
		sameLIF(t, got, want, gotMask, wantMask)
		for _, w := range wantMask[:words] {
			for ; w != 0; w &= w - 1 {
				spikes++
			}
		}
	}
	return spikes
}

// TestLIFStepMatchesGoLoop runs checkLIFStep at every size in lifSizes
// over several seeds, and requires spikes at every size from 4 up, so
// the comparison is not vacuous.
func TestLIFStepMatchesGoLoop(t *testing.T) {
	for _, n := range lifSizes {
		spikes := 0
		for seed := int64(0); seed < 8; seed++ {
			spikes += checkLIFStep(t, seed*1000+int64(n), n)
		}
		if n >= 4 && spikes == 0 {
			t.Fatalf("n=%d: no spikes in any seed; the comparison is vacuous", n)
		}
	}
}

// FuzzLIFStep checks the LIF kernel, as dispatched, against its Go
// loop on fuzzed layers: V, theta, refractory counts and the spike
// mask, bit for bit, at every size in lifSizes.
func FuzzLIFStep(f *testing.F) {
	for k := range lifSizes {
		f.Add(int64(k), uint8(k))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		checkLIFStep(t, seed, lifSizes[int(size)%len(lifSizes)])
	})
}
