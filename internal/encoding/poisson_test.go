package encoding

import (
	"math"
	"math/rand"
	"testing"

	"snnfi/internal/mnist"
)

func testImage() *mnist.Image {
	var img mnist.Image
	for i := range img.Pixels {
		switch {
		case i < 100:
			img.Pixels[i] = 255
		case i < 200:
			img.Pixels[i] = 128
		default:
			img.Pixels[i] = 0
		}
	}
	return &img
}

func TestProbabilitiesScale(t *testing.T) {
	enc := NewPoissonEncoder(1)
	p := enc.Probabilities(testImage())
	want := 128.0 / 1000 // saturated pixel at 128 Hz, 1 ms steps
	if math.Abs(p[0]-want) > 1e-12 {
		t.Fatalf("saturated pixel p = %v, want %v", p[0], want)
	}
	if math.Abs(p[150]-want*128/255) > 1e-12 {
		t.Fatalf("half pixel p = %v", p[150])
	}
	if p[300] != 0 {
		t.Fatalf("dark pixel p = %v, want 0", p[300])
	}
}

func TestEncodeRateProportionality(t *testing.T) {
	enc := NewPoissonEncoder(7)
	img := testImage()
	const steps = 4000
	train := enc.Encode(img, steps)
	counts := CountSpikes(train, len(img.Pixels))

	brightRate := avg(counts[:100])
	halfRate := avg(counts[100:200])
	darkRate := avg(counts[200:])
	if darkRate != 0 {
		t.Fatalf("dark pixels spiked: %v", darkRate)
	}
	wantBright := 0.128 * steps
	if math.Abs(brightRate-wantBright)/wantBright > 0.1 {
		t.Fatalf("bright rate %v, want ≈%v", brightRate, wantBright)
	}
	ratio := brightRate / halfRate
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("bright/half ratio %v, want ≈255/128", ratio)
	}
}

func TestEncodeDeterministicWithSeed(t *testing.T) {
	img := testImage()
	a := NewPoissonEncoder(5).Encode(img, 50)
	b := NewPoissonEncoder(5).Encode(img, 50)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("step %d lengths differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("step %d spike %d differs", i, j)
			}
		}
	}
}

func TestReseedRestoresStream(t *testing.T) {
	img := testImage()
	enc := NewPoissonEncoder(9)
	first := enc.Encode(img, 20)
	enc.Reseed(9)
	second := enc.Encode(img, 20)
	for i := range first {
		if len(first[i]) != len(second[i]) {
			t.Fatal("reseeded stream diverged")
		}
	}
}

func TestEncodeStepsCount(t *testing.T) {
	enc := NewPoissonEncoder(3)
	train := enc.Encode(testImage(), 37)
	if len(train) != 37 {
		t.Fatalf("got %d steps", len(train))
	}
}

func TestCountSpikesIndices(t *testing.T) {
	train := [][]int{{1, 2}, {2}, {}}
	counts := CountSpikes(train, 4)
	want := []int{0, 1, 2, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v", counts)
		}
	}
}

func avg(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// TestStreamMatchesEncode pins the streaming Begin/EncodeStep path
// against the materialized Encode: for the same seed both must consume
// the random stream identically and produce bit-identical spike
// trains.
func TestStreamMatchesEncode(t *testing.T) {
	img := testImage()
	const steps = 300
	train := NewPoissonEncoder(13).Encode(img, steps)
	stream := NewPoissonEncoder(13)
	stream.Begin(img)
	for tt := 0; tt < steps; tt++ {
		got := stream.EncodeStep()
		want := train[tt]
		if len(got) != len(want) {
			t.Fatalf("step %d: %d spikes streamed, %d materialized", tt, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("step %d spike %d: pixel %d streamed, %d materialized", tt, k, got[k], want[k])
			}
		}
	}
}

// TestStreamStepAllocationFree verifies EncodeStep allocates nothing
// once its buffers have warmed up. The skip-sampler's ring buckets warm
// over a full ring cycle (event capacity accumulates as gaps land), so
// the warmup covers more than ringSize steps; the test is deterministic
// for a fixed seed.
func TestStreamStepAllocationFree(t *testing.T) {
	enc := NewPoissonEncoder(3)
	img := testImage()
	enc.Begin(img)
	for i := 0; i < 600; i++ { // warm buffers over two-plus ring cycles
		enc.EncodeStep()
	}
	allocs := testing.AllocsPerRun(200, func() {
		enc.EncodeStep()
	})
	if allocs != 0 {
		t.Fatalf("EncodeStep allocates %.1f objects per step, want 0", allocs)
	}
}

// TestSkipSamplingAscendingOrder: the skip-sampler's event ring gathers
// spikes scheduled from different past steps; every emitted step must
// still list pixels in strictly ascending order (the network kernels
// and the materialized/streamed bit-identity both rely on it).
func TestSkipSamplingAscendingOrder(t *testing.T) {
	enc := NewPoissonEncoder(17)
	enc.Begin(testImage())
	for tt := 0; tt < 2000; tt++ {
		step := enc.EncodeStep()
		for k := 1; k < len(step); k++ {
			if step[k] <= step[k-1] {
				t.Fatalf("step %d not ascending: %v", tt, step)
			}
		}
	}
}

// TestSkipSamplingCertainPixel: probability ≥ 1 (rate saturating the
// timestep) must spike every step under the skip-sampler — the
// invLnQ = 0 sentinel path.
func TestSkipSamplingCertainPixel(t *testing.T) {
	var img mnist.Image
	img.Pixels[0] = 255
	img.Pixels[1] = 10
	enc := NewPoissonEncoder(5)
	enc.MaxRate = 10000 // p = 255/255 · 10000/1000 = 10 ≥ 1 for pixel 0
	const steps = 500
	counts := CountSpikes(enc.Encode(&img, steps), len(img.Pixels))
	if counts[0] != steps {
		t.Fatalf("certain pixel spiked %d/%d steps", counts[0], steps)
	}
	if counts[1] == 0 || counts[1] == steps {
		t.Fatalf("sub-certain pixel count %d implausible", counts[1])
	}
}

// statImage spans the probability range the statistical-equivalence
// test needs: saturated (p=0.128), half, dim, and a near-silent class
// whose mean gap (~2000 steps) far exceeds the ring's skip horizon, so
// the deferral/resample path carries essentially all of its spikes.
func statImage() *mnist.Image {
	var img mnist.Image
	for i := range img.Pixels {
		switch {
		case i < 50:
			img.Pixels[i] = 255
		case i < 100:
			img.Pixels[i] = 128
		case i < 150:
			img.Pixels[i] = 16
		case i < 200:
			img.Pixels[i] = 1
		}
	}
	return &img
}

// referenceCounts is the draw-per-pixel Bernoulli sampler (the
// train-protocol-v2 encoder), the reference the skip-sampler is
// checked against: every step, each nonzero-probability pixel draws
// one uniform, in pixel order, and spikes iff it falls below p. It
// returns each pixel's spike count over steps.
func referenceCounts(img *mnist.Image, seed int64, steps int) []int {
	rng := rand.New(rand.NewSource(seed))
	probs := NewPoissonEncoder(seed).Probabilities(img)
	counts := make([]int, len(probs))
	for tt := 0; tt < steps; tt++ {
		for i, p := range probs {
			if p > 0 && rng.Float64() < p {
				counts[i]++
			}
		}
	}
	return counts
}

// TestSkipSamplingMatchesReferenceStatistics is the statistical
// contract behind the protocol-v3 encoder: over ≥10⁵ steps, the
// skip-sampler's per-pixel spike counts must match the Bernoulli
// law the reference sampler realizes — class-pooled means within 5σ of
// n·p, per-pixel counts within 6σ individually, and the across-pixel
// count variance consistent with binomial (the gap law collapses wrong
// variance long before it moves the mean). The reference sampler runs
// the same image as the measuring stick for the pooled means.
func TestSkipSamplingMatchesReferenceStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-step distributional test")
	}
	img := statImage()
	const steps = 120000
	classes := []struct{ lo, hi int }{{0, 50}, {50, 100}, {100, 150}, {150, 200}}

	enc := NewPoissonEncoder(101)
	enc.Begin(img)
	skip := make([]int, len(img.Pixels))
	for tt := 0; tt < steps; tt++ {
		for _, i := range enc.EncodeStep() {
			skip[i]++
		}
	}
	ref := referenceCounts(img, 202, steps)
	probs := enc.Probabilities(img)

	for _, c := range classes {
		p := probs[c.lo]
		n := float64(c.hi-c.lo) * steps // pooled Bernoulli trials per class
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		var skipN, refN int
		for i := c.lo; i < c.hi; i++ {
			skipN += skip[i]
			refN += ref[i]
		}
		if d := math.Abs(float64(skipN) - mean); d > 5*sd {
			t.Errorf("class p=%.5f: skip pooled count %d, want %.0f ± %.0f (5σ)", p, skipN, mean, 5*sd)
		}
		if d := math.Abs(float64(skipN) - float64(refN)); d > 7*sd {
			t.Errorf("class p=%.5f: skip %d vs reference %d differ beyond 7σ=%.0f", p, skipN, refN, 7*sd)
		}

		// Per-pixel means and across-pixel variance against binomial.
		pm, psd := float64(steps)*p, math.Sqrt(float64(steps)*p*(1-p))
		var sum, sumsq float64
		for i := c.lo; i < c.hi; i++ {
			x := float64(skip[i])
			if d := math.Abs(x - pm); d > 6*psd+1 {
				t.Errorf("pixel %d (p=%.5f): %d spikes, want %.1f ± %.1f (6σ)", i, p, skip[i], pm, 6*psd)
			}
			sum += x
			sumsq += x * x
		}
		m := float64(c.hi - c.lo)
		sampleVar := (sumsq - sum*sum/m) / (m - 1)
		wantVar := float64(steps) * p * (1 - p)
		// χ²₄₉-scale noise on a 50-pixel sample variance: ±60% is ~3σ.
		if sampleVar < 0.4*wantVar || sampleVar > 1.6*wantVar {
			t.Errorf("class p=%.5f: count variance %.1f, binomial predicts %.1f", p, sampleVar, wantVar)
		}
	}
	for i := 200; i < len(img.Pixels); i++ {
		if skip[i] != 0 {
			t.Fatalf("dark pixel %d spiked under skip-sampling", i)
		}
	}
}

// TestStreamRateProportionality is the rate property test for the
// streaming path: over many steps each pixel's spike count must track
// its per-step probability, and the streamed counts must agree exactly
// with CountSpikes over a materialized train from the same seed.
func TestStreamRateProportionality(t *testing.T) {
	img := testImage()
	const steps = 4000
	enc := NewPoissonEncoder(7)
	probs := enc.Probabilities(img)
	enc.Begin(img)
	counts := make([]int, len(img.Pixels))
	for tt := 0; tt < steps; tt++ {
		for _, i := range enc.EncodeStep() {
			counts[i]++
		}
	}
	for i, p := range probs {
		if p == 0 {
			if counts[i] != 0 {
				t.Fatalf("dark pixel %d spiked %d times", i, counts[i])
			}
			continue
		}
		mean := p * steps
		// Allow 5 standard deviations of Bernoulli noise.
		sd := math.Sqrt(p * (1 - p) * steps)
		if d := math.Abs(float64(counts[i]) - mean); d > 5*sd+1 {
			t.Fatalf("pixel %d: %d spikes over %d steps, want %.1f ± %.1f", i, counts[i], steps, mean, 5*sd)
		}
	}
	want := CountSpikes(NewPoissonEncoder(7).Encode(img, steps), len(img.Pixels))
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("pixel %d: streamed count %d != materialized count %d", i, counts[i], want[i])
		}
	}
}
