package snn

// Equivalence tests pinning the sparse hot-path engine against the
// dense pre-optimization semantics. The reference implementation below
// reproduces the original update rules verbatim — a zeroed drive
// accumulated row by row, dense per-step trace decay, a dense
// inhibitory drive and layer pass every step, dense STDP loops with
// nonzero-trace checks, the column-strided At/Set potentiation walk,
// unconditional LIF decays, and per-column strided normalization of
// the columns whose neurons spiked while learning — and shares only
// the deliberately reordered O(NExc) lateral inhibition (see
// EXPERIMENTS.md for its calibration record). Everything else must
// match the engine bit for bit: spike trains, weights, traces.

import (
	"math"
	"testing"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/tensor"
)

// refLIF is the pre-optimization LIF group loop: unconditional decays,
// no idle skipping, dense drive.
type refLIF struct {
	cfg     LIFConfig
	v       tensor.Vector
	theta   tensor.Vector
	trace   tensor.Vector
	refrac  []int
	tscale  tensor.Vector
	gain    tensor.Vector
	decay   float64
	thDecay float64
	trDecay float64
	scratch []int
}

func newRefLIF(t *testing.T, cfg LIFConfig) *refLIF {
	t.Helper()
	g, err := NewLIFGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refLIF{
		cfg: cfg, v: g.V.Copy(), theta: g.Theta.Copy(), trace: g.Trace.Copy(),
		refrac: make([]int, cfg.N), tscale: g.ThreshScale.Copy(), gain: g.InputGain.Copy(),
		decay: g.decay, thDecay: g.thetaDecay, trDecay: g.traceDecay,
	}
}

func (g *refLIF) reset() {
	g.v.Fill(g.cfg.Rest)
	g.trace.Zero()
	for i := range g.refrac {
		g.refrac[i] = 0
	}
}

func (g *refLIF) step(drive tensor.Vector) []int {
	cfg := g.cfg
	g.scratch = g.scratch[:0]
	for i := 0; i < cfg.N; i++ {
		g.v[i] = cfg.Rest + (g.v[i]-cfg.Rest)*g.decay
		g.trace[i] *= g.trDecay
		g.theta[i] *= g.thDecay
		if g.refrac[i] > 0 {
			g.refrac[i]--
			continue
		}
		g.v[i] += drive[i] * g.gain[i]
		if g.v[i] >= (cfg.Thresh+g.theta[i])*g.tscale[i] {
			g.scratch = append(g.scratch, i)
			g.v[i] = cfg.Reset
			g.refrac[i] = cfg.Refrac
			g.theta[i] += cfg.ThetaPlus
			g.trace[i] = 1
		}
	}
	return g.scratch
}

// refNet is the dense reference network.
type refNet struct {
	cfg        DiehlCookConfig
	w          *tensor.Matrix
	driveScale float64
	exc, inh   *refLIF
	preTrace   tensor.Vector
	driveExc   tensor.Vector
	driveInh   tensor.Vector
	prevExc    []int
	prevInh    []int
	dirty      []bool // columns whose neuron spiked while learning
}

func newRefNet(t *testing.T, cfg DiehlCookConfig) *refNet {
	t.Helper()
	// Clone the engine's initial weights so both start bit-identical.
	eng, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refNet{
		cfg: cfg, w: eng.W.Copy(), driveScale: 1,
		exc: newRefLIF(t, ExcConfig(cfg.NExc)), inh: newRefLIF(t, InhConfig(cfg.NInh)),
		preTrace: tensor.NewVector(cfg.NInput),
		driveExc: tensor.NewVector(cfg.NExc),
		driveInh: tensor.NewVector(cfg.NInh),
		dirty:    make([]bool, cfg.NExc),
	}
}

// normalize rescales each dirty column to sum to Norm, one strided
// column at a time, and clears the dirty marks.
func (r *refNet) normalize() {
	for j, d := range r.dirty {
		if !d {
			continue
		}
		r.dirty[j] = false
		var s float64
		for i := 0; i < r.w.Rows; i++ {
			s += r.w.At(i, j)
		}
		if s == 0 {
			continue
		}
		f := r.cfg.Norm / s
		for i := 0; i < r.w.Rows; i++ {
			r.w.Set(i, j, r.w.At(i, j)*f)
		}
	}
}

func (r *refNet) reset() {
	r.exc.reset()
	r.inh.reset()
	r.preTrace.Zero()
	r.prevExc = r.prevExc[:0]
	r.prevInh = r.prevInh[:0]
}

func (r *refNet) step(inputSpikes []int, learn bool) []int {
	cfg := &r.cfg
	r.driveExc.Zero()
	for _, i := range inputSpikes {
		for j, w := range r.w.Row(i) {
			if r.driveScale != 1 {
				r.driveExc[j] += r.driveScale * w
			} else {
				r.driveExc[j] += w
			}
		}
	}
	// The O(NExc) inhibition, reordered identically to the engine's.
	if k := len(r.prevInh); k > 0 {
		sub := float64(k) * cfg.WInhExc
		for i := range r.driveExc {
			r.driveExc[i] -= sub
		}
		for _, j := range r.prevInh {
			r.driveExc[j] += cfg.WInhExc
		}
	}
	excSpikes := r.exc.step(r.driveExc)

	r.driveInh.Zero()
	for _, j := range r.prevExc {
		r.driveInh[j] += cfg.WExcInh
	}
	inhSpikes := r.inh.step(r.driveInh)

	// Dense pre-optimization STDP.
	if learn {
		for _, j := range excSpikes {
			r.dirty[j] = true
		}
		for _, i := range inputSpikes {
			row := r.w.Row(i)
			for j, tr := range r.exc.trace {
				if tr == 0 {
					continue
				}
				w := row[j] - cfg.NuPre*tr
				if w < 0 {
					w = 0
				}
				row[j] = w
			}
		}
		for _, j := range excSpikes {
			for i := 0; i < cfg.NInput; i++ {
				if tr := r.preTrace[i]; tr != 0 {
					w := r.w.At(i, j) + cfg.NuPost*tr
					if w > cfg.WMax {
						w = cfg.WMax
					}
					r.w.Set(i, j, w)
				}
			}
		}
	}

	// Dense per-step trace decay, then set on spike.
	r.preTrace.Scale(preTraceDecayPerMs)
	for _, i := range inputSpikes {
		r.preTrace[i] = 1
	}

	r.prevExc = append(r.prevExc[:0], excSpikes...)
	r.prevInh = append(r.prevInh[:0], inhSpikes...)
	return excSpikes
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultCase is one fault configuration the sparse engine must follow
// exactly. Each is chosen for a path of the engine it drives, and
// wants names the observations that prove the path ran.
type faultCase struct {
	name       string
	inhScale   float64 // ThreshScale of the faulted inhibitory neurons
	inhCount   int     // how many leading inhibitory neurons; 0: all
	inhGain    float64 // InputGain of inhibitory neuron 0; 0: nominal
	excGain    float64 // InputGain of the whole excitatory layer
	driveScale float64 // InputDriveScale
	wants      pathSeen
}

// pathSeen records which engine paths a run exercised.
type pathSeen struct {
	allActive   bool // masked depression ran with every excitatory neuron active
	partialDep  bool // masked depression ran with a partial mask
	maskedPot   bool // potentiation ran as the masked row kernel
	denseNorm   bool // dirty-column normalization ran its dense kernels
	undrivenInh bool // an inhibitory neuron spiked without drive
	denseFirst  bool // the inhibitory layer stepped dense from an image's first step
	leftEvents  bool // a driven inhibitory neuron fell short, and the layer left the events mid-image
	// eventOnly: every inhibitory update was an event — no neuron left
	// rest or the trajectory but by spiking. Only a want; the run's
	// counters decide it.
	eventOnly bool
}

// The inhibitory cases span the event-driven layer's rules. A driven
// inhibitory neuron gets WExcInh = 22.5 mV; from rest (−60 mV) that
// reaches −37.5 mV, and once its refractory period ends the post-spike
// trajectory from the −45 mV reset is at −48.89 mV and falling.
var faultCases = []faultCase{
	// Threshold −40 mV: every drive fires a neuron that is not
	// refractory, so neurons only ever rest or ride the trajectory.
	{name: "nominal", inhScale: 1, excGain: 1, driveScale: 1,
		wants: pathSeen{eventOnly: true}},
	// Thresholds −44 and −48 mV: lower, and still above the trajectory's
	// −48.89 mV, so the same holds.
	{name: "inh-x1.1", inhScale: 1.1, excGain: 1, driveScale: 1,
		wants: pathSeen{eventOnly: true}},
	{name: "inh-x1.2", inhScale: 1.2, excGain: 1, driveScale: 1,
		wants: pathSeen{eventOnly: true}},
	// Threshold −36 mV: a drive from rest stays below it, and the layer
	// leaves the events for the dense pass.
	{name: "inh-x0.9", inhScale: 0.9, excGain: 1, driveScale: 1,
		wants: pathSeen{leftEvents: true}},
	// Inhibition falls silent and the excitatory layer collapses: a
	// quarter, then every neuron is active and many spike at once (the
	// masked STDP kernels, with partial and full masks), most columns
	// are dirty at each normalization (its dense kernels), and driven
	// inhibitory neurons fall short (the layer runs dense).
	{name: "inh-x0.8", inhScale: 0.8, excGain: 1, driveScale: 1,
		wants: pathSeen{allActive: true, partialDep: true, maskedPot: true, denseNorm: true, leftEvents: true}},
	// Threshold −50 mV sits below the trajectory's −48.89 mV: after its
	// refractory period a neuron that fired fires again undriven, so
	// the layer steps dense from the first step.
	{name: "inh-x1.25", inhScale: 1.25, excGain: 1, driveScale: 1,
		wants: pathSeen{undrivenInh: true, denseFirst: true}},
	// Thresholds −60 and −64 mV are at and below rest: the faulted
	// neuron fires from rest, so the layer steps dense from the first
	// step. (A whole faulted layer would silence the excitatory layer.)
	{name: "inh-x1.5", inhScale: 1.5, inhCount: 1, excGain: 1, driveScale: 1,
		wants: pathSeen{undrivenInh: true, denseFirst: true}},
	{name: "inh-x1.6", inhScale: 1.6, inhCount: 1, excGain: 1, driveScale: 1,
		wants: pathSeen{undrivenInh: true, denseFirst: true}},
	// An infinite gain turns a zero drive into NaN (0·Inf), so the layer
	// steps dense from the first step, and its neuron's membrane is NaN
	// from each image's first step on.
	{name: "inh-gain-inf", inhScale: 1, inhGain: math.Inf(1), excGain: 1, driveScale: 1,
		wants: pathSeen{denseFirst: true}},
	// The SumRowsScaled drive path with a per-neuron gain.
	{name: "exc-gain-1.1-drive-0.9", inhScale: 1, excGain: 1.1, driveScale: 0.9},
}

func (fc faultCase) apply(n *DiehlCook) {
	fc.faultInh(n.Inh.ThreshScale, n.Inh.InputGain)
	n.Exc.InputGain.Fill(fc.excGain)
	n.InputDriveScale = fc.driveScale
}

// faultInh applies the case's inhibitory hooks to a layer's threshold
// scales and input gains.
func (fc faultCase) faultInh(scale, gain tensor.Vector) {
	if fc.inhGain != 0 {
		gain[0] = fc.inhGain
	}
	if fc.inhCount > 0 {
		scale = scale[:fc.inhCount]
	}
	scale.Fill(fc.inhScale)
}

// checkPaths fails the test when a run missed a path its case wants.
func (fc faultCase) checkPaths(t *testing.T, seen pathSeen) {
	t.Helper()
	if fc.wants.allActive && !seen.allActive {
		t.Error("no learning step had every excitatory neuron active")
	}
	if fc.wants.partialDep && !seen.partialDep {
		t.Error("no learning step ran the masked depression with a partial mask")
	}
	if fc.wants.maskedPot && !seen.maskedPot {
		t.Error("no learning step ran the masked potentiation")
	}
	if fc.wants.denseNorm && !seen.denseNorm {
		t.Error("no normalization ran the dense kernels")
	}
	if fc.wants.undrivenInh && !seen.undrivenInh {
		t.Error("no inhibitory neuron spiked undriven")
	}
	if fc.wants.denseFirst && !seen.denseFirst {
		t.Error("the inhibitory layer never stepped dense from an image's first step")
	}
	if fc.wants.leftEvents && !seen.leftEvents {
		t.Error("the inhibitory layer never left the events mid-image")
	}
}

// checkEventOnly fails the test unless the case wants every inhibitory
// update to be an event and the counts say so: events, and no dense
// pass.
func (fc faultCase) checkEventOnly(t *testing.T, w workCounts) {
	t.Helper()
	if fc.wants.eventOnly && (w[inhEvent] == 0 || w[inhDense] != 0) {
		t.Errorf("inhibitory updates by event, dense: %d, %d; want events only", w[inhEvent], w[inhDense])
	}
}

// stepObserved runs one engine step and records which paths it took.
// The post-synaptic support Step's depression read is the one it
// leaves behind; the pre-synaptic support its potentiation read is the
// one before the step.
func stepObserved(n *DiehlCook, spikes []int, learn bool, seen *pathSeen) []int {
	driven := append([]int(nil), n.prevExc...)
	pre := len(n.preActive)
	inh := n.Inh
	was := inh.mode
	es := n.Step(spikes, learn)
	if learn {
		post, nExc := len(n.Exc.traced.list), n.Cfg.NExc
		if len(spikes) > 0 && post == nExc {
			seen.allActive = true
		}
		if len(spikes) > 0 && 4*post >= nExc && post < nExc {
			seen.partialDep = true
		}
		if pre > 0 && 4*len(es) >= nExc {
			seen.maskedPot = true
		}
	}
	for _, j := range n.prevInh {
		if !containsInt(driven, j) {
			seen.undrivenInh = true
		}
	}
	seen.denseFirst = seen.denseFirst || (was == unseeded && inh.mode == dense)
	seen.leftEvents = seen.leftEvents || (was == events && inh.mode == dense)
	return es
}

// normalizeObserved runs the engine's dirty-column normalization and
// records whether it took the dense kernels.
func normalizeObserved(n *DiehlCook, seen *pathSeen) {
	if 4*len(n.dirty.list) >= n.Cfg.NExc {
		seen.denseNorm = true
	}
	n.normalizeDirty()
}

// sameFloat reports whether a and b are the same float64: the same
// bits, so −0 differs from +0, or both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// diffWeights returns the first element at which two equally shaped
// matrices differ by sameFloat, or −1.
func diffWeights(a, b *tensor.Matrix) int {
	for e, v := range a.Data {
		if !sameFloat(v, b.Data[e]) {
			return e
		}
	}
	return -1
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// TestEngineMatchesDenseReference drives the sparse engine and the
// dense reference over identical spike trains, with dirty-column
// normalization between images, and demands bit-identical spikes,
// traces and weights at every step, under each fault configuration.
func TestEngineMatchesDenseReference(t *testing.T) {
	for _, fc := range faultCases {
		t.Run(fc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NExc, cfg.NInh = 25, 25
			cfg.Steps = 100
			cfg.RestSteps = 5

			eng, err := NewDiehlCook(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefNet(t, cfg)
			if e := diffWeights(eng.W, ref.w); e >= 0 {
				t.Fatalf("initial weights differ at element %d", e)
			}
			fc.apply(eng)
			fc.faultInh(ref.inh.tscale, ref.inh.gain)
			ref.exc.gain.Fill(fc.excGain)
			ref.driveScale = fc.driveScale

			images := mnist.Synthetic(3, 9)
			enc := encoding.NewPoissonEncoder(11)
			totalSpikes := 0
			var seen pathSeen
			for imgIdx := range images {
				train := enc.Encode(&images[imgIdx], cfg.Steps)

				normalizeObserved(eng, &seen)
				eng.ResetState()
				ref.normalize()
				ref.reset()

				for st, spikes := range train {
					es := stepObserved(eng, spikes, true, &seen)
					rs := ref.step(spikes, true)
					if !sameInts(es, rs) {
						t.Fatalf("img %d step %d: exc spikes diverge: engine %v, reference %v", imgIdx, st, es, rs)
					}
					if !sameInts(eng.prevInh, ref.prevInh) {
						t.Fatalf("img %d step %d: inh spikes diverge: engine %v, reference %v", imgIdx, st, eng.prevInh, ref.prevInh)
					}
					totalSpikes += len(es)
					// Lazy pre-trace must equal the dense per-step decay.
					for _, i := range spikes {
						if got, want := eng.PreTrace(i), ref.preTrace[i]; got != want {
							t.Fatalf("img %d step %d: pre-trace of pixel %d: engine %g, reference %g", imgIdx, st, i, got, want)
						}
					}
				}
				for st := 0; st < cfg.RestSteps; st++ {
					es := stepObserved(eng, nil, false, &seen)
					rs := ref.step(nil, false)
					if !sameInts(es, rs) {
						t.Fatalf("img %d rest step %d: exc spikes diverge: engine %v, reference %v", imgIdx, st, es, rs)
					}
				}

				if e := diffWeights(eng.W, ref.w); e >= 0 {
					t.Fatalf("img %d: weight %d is %v, dense reference %v", imgIdx, e, eng.W.Data[e], ref.w.Data[e])
				}
				eng.Inh.writeOut()
				for j := range ref.inh.v {
					if !sameFloat(eng.Inh.V[j], ref.inh.v[j]) || !sameFloat(eng.Exc.V[j], ref.exc.v[j]) {
						t.Fatalf("img %d: membrane of neuron %d diverges", imgIdx, j)
					}
				}
			}
			normalizeObserved(eng, &seen)
			ref.normalize()
			if e := diffWeights(eng.W, ref.w); e >= 0 {
				t.Fatalf("final normalized weight %d is %v, dense reference %v", e, eng.W.Data[e], ref.w.Data[e])
			}
			if totalSpikes == 0 {
				t.Fatal("equivalence run produced no excitatory spikes; the comparison is vacuous")
			}
			fc.checkPaths(t, seen)
			fc.checkEventOnly(t, eng.work())
		})
	}
}

// TestSparseStepMatchesDenseLoop pins the event-driven step,
// LIFGroup.stepSparse, against the dense LIF loop on an inhibitory
// group, nominal and under the hooks that make the layer step dense
// from its first step: a threshold scale that fires from rest, and
// non-finite gains, whose 0·gain turns a zero drive into NaN.
// FuzzInhibitoryStep covers the rest of the rules.
func TestSparseStepMatchesDenseLoop(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name string
		hook func(scale, gain tensor.Vector)
	}{
		{"nominal", func(_, _ tensor.Vector) {}},
		{"fires-from-rest", func(scale, _ tensor.Vector) { scale[5] = 1.6 }},
		{"inf-gain", func(_, gain tensor.Vector) { gain[2] = math.Inf(1) }},
		{"nan-gain", func(_, gain tensor.Vector) { gain[6] = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := InhConfig(n)
			g, err := NewLIFGroup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.hook(g.ThreshScale, g.InputGain)
			g.Reset()
			ref := newRefLIF(t, cfg)
			copy(ref.tscale, g.ThreshScale)
			copy(ref.gain, g.InputGain)
			drive := tensor.NewVector(n)
			spikes := 0
			for step := 0; step < 60; step++ {
				// Drive one neuron on two steps of every five, none on the
				// rest, starting undriven.
				var driven []int
				if step%5 >= 3 {
					driven = []int{(step * 3) % n}
				}
				for _, j := range driven {
					drive[j] += cfg.Thresh - cfg.Rest + 2.5
				}
				want := ref.step(drive)
				got := g.stepSparse(drive, driven)
				for _, j := range driven {
					drive[j] = 0
				}
				if !sameInts(got, want) {
					t.Fatalf("step %d: spikes %v, dense %v", step, got, want)
				}
				spikes += len(want)
				g.writeOut()
				for i := 0; i < n; i++ {
					if !sameFloat(g.V[i], ref.v[i]) {
						t.Fatalf("step %d neuron %d: V %v, dense %v", step, i, g.V[i], ref.v[i])
					}
				}
			}
			if spikes == 0 {
				t.Fatal("no spikes; the comparison is vacuous")
			}
		})
	}
}

// script reads a fuzz input one byte at a time, zeros once it runs out.
type script []byte

func (s *script) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// FuzzInhibitoryStep drives an inhibitory-style layer, whose theta
// cannot change, through the event-driven step and the dense LIF loop
// side by side, and demands the same spike lists, membranes and
// refractory counts after every step. The input script picks the layer
// size (1–12), the refractory period, the decay constant, a reset
// above, at or below rest (a falling, flat or rising trajectory), and a
// rest of −60 mV, +0 or −0 (where the update moves a resting −0
// membrane to +0), with Thresh and Reset kept at InhConfig's distances
// from it. For each neuron it then picks a threshold scale (thresholds
// from about 40 mV above rest to 75 mV below it at rest −60 mV, from 8
// to 73 mV above it at rest ±0), a fixed theta, and a gain that is
// sometimes 0, negative or non-finite. Each step is then a sparse step
// driving nothing, a dense Step, a Reset between images, or a sparse
// step driving a chosen subset of neurons with chosen drives.
func FuzzInhibitoryStep(f *testing.F) {
	// The first five layers step dense from their first step: thresholds
	// at rest, thresholds below the trajectory's top, thresholds at and
	// below rest with a −Inf gain, and the first layer again at rest +0
	// and at rest −0. The last layer steps on events: a neuron fires,
	// ignores drives one step and Refrac steps later, then one driven
	// neuron fires while another falls short, and that step's write-out
	// puts both spikers on the trajectory before the dense steps that
	// follow. It runs at rest −60 mV and +0, and at −0, where it steps
	// dense.
	atRest := []byte{8, 2, 0, 0, 0, 100, 128, 200, 100, 128, 200, 100, 128, 200, 100, 128, 200,
		100, 128, 200, 100, 128, 200, 100, 128, 200, 100, 128, 200,
		5, 0x81, 90, 90, 0, 5, 0x81, 90, 90, 5, 0x3c, 90, 90, 90, 90, 1, 5, 0x81, 90, 90, 2, 5, 0xff, 90, 90, 90, 90, 90, 90, 90, 90}
	f.Add(atRest)
	f.Add([]byte{6, 2, 0, 0, 0, 80, 128, 200, 80, 128, 200, 80, 128, 200, 80, 128, 200, 80, 128, 200, 80, 128, 200,
		5, 0x3f, 80, 80, 80, 80, 80, 80, 0, 0, 5, 0x15, 60, 60, 60, 5, 0x3f, 80, 80, 80, 80, 80, 80, 0, 5, 0x2a, 90, 90, 90, 1})
	f.Add([]byte{4, 1, 1, 1, 0, 125, 140, 200, 150, 100, 3, 100, 128, 200, 60, 128, 200,
		0, 0, 5, 0x0f, 90, 90, 90, 90, 0, 0, 0, 4, 0x05, 20, 20, 0, 2, 0, 0})
	for _, r := range []byte{1, 2} {
		seed := append([]byte(nil), atRest...)
		seed[4] = r
		f.Add(seed)
	}
	departure := []byte{3, 3, 0, 0, 0, 50, 128, 200, 50, 128, 200, 50, 128, 200, 50, 128, 200,
		3, 0x04, 0, 100, 3, 0x04, 0, 100, 0, 3, 0x04, 0, 100, 3, 0x03, 0, 100, 40, 0, 3, 0x02, 0, 100, 0, 0}
	for _, r := range []byte{0, 1, 2} {
		seed := append([]byte(nil), departure...)
		seed[4] = r
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := script(data)
		n := 1 + int(in.next())%12
		cfg := InhConfig(n)
		cfg.Refrac = int(in.next()) % 6
		cfg.TCDecay = [...]float64{10, 3, 100}[in.next()%3]
		cfg.Reset = [...]float64{-45, -60, -70}[in.next()%3]
		rest := [...]float64{-60, 0, math.Copysign(0, -1)}[in.next()%3]
		off := rest - cfg.Rest
		cfg.Rest, cfg.Thresh, cfg.Reset = rest, cfg.Thresh+off, cfg.Reset+off
		g, err := NewLIFGroup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			g.ThreshScale[i] = 0.5 + float64(in.next())/100
			g.Theta[i] = (float64(in.next()) - 128) / 32
			switch b := in.next(); {
			case b < 6:
				g.InputGain[i] = [...]float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN(), -0.5}[b]
			default:
				g.InputGain[i] = float64(b) / 200
			}
		}
		ref := newRefLIF(t, cfg)
		copy(ref.tscale, g.ThreshScale)
		copy(ref.theta, g.Theta)
		copy(ref.gain, g.InputGain)
		g.Reset()
		drive := tensor.NewVector(n)
		for step := 0; len(in) > 0; step++ {
			var got, want []int
			switch kind := in.next() % 6; kind {
			case 0:
				got, want = g.stepSparse(drive, nil), ref.step(drive)
			case 1:
				for i := range drive {
					drive[i] = float64(in.next()) / 4
				}
				got, want = g.Step(drive), ref.step(drive)
				drive.Zero()
			case 2:
				g.Reset()
				ref.reset()
				continue
			default:
				var driven []int
				sel := int(in.next()) | int(in.next())<<8
				for i := 0; i < n; i++ {
					if sel&(1<<i) != 0 {
						driven = append(driven, i)
						drive[i] = float64(in.next()) / 4
					}
				}
				want = ref.step(drive)
				got = g.stepSparse(drive, driven)
				drive.Zero()
			}
			if !sameInts(got, want) {
				t.Fatalf("step %d: spikes %v, dense %v", step, got, want)
			}
			g.writeOut()
			for i := 0; i < n; i++ {
				if !sameFloat(g.V[i], ref.v[i]) || g.refrac[i] != ref.refrac[i] || !sameFloat(g.Theta[i], ref.theta[i]) {
					t.Fatalf("step %d neuron %d: V %v refrac %d theta %v, dense %v, %d, %v",
						step, i, g.V[i], g.refrac[i], g.Theta[i], ref.v[i], ref.refrac[i], ref.theta[i])
				}
			}
		}
	})
}

// TestCorpusMatchesEncoderStream pins the corpus against the encoder
// it replaces in every pass: image i's train is, step for step, the
// stream a fresh encoder seeded with ImageSeed(base, i) draws, under
// either sampler, and encoding leaves the caller's encoder at its base
// seed.
func TestCorpusMatchesEncoderStream(t *testing.T) {
	const steps = 120
	images := mnist.Synthetic(4, 3)
	for _, mode := range []encoding.Sampling{encoding.SkipSampling, encoding.ReferenceSampling} {
		enc := encoding.NewPoissonEncoder(7)
		enc.Mode = mode
		c := EncodeCorpus(images, enc, steps)
		if enc.Seed() != 7 {
			t.Fatalf("mode %d: encoder left at seed %d, want its base 7", mode, enc.Seed())
		}
		if c.Len() != len(images) || c.Steps != steps {
			t.Fatalf("mode %d: corpus of %d images × %d steps, want %d × %d", mode, c.Len(), c.Steps, len(images), steps)
		}
		total := 0
		for i := range images {
			if c.Labels[i] != images[i].Label {
				t.Fatalf("mode %d: image %d labelled %d, want %d", mode, i, c.Labels[i], images[i].Label)
			}
			ref := encoding.NewPoissonEncoder(ImageSeed(7, i))
			ref.Mode = mode
			want := ref.Encode(&images[i], steps)
			tr := c.Train(i)
			if tr.Steps() != steps {
				t.Fatalf("mode %d: image %d train covers %d steps, want %d", mode, i, tr.Steps(), steps)
			}
			for st := range want {
				if !sameInts(tr.Step(st), want[st]) {
					t.Fatalf("mode %d: image %d step %d: corpus %v, encoder %v", mode, i, st, tr.Step(st), want[st])
				}
				total += len(want[st])
			}
		}
		if total == 0 || total != c.Spikes() {
			t.Fatalf("mode %d: corpus holds %d spikes, trains list %d", mode, c.Spikes(), total)
		}
	}
}
