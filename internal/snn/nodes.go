// Package snn implements the spiking-network substrate the attack
// experiments run on: leaky integrate-and-fire neuron groups with
// Diehl&Cook adaptive thresholds, trace-based STDP, and the 3-layer
// Diehl&Cook topology (input → excitatory → inhibitory) used for MNIST
// digit classification in the paper.
//
// Dynamics follow BindsNET's discretization (the library the paper
// used): exponential membrane decay toward rest, instantaneous synaptic
// injection with one-step delay, hard reset, per-step refractory
// counters, and exponentially decaying pre/post traces.
//
// Fault injection hooks are first-class: every neuron carries a
// threshold scale factor (power attacks modulate the circuit threshold)
// and an input gain (driver corruption modulates the membrane charge
// delivered per input spike).
package snn

import (
	"fmt"
	"math"
	"math/bits"

	"snnfi/internal/tensor"
)

// LIFConfig parametrizes a leaky integrate-and-fire group.
type LIFConfig struct {
	N int // neuron count

	Rest   float64 // resting potential (mV)
	Reset  float64 // post-spike reset potential (mV)
	Thresh float64 // firing threshold (mV)

	TCDecay float64 // membrane decay time constant (ms)
	Refrac  int     // refractory period (steps)

	// Adaptive threshold (Diehl&Cook excitatory neurons): each spike
	// raises the effective threshold by ThetaPlus; theta decays with
	// time constant ThetaDecayTC (ms; ~1e7 so it is effectively
	// persistent within a run). Zero ThetaPlus disables adaptation.
	ThetaPlus    float64
	ThetaDecayTC float64

	TraceTC float64 // post-synaptic trace time constant (ms)

	Dt float64 // timestep (ms)
}

// Validate reports configuration errors.
func (c LIFConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("snn: LIF group needs N > 0, got %d", c.N)
	}
	if c.TCDecay <= 0 {
		return fmt.Errorf("snn: TCDecay must be positive, got %g", c.TCDecay)
	}
	if c.Thresh <= c.Rest {
		return fmt.Errorf("snn: Thresh (%g) must exceed Rest (%g)", c.Thresh, c.Rest)
	}
	if c.Dt <= 0 {
		return fmt.Errorf("snn: Dt must be positive, got %g", c.Dt)
	}
	return nil
}

// ExcConfig returns the Diehl&Cook excitatory-layer configuration
// (BindsNET DiehlAndCookNodes defaults).
func ExcConfig(n int) LIFConfig {
	return LIFConfig{
		N: n, Rest: -65, Reset: -60, Thresh: -52,
		TCDecay: 100, Refrac: 5,
		ThetaPlus: 0.1, ThetaDecayTC: 1e7,
		TraceTC: 20, Dt: 1,
	}
}

// InhConfig returns the Diehl&Cook inhibitory-layer configuration
// (BindsNET LIFNodes defaults for the inhibitory population).
// TraceTC is 0: nothing in the Diehl&Cook rule reads inhibitory
// traces — STDP runs only on input→exc — so they are not simulated
// (trace values have no effect on any spike, weight, or figure).
func InhConfig(n int) LIFConfig {
	return LIFConfig{
		N: n, Rest: -60, Reset: -45, Thresh: -40,
		TCDecay: 10, Refrac: 2,
		TraceTC: 0, Dt: 1,
	}
}

// LIFGroup is a population of LIF neurons with fault-injection hooks.
type LIFGroup struct {
	Cfg LIFConfig

	V      tensor.Vector // membrane potentials (mV)
	Theta  tensor.Vector // adaptive threshold increments (mV)
	Trace  tensor.Vector // post-synaptic traces
	refrac []int         // remaining refractory steps

	// ThreshScale multiplies each neuron's threshold value (Thresh +
	// Theta, in membrane-voltage coordinates): the power-attack knob,
	// 1 = nominal. This is the paper's BindsNET convention — a "−20%
	// threshold change" multiplies the threshold tensor by 0.8. Because
	// Diehl&Cook thresholds are negative voltages, scaling the value
	// down *raises* the firing threshold relative to rest (the neuron
	// fires less readily), which is what makes the paper's −20% the
	// catastrophic direction for the inhibitory layer (inhibition falls
	// silent and winner-take-all learning collapses).
	ThreshScale tensor.Vector
	// InputGain multiplies each neuron's synaptic drive: the
	// driver-corruption knob. 1 = nominal.
	InputGain tensor.Vector

	decay      float64 // exp(−dt/tc)
	thetaDecay float64
	traceDecay float64

	spikeScratch []int

	// traced is the sparse trace support: the neurons with nonzero
	// Trace, in first-spike order (a trace becomes nonzero only by
	// spiking and returns to zero only at Reset), with their bitmask.
	// The per-step trace decay walks the list instead of the dense
	// vector — bit-identical, since decaying a zero trace is a no-op —
	// and the excitatory layer's list and mask are the post-synaptic
	// support of DiehlCook's STDP.
	traced indexSet

	// awake lists the neurons a sparse step (stepSparse, Step(nil))
	// walks: every neuron that may be off its fixed point this image
	// (see awakeSet). Reset seeds it, driven neurons join it, and a
	// dense Step marks every neuron awake.
	awake awakeSet
}

// indexSet is a set of distinct indices below n: a list in insertion
// order and the bitmask of the same members (tensor.MaskWords(n)
// words), the form the masked tensor kernels select columns by.
type indexSet struct {
	list []int
	mask []uint64
}

func newIndexSet(n int) indexSet {
	return indexSet{mask: make([]uint64, tensor.MaskWords(n))}
}

// add inserts i unless it is already a member.
func (s *indexSet) add(i int) {
	if w, b := i>>6, uint64(1)<<(i&63); s.mask[w]&b == 0 {
		s.mask[w] |= b
		s.list = append(s.list, i)
	}
}

// clear empties the set.
func (s *indexSet) clear() {
	clear(s.mask)
	s.list = s.list[:0]
}

// awakeSet is the ascending list of neurons that may be off their
// fixed point, with a membership mask. An idle neuron — V at rest,
// zero theta, no refractory count — with zero drive is a fixed point of
// the LIF update when it cannot fire from rest and its gain is finite
// (0·gain is then 0), so a step that skips it computes the same state
// as one that visits it. Membership only grows within an image:
// decayed membranes settle a few ulps above rest rather than on it, so
// a neuron once woken is rarely idle again. The list is ascending so a
// walk emits spikes in the same order as a dense pass.
//
// mask is the spike bitmask of the layer's dense pass (tensor.LIFStep),
// sized with the set, so a sparse step that falls back to the dense
// pass finds it at hand.
type awakeSet struct {
	list []int
	in   []bool
	mask []uint64
}

// reset empties the set, resized for n neurons.
func (a *awakeSet) reset(n int) {
	for _, i := range a.list {
		a.in[i] = false
	}
	a.list = a.list[:0]
	if len(a.in) != n {
		a.in = make([]bool, n)
		a.mask = make([]uint64, tensor.MaskWords(n))
	}
}

// appendSpikes appends the indices of mask's set bits to dst in
// ascending order: the spike list of a dense pass.
func appendSpikes(dst []int, mask []uint64) []int {
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// fill marks every neuron awake.
func (a *awakeSet) fill() {
	if len(a.list) == len(a.in) {
		return
	}
	a.list = a.list[:0]
	for i := range a.in {
		a.in[i] = true
		a.list = append(a.list, i)
	}
}

// add wakes the neurons in idx, keeping the list ascending.
func (a *awakeSet) add(idx []int) {
	for _, i := range idx {
		if a.in[i] {
			continue
		}
		a.in[i] = true
		a.list = append(a.list, i)
		k := len(a.list) - 1
		for ; k > 0 && a.list[k-1] > i; k-- {
			a.list[k] = a.list[k-1]
		}
		a.list[k] = i
	}
}

// walkPays reports whether a driven sparse step over awake of n neurons
// should walk the awake list rather than run the dense pass. Both are
// exact — the dense pass is the reference the walk reproduces, and it
// leaves an idle neuron idle. At N = 100 on a 2.0 GHz Xeon the indexed
// walk costs about 4.6 ns per awake neuron and the AVX2 dense pass
// about 1.4 ns per neuron, so one step breaks even near 30% awake. The
// dispatch point stays at 3/4 all the same: moving it to 1/2 or 1/3
// won on none of the counts and training benches beyond their noise
// (EXPERIMENTS.md, "AVX2 dense-pass record"). Nominal winner-take-all
// cells, about 15% awake, walk under any of these points; collapsed
// ones end every image fully awake and run dense.
func walkPays(awake, n int) bool { return 4*awake < 3*n }

// allFinite reports whether every gain is finite. A non-finite gain
// turns a zero drive into NaN (0·Inf), so its neuron has no fixed
// point and sparse steps must walk every neuron.
func allFinite(gain tensor.Vector) bool {
	for _, x := range gain {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// NewLIFGroup allocates a group at rest with nominal fault hooks.
func NewLIFGroup(cfg LIFConfig) (*LIFGroup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newLIFGroup(cfg), nil
}

// newLIFGroup is NewLIFGroup for a configuration known to be valid.
func newLIFGroup(cfg LIFConfig) *LIFGroup {
	g := &LIFGroup{
		Cfg:         cfg,
		V:           tensor.NewVector(cfg.N),
		Theta:       tensor.NewVector(cfg.N),
		Trace:       tensor.NewVector(cfg.N),
		refrac:      make([]int, cfg.N),
		ThreshScale: tensor.NewVector(cfg.N),
		InputGain:   tensor.NewVector(cfg.N),
		decay:       math.Exp(-cfg.Dt / cfg.TCDecay),
		traced:      newIndexSet(cfg.N),
	}
	if cfg.ThetaDecayTC > 0 {
		g.thetaDecay = math.Exp(-cfg.Dt / cfg.ThetaDecayTC)
	} else {
		g.thetaDecay = 1
	}
	if cfg.TraceTC > 0 {
		g.traceDecay = math.Exp(-cfg.Dt / cfg.TraceTC)
	} else {
		g.traceDecay = 1
	}
	g.ThreshScale.Fill(1)
	g.InputGain.Fill(1)
	g.Reset()
	return g
}

// freezeFrom makes g, a group of src's size, the frozen image of src
// that frozen presentations step: src's configuration and membrane
// decay, its theta and fault hooks by copy, ThetaPlus 0 and theta and
// trace decays of exactly 1. A step then leaves every theta's bits as
// they are (θ·1 is θ, and so is θ+0 for every θ but −0, which theta
// never holds), so g fires against src's (Thresh + Theta)·ThreshScale,
// and it decays no trace. The new hooks take effect at the next Reset.
func (g *LIFGroup) freezeFrom(src *LIFGroup) {
	g.Cfg = src.Cfg
	g.Cfg.ThetaPlus = 0
	g.decay, g.thetaDecay, g.traceDecay = src.decay, 1, 1
	copy(g.Theta, src.Theta)
	copy(g.ThreshScale, src.ThreshScale)
	copy(g.InputGain, src.InputGain)
}

// Reset restores membrane state (potentials, refractory counters,
// traces) without touching learned theta or fault hooks — the
// per-image reset of the training loop. It also seeds the awake set:
// every neuron when some neuron may leave rest undriven — a threshold
// scale that lets it fire from rest, or a non-finite gain — else the
// neurons with nonzero theta, whose theta decays. Hook and theta
// changes therefore take effect at the next Reset. Between Resets the
// awake set learns only of drive, so a direct write to V or theta is
// invisible to a sparse step; drive the neuron instead (a dense Step
// wakes every neuron).
func (g *LIFGroup) Reset() {
	g.V.Fill(g.Cfg.Rest)
	g.Trace.Zero()
	g.traced.clear()
	for i := range g.refrac {
		g.refrac[i] = 0
	}
	g.awake.reset(g.Cfg.N)
	all := !allFinite(g.InputGain)
	for _, sc := range g.ThreshScale {
		if g.Cfg.Thresh*sc <= g.Cfg.Rest {
			all = true
			break
		}
	}
	if all {
		g.awake.fill()
		return
	}
	for i, th := range g.Theta {
		if th != 0 {
			g.awake.in[i] = true
			g.awake.list = append(g.awake.list, i)
		}
	}
}

// EffectiveThreshold returns the firing threshold of neuron i with the
// fault hook applied: (Thresh + Theta)·ThreshScale.
func (g *LIFGroup) EffectiveThreshold(i int) float64 {
	return (g.Cfg.Thresh + g.Theta[i]) * g.ThreshScale[i]
}

// Step advances the group one timestep with the given synaptic drive
// (mV per neuron) and returns the indices of neurons that spiked. The
// returned slice is reused across calls; copy it to retain.
// A nil drive means "no synaptic input this step": it walks only the
// awake neurons (stepSparse with nothing driven), bit-identical to
// passing a zero vector when every gain is finite. A non-nil drive runs
// the dense pass and marks every neuron awake, since it may drive any
// of them, so dense and sparse steps mix exactly.
func (g *LIFGroup) Step(drive tensor.Vector) []int {
	if drive == nil {
		return g.stepSparse(nil, nil)
	}
	g.awake.fill()
	return g.stepDense(drive)
}

// stepDense is the dense pass of Step, without marking every neuron
// awake: it leaves an idle neuron with zero drive idle. tensor.LIFStep
// relaxes every membrane, decays theta, counts refractory neurons down,
// injects the drive and marks the neurons that cross threshold; the
// spike bookkeeping then walks the marks in ascending order. The
// kernel runs decays unconditionally — they are no-ops at the fixed
// point (rest + 0·decay = rest, 0·decay = 0) — which avoids
// data-dependent branches over a mixed active/idle population.
func (g *LIFGroup) stepDense(drive tensor.Vector) []int {
	cfg := &g.Cfg
	g.decayTraces()
	tensor.LIFStep(g.V, g.Theta, g.refrac, drive[:len(g.V)], g.InputGain, g.ThreshScale,
		cfg.Rest, g.decay, cfg.Thresh, g.thetaDecay, g.awake.mask)
	g.spikeScratch = appendSpikes(g.spikeScratch[:0], g.awake.mask)
	for _, i := range g.spikeScratch {
		g.V[i] = cfg.Reset
		g.refrac[i] = cfg.Refrac
		g.Theta[i] += cfg.ThetaPlus
		g.setTrace(i)
	}
	return g.spikeScratch
}

// stepSparse advances the group one timestep when drive is zero except
// at the indices in driven: those neurons join the awake set, and the
// step walks only the awake set, in ascending order, with the dense
// loop's arithmetic per neuron. Every other neuron is idle, a fixed
// point (see awakeSet), so the state and the spike list are
// bit-identical to Step(drive). With nothing driven, drive is not read
// (it may be nil) and no drive term is added, as in Step(nil). A
// driven step over a mostly awake layer runs the dense pass instead
// (see walkPays).
func (g *LIFGroup) stepSparse(drive tensor.Vector, driven []int) []int {
	g.awake.add(driven)
	if len(driven) > 0 && !walkPays(len(g.awake.list), len(g.V)) {
		return g.stepDense(drive)
	}
	cfg := &g.Cfg
	g.spikeScratch = g.spikeScratch[:0]
	rest, thresh, decay, thetaDecay := cfg.Rest, cfg.Thresh, g.decay, g.thetaDecay
	V := g.V
	theta, refrac := g.Theta[:len(V)], g.refrac[:len(V)]
	tscale, gain := g.ThreshScale[:len(V)], g.InputGain[:len(V)]
	g.decayTraces()
	for _, i := range g.awake.list {
		v := rest + (V[i]-rest)*decay
		th := theta[i]
		if thetaDecay != 1 {
			th *= thetaDecay
			theta[i] = th
		}
		if refrac[i] > 0 {
			refrac[i]--
			V[i] = v
			continue
		}
		if len(driven) > 0 {
			v += drive[i] * gain[i]
		}
		if v >= (thresh+th)*tscale[i] {
			g.spikeScratch = append(g.spikeScratch, i)
			v = cfg.Reset
			refrac[i] = cfg.Refrac
			theta[i] = th + cfg.ThetaPlus
			g.setTrace(i)
		}
		V[i] = v
	}
	return g.spikeScratch
}

// decayTraces decays the nonzero traces (bit-identical to the dense
// pass: zero traces decay to zero). A decay constant of exactly 1 —
// the inhibitory layer's disabled traces — is skipped outright, which
// is bit-identical since x·1 == x for every float.
func (g *LIFGroup) decayTraces() {
	if g.traceDecay != 1 {
		g.Trace.ScatterScale(g.traced.list, g.traceDecay)
	}
}

// setTrace records neuron i's spike in its trace (set to 1) and adds it
// to the sparse nonzero-trace support.
func (g *LIFGroup) setTrace(i int) {
	g.Trace[i] = 1
	g.traced.add(i)
}
