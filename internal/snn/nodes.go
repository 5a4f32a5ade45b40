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
	"sync"

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
	if c.Refrac < 0 {
		return fmt.Errorf("snn: Refrac must be ≥0, got %d", c.Refrac)
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

	// mask is the spike bitmask of the layer's dense pass
	// (tensor.LIFStep), MaskWords(N) words.
	mask []uint64

	// The image's step state, from Reset on (see stepSparse). mode is
	// how the steps run and t counts the steps on events. In event
	// mode, state holds each neuron's state, restState or the step
	// count at its last spike, and traj is the post-spike trajectory of
	// the layer's constants.
	mode  stepMode
	t     int
	state []int
	traj  *trajectory

	// updates counts the neuron updates of the layer's steps by path:
	// updEvent and updDense (see workCounts).
	updates [2]int64
}

// stepMode is how a layer steps for the rest of an image.
type stepMode uint8

const (
	// unseeded: since Reset no step has run, and every neuron is at
	// rest.
	unseeded stepMode = iota
	// events: only driven neurons are visited (stepEvents).
	events
	// dense: every step runs the dense pass (stepDense).
	dense
)

// restState is the state of an event-mode neuron whose V and refrac
// hold it: Rest and 0 since Reset, or, for a driven neuron that fell
// short of its threshold, what the step that ends event mode left. A
// state s ≥ 0 puts the neuron on the post-spike trajectory of a spike
// in the step that ended at count s: after t steps its membrane is the
// trajectory's entry t−s, and it is refractory up to entry Refrac.
const restState = -1

// Update paths, the indices of LIFGroup.updates.
const (
	updEvent = iota // a driven neuron of an event-mode step
	updDense        // a neuron of a dense pass
)

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

// A trajectory tabulates the membrane of a neuron that spiked and is
// left undriven: v[0] = Reset and v[k] = Rest + (v[k−1]−Rest)·decay,
// the LIF update's own arithmetic, so entry k has the bits k undriven
// steps leave. The walk settles on a fixed point within a few hundred
// steps — decayed membranes stop a few ulps from rest — and the table
// ends there: an index past the end reads the last entry. The update
// is monotone in v, so from any entry on the table moves one way, and
// its highest entry from k on is entry k or the last. Layers with the
// same constants share one trajectory (see trajectoryOf); v is nil
// when the walk does not settle within maxTrajectory steps.
type trajectory struct {
	once sync.Once
	v    []float64
}

// maxTrajectory bounds a trajectory table. The inhibitory layer's
// settles in under 400 steps and the excitatory layer's in under 4,000.
const maxTrajectory = 1 << 14

// trajectories holds every trajectory built, by key.
var trajectories sync.Map

// trajectoryOf returns the shared trajectory of the given constants,
// building it on first use.
func trajectoryOf(rest, reset, decay float64) *trajectory {
	key := [3]uint64{math.Float64bits(rest), math.Float64bits(reset), math.Float64bits(decay)}
	t, ok := trajectories.Load(key)
	if !ok {
		t, _ = trajectories.LoadOrStore(key, new(trajectory))
	}
	tr := t.(*trajectory)
	tr.once.Do(func() {
		v := []float64{reset}
		for len(v) < maxTrajectory {
			x := rest + (v[len(v)-1]-rest)*decay
			if math.Float64bits(x) == math.Float64bits(v[len(v)-1]) {
				tr.v = v
				return
			}
			v = append(v, x)
		}
	})
	return tr
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
		Cfg:          cfg,
		V:            tensor.NewVector(cfg.N),
		Theta:        tensor.NewVector(cfg.N),
		Trace:        tensor.NewVector(cfg.N),
		refrac:       make([]int, cfg.N),
		ThreshScale:  tensor.NewVector(cfg.N),
		InputGain:    tensor.NewVector(cfg.N),
		decay:        math.Exp(-cfg.Dt / cfg.TCDecay),
		spikeScratch: make([]int, 0, cfg.N),
		traced:       newIndexSet(cfg.N),
		mask:         make([]uint64, tensor.MaskWords(cfg.N)),
		state:        make([]int, cfg.N),
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
// per-image reset of the training loop. How the image's steps run is
// decided at its first step, from the hooks and theta as they are
// then (see stepSparse). Between Resets a sparse step learns of
// neurons only through their drive, so a direct write to V or theta
// is invisible to it; drive the neuron instead (a dense Step reads
// every neuron).
func (g *LIFGroup) Reset() {
	g.V.Fill(g.Cfg.Rest)
	g.Trace.Zero()
	g.traced.clear()
	clear(g.refrac)
	g.mode, g.t = unseeded, 0
}

// EffectiveThreshold returns the firing threshold of neuron i with the
// fault hook applied: (Thresh + Theta)·ThreshScale.
func (g *LIFGroup) EffectiveThreshold(i int) float64 {
	return (g.Cfg.Thresh + g.Theta[i]) * g.ThreshScale[i]
}

// Step advances the group one timestep with the given synaptic drive
// (mV per neuron, N entries) and returns the indices of neurons that
// spiked. The returned slice is reused across calls; copy it to
// retain. Step runs the dense pass, after which the layer steps dense
// for the rest of the image, so dense and sparse steps mix exactly.
func (g *LIFGroup) Step(drive tensor.Vector) []int {
	g.toDense()
	return g.stepDense(drive)
}

// stepDense is the dense pass of Step. tensor.LIFStep relaxes every
// membrane, decays theta, counts refractory neurons down, injects the
// drive and marks the neurons that cross threshold; the spike
// bookkeeping then walks the marks in ascending order. The kernel runs
// decays unconditionally — they are no-ops at the fixed point (rest +
// 0·decay = rest, 0·decay = 0) — which avoids data-dependent branches
// over a mixed active/idle population. It reads every neuron's V and
// refrac, so the layer must be in dense mode (toDense).
func (g *LIFGroup) stepDense(drive tensor.Vector) []int {
	cfg := &g.Cfg
	g.decayTraces()
	tensor.LIFStep(g.V, g.Theta, g.refrac, drive[:len(g.V)], g.InputGain, g.ThreshScale,
		cfg.Rest, g.decay, cfg.Thresh, g.thetaDecay, g.mask)
	g.spikeScratch = appendSpikes(g.spikeScratch[:0], g.mask)
	for _, i := range g.spikeScratch {
		g.V[i] = cfg.Reset
		g.refrac[i] = cfg.Refrac
		g.Theta[i] += cfg.ThetaPlus
		g.setTrace(i)
	}
	g.updates[updDense] += int64(len(g.V))
	return g.spikeScratch
}

// stepSparse advances the group one timestep when drive is zero except
// at driven, an ascending list of distinct indices, with a result
// bit-identical to Step(drive): the same spike list, and the same V
// and refrac once writeOut has run.
//
// The first step of an image decides how its steps run (seed). A
// layer on events visits only its driven neurons (stepEvents) until a
// driven neuron stays below its threshold; from the step after that
// one, or from the first step when seed rules events out, it runs the
// dense pass on drive for the rest of the image.
func (g *LIFGroup) stepSparse(drive tensor.Vector, driven []int) []int {
	if g.mode == unseeded {
		g.seed()
	}
	if g.mode == events {
		return g.stepEvents(drive, driven)
	}
	return g.stepDense(drive)
}

// seed decides how the image's steps run. Events need every neuron that
// is not driven to stay at rest or on the trajectory without firing,
// as the dense pass leaves it. So the layer steps dense instead when
// its theta can change; when its rest is −0 (the update moves a −0
// membrane to +0, so rest is no fixed point); when its trajectory does
// not settle; or when a neuron could fire undriven: one with a
// non-finite gain, whose zero drive adds 0·Inf = NaN, or one whose
// threshold (Thresh+θ)·ThreshScale is at most Rest or the trajectory's
// highest entry once the refractory period ends.
func (g *LIFGroup) seed() {
	cfg := &g.Cfg
	g.mode = dense
	if cfg.ThetaPlus != 0 || g.thetaDecay != 1 || negZero(cfg.Rest) {
		return
	}
	g.traj = trajectoryOf(cfg.Rest, cfg.Reset, g.decay)
	traj := g.traj.v
	if traj == nil {
		return
	}
	end := len(traj) - 1
	top := max(traj[min(cfg.Refrac+1, end)], traj[end], cfg.Rest)
	for i, th := range g.Theta {
		if !finite(g.InputGain[i]) || (cfg.Thresh+th)*g.ThreshScale[i] <= top {
			return
		}
		g.state[i] = restState
	}
	g.mode = events
}

// stepEvents is a sparse step in event mode. A neuron that is not
// driven is at rest or on the trajectory, and stays there: its state
// follows from its last spike, so the step does not visit it. A driven
// neuron on the trajectory ignores its drive while refractory.
// Otherwise it adds drive·gain to its trajectory entry or to Rest, the
// bits the dense pass computes for it, and visits come in driven's
// ascending order, so spikes do too. If that crosses the threshold the
// neuron spikes and restarts the trajectory. If not, it keeps the
// membrane it reached, off the trajectory, where it could fire
// undriven; so once the step ends the layer writes out its state and
// steps dense (toDense).
func (g *LIFGroup) stepEvents(drive tensor.Vector, driven []int) []int {
	cfg := &g.Cfg
	V := g.V
	state, refrac, theta := g.state[:len(V)], g.refrac[:len(V)], g.Theta[:len(V)]
	tscale, gain := g.ThreshScale[:len(V)], g.InputGain[:len(V)]
	traj := g.traj.v
	end := len(traj) - 1
	rest, thresh := cfg.Rest, cfg.Thresh
	t := g.t + 1 // the step count once this step ends
	spikes, short := g.spikeScratch[:0], false
	g.decayTraces()
	for _, i := range driven {
		v := rest
		if s := state[i]; s >= 0 {
			k := t - s
			if k <= cfg.Refrac {
				continue
			}
			v = traj[min(k, end)]
		}
		v += drive[i] * gain[i]
		if v >= (thresh+theta[i])*tscale[i] {
			spikes = append(spikes, i)
			g.setTrace(i)
			state[i] = t
			continue
		}
		V[i], refrac[i], state[i] = v, 0, restState
		short = true
	}
	g.updates[updEvent] += int64(len(driven))
	g.spikeScratch, g.t = spikes, t
	if short {
		g.toDense()
	}
	return spikes
}

// writeOut writes the membrane and refractory count of every neuron on
// the trajectory into V and refrac, which an event-mode step leaves
// stale for them (a neuron in restState holds its own). Steps read
// neither for those neurons, so writing them out changes nothing that
// follows.
func (g *LIFGroup) writeOut() {
	if g.mode != events {
		return
	}
	traj := g.traj.v
	for i, s := range g.state[:len(g.V)] {
		if s >= 0 {
			k := g.t - s
			g.V[i] = traj[min(k, len(traj)-1)]
			g.refrac[i] = max(g.Cfg.Refrac-k, 0)
		}
	}
}

// toDense writes out the layer's state, and the layer steps dense for
// the rest of the image.
func (g *LIFGroup) toDense() {
	g.writeOut()
	g.mode = dense
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// negZero reports whether x is −0.
func negZero(x float64) bool { return math.Float64bits(x) == 1<<63 }

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
