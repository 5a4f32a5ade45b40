// Package core implements the paper's contribution: the five
// power-oriented fault-injection attacks on spiking neural networks,
// expressed as parameter-corruption plans applied to a Diehl&Cook
// network, plus the campaign runner that reproduces the paper's
// accuracy-degradation sweeps (Figs. 7b, 8a, 8b, 8c, 9a).
//
// Threat model (paper §I): an adversary with control of the external
// supply (black box, Attack 5) or with laser-localized glitching
// capability (white box, Attacks 1–4) corrupts the input-driver spike
// amplitude and/or the neuron membrane thresholds. The circuit-level
// transfer from VDD to those parameters comes from internal/xfer
// (anchored on the paper's HSPICE characterization) and is reproduced
// independently by internal/neuron.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"snnfi/internal/snn"
)

// Layer identifies a fault target within the Diehl&Cook network.
type Layer int

// Attackable layers.
const (
	// Drivers are the input current drivers (theta / membrane charge
	// per input spike).
	Drivers Layer = iota
	// Excitatory is the excitatory neuron layer (EL).
	Excitatory
	// Inhibitory is the inhibitory neuron layer (IL).
	Inhibitory
)

func (l Layer) String() string {
	switch l {
	case Drivers:
		return "drivers"
	case Excitatory:
		return "excitatory"
	case Inhibitory:
		return "inhibitory"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// FaultSpec describes one parameter corruption: which layer, what
// multiplicative scale, and what fraction of the layer's neurons are
// affected (the paper's model of laser-glitch locality — a fraction of
// a layer's physically interleaved neurons sits inside the glitched
// region).
type FaultSpec struct {
	Layer Layer
	// Scale multiplies the target parameter. For Excitatory/Inhibitory
	// it scales the membrane threshold value (paper convention: a "−20%
	// threshold change" is Scale = 0.8); for Drivers it scales the
	// membrane charge delivered per input spike.
	Scale float64
	// Fraction of the layer's neurons affected, in [0, 1]. The affected
	// subset is sampled uniformly with Seed.
	Fraction float64
	Seed     int64
}

// Validate reports specification errors.
func (f FaultSpec) Validate() error {
	if !(f.Scale > 0) {
		return fmt.Errorf("core: fault scale must be positive, got %g", f.Scale)
	}
	if !(f.Fraction >= 0 && f.Fraction <= 1) {
		return fmt.Errorf("core: fault fraction must be in [0,1], got %g", f.Fraction)
	}
	return nil
}

// FaultPlan is a set of corruptions applied together — one attack
// configuration. Plans are applied to a network before training and can
// be reverted, so defended and undefended models can replay identical
// plans.
type FaultPlan struct {
	Name   string
	Faults []FaultSpec
}

// Validate reports the first invalid fault in the plan.
func (p *FaultPlan) Validate() error {
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Apply installs the plan's corruptions on a network: the per-neuron
// multipliers of its effect. The network must be in the nominal state
// (fresh or reverted); Apply returns a revert function restoring
// nominal parameters.
func (p *FaultPlan) Apply(n *snn.DiehlCook) (revert func(), err error) {
	eff, err := p.effect(len(n.Exc.ThreshScale), len(n.Inh.ThreshScale))
	if err != nil {
		return nil, err
	}
	saved := planEffect{
		excThresh: n.Exc.ThreshScale.Copy(),
		inhThresh: n.Inh.ThreshScale.Copy(),
		excGain:   n.Exc.InputGain.Copy(),
	}
	eff.install(n)
	return func() { saved.install(n) }, nil
}

// planEffect is what a fault plan does to a network: the multipliers
// Apply installs on each excitatory and inhibitory neuron's threshold
// and on each excitatory neuron's input gain. A cell trains the same
// network for any two plans with equal effects, so cells are keyed by
// the effect (see key), not by the plan that produced it.
type planEffect struct {
	excThresh, inhThresh, excGain []float64
}

// effect computes the plan's effect on a network of nExc excitatory
// and nInh inhibitory neurons: every multiplier starts nominal (1) and
// each fault scales its layer's masked subset in turn. A nil plan has
// the nominal effect. Apply and the cell key both call it, so what a
// cell trains and how it is addressed cannot drift apart.
func (p *FaultPlan) effect(nExc, nInh int) (planEffect, error) {
	eff := planEffect{ones(nExc), ones(nInh), ones(nExc)}
	if p == nil {
		return eff, nil
	}
	if err := p.Validate(); err != nil {
		return planEffect{}, fmt.Errorf("core: plan %q: %w", p.Name, err)
	}
	for _, f := range p.Faults {
		switch f.Layer {
		case Drivers:
			scaleMasked(eff.excGain, f)
		case Excitatory:
			scaleMasked(eff.excThresh, f)
		case Inhibitory:
			scaleMasked(eff.inhThresh, f)
		default:
			return planEffect{}, fmt.Errorf("core: plan %q: unknown layer %v", p.Name, f.Layer)
		}
	}
	return eff, nil
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// install copies the effect's multipliers into the network.
func (e planEffect) install(n *snn.DiehlCook) {
	copy(n.Exc.ThreshScale, e.excThresh)
	copy(n.Inh.ThreshScale, e.inhThresh)
	copy(n.Exc.InputGain, e.excGain)
}

// key renders the effect in the compact, lossless form cells are
// addressed by. For each vector it writes the length, then every
// multiplier other than nominal 1, in order of first appearance, each
// followed by the bitmask of the neurons that carry it. Equal effects
// render equal strings and any difference in any neuron's multiplier
// renders a different one, in a few dozen bytes where the dense
// vectors would take kilobytes through the key's reflective renderer.
func (e planEffect) key() string {
	b := make([]byte, 0, 64)
	for _, v := range [...][]float64{e.excThresh, e.inhThresh, e.excGain} {
		b = binary.AppendUvarint(b, uint64(len(v)))
		for i, x := range v {
			if x == 1 || slices.Index(v[:i], x) >= 0 {
				continue
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			for w := 0; w < len(v); w += 64 {
				var mask uint64
				for j := w; j < min(w+64, len(v)); j++ {
					if v[j] == x {
						mask |= 1 << (j - w)
					}
				}
				b = binary.LittleEndian.AppendUint64(b, mask)
			}
		}
	}
	return string(b)
}

// scaleMasked scales a random Fraction of the vector's entries.
func scaleMasked(v []float64, f FaultSpec) {
	n := len(v)
	k := affected(n, f.Fraction)
	if k == 0 {
		return
	}
	if k == n {
		for i := range v {
			v[i] *= f.Scale
		}
		return
	}
	rng := rand.New(rand.NewSource(f.Seed))
	perm := rng.Perm(n)
	for _, i := range perm[:k] {
		v[i] *= f.Scale
	}
}

// affected returns how many of n elements a fraction covers: the
// nearest whole count, within [0, n]. Neuron masks and weight drift
// both draw that many distinct elements.
func affected(n int, fraction float64) int {
	return min(max(int(fraction*float64(n)+0.5), 0), n)
}
