package core

import (
	"fmt"
	"math/rand"

	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// This file implements extension experiments beyond the paper's five
// attacks, targeting the two SNN assets §IV-E1 lists but does not
// study: the strength of synaptic weights between neurons and the SNN
// learning rate. Both are plausible power-fault targets in memristive
// or charge-based synapse implementations, where the stored conductance
// and the programming pulse energy track the supply.
//
// Extension faults are scenario cells like any attack cell
// (Scenario.WeightFaults, Scenario.LearningRateFaults): they run on
// the worker pool, are content-addressed into the result cache (a
// repeated specification retrains nothing, in this process or a
// resumed one), count toward TrainCount, and stream to the
// experiment's sinks. A spec that leaves the network nominal is keyed
// and trained as the attack-free cell, so it trains nothing of its
// own.

// WeightFaultSpec corrupts the learned input→excitatory synaptic
// weights: a fraction of synapses is scaled (conductance drift under
// supply droop) at a given cadence during training.
type WeightFaultSpec struct {
	// Scale multiplies affected weights (e.g. 0.7 for a −30% drift).
	Scale float64
	// Fraction of synapses affected, in [0, 1].
	Fraction float64
	// EveryNImages re-applies the drift each N presentations,
	// modeling a persistent glitch rather than a one-shot upset.
	// 0 applies it once, before training.
	EveryNImages int
	Seed         int64
}

// Validate reports specification errors.
func (s WeightFaultSpec) Validate() error {
	if s.Scale <= 0 {
		return fmt.Errorf("core: weight-fault scale must be positive, got %g", s.Scale)
	}
	if s.Fraction < 0 || s.Fraction > 1 {
		return fmt.Errorf("core: weight-fault fraction must be in [0,1], got %g", s.Fraction)
	}
	if s.EveryNImages < 0 {
		return fmt.Errorf("core: weight-fault cadence must be ≥0, got %d", s.EveryNImages)
	}
	return nil
}

// String describes the cell.
func (s WeightFaultSpec) String() string {
	return fmt.Sprintf("weight fault ×%.2f over %.0f%% every %d images", s.Scale, 100*s.Fraction, s.EveryNImages)
}

// nominal reports whether the drift leaves every weight of cfg's
// network unchanged: a scale of 1, or a fraction that rounds to no
// synapse.
func (s WeightFaultSpec) nominal(cfg snn.DiehlCookConfig) bool {
	return s.Scale == 1 || affected(cfg.NInput*cfg.NExc, s.Fraction) == 0
}

// apply scales a random subset of the weight matrix in place. The
// subset is drawn without replacement (a permutation prefix, as
// scaleMasked does for neurons), so exactly Fraction·total distinct
// synapses are hit — sampling with replacement would double-scale
// some synapses and cover fewer than advertised.
func (s WeightFaultSpec) apply(n *snn.DiehlCook, rng *rand.Rand) {
	total := len(n.W.Data)
	k := affected(total, s.Fraction)
	if k == 0 {
		return
	}
	if k == total {
		for i := range n.W.Data {
			n.W.Data[i] *= s.Scale
		}
		return
	}
	perm := rng.Perm(total)
	for _, i := range perm[:k] {
		n.W.Data[i] *= s.Scale
	}
}

// key addresses the cell by the full specification; a nominal drift
// is the attack-free cell.
func (s WeightFaultSpec) key(e *Experiment) (string, error) {
	if s.nominal(e.Cfg) {
		return (*FaultPlan)(nil).key(e)
	}
	return runner.KeyOf(e.fingerprint(), "ext-weight-fault-v1", s), nil
}

// train trains n through snn.TrainWith's BeforeImage hook, re-applying
// the drift at the spec's cadence. A nominal drift trains the
// attack-free network on the baseline's own path, so a cell keyed as
// the baseline computes the baseline's bytes: the hook path
// renormalizes every weight column before each image, which moves the
// columns STDP left alone by ulps.
func (s WeightFaultSpec) train(e *Experiment, n *snn.DiehlCook, opts snn.TrainOptions) (*snn.TrainResult, error) {
	if s.nominal(e.Cfg) {
		return (*FaultPlan)(nil).train(e, n, opts)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	opts.BeforeImage = func(i int) {
		if i == 0 || (s.EveryNImages > 0 && i%s.EveryNImages == 0) {
			s.apply(n, rng)
		}
	}
	return snn.TrainWith(n, e.corpus(), opts)
}

// LearningRateFaultSpec corrupts the STDP learning rates — the
// network-level image of a supply fault in the weight-programming
// peripheral (programming pulse energy scales with VDD).
type LearningRateFaultSpec struct {
	// Scale multiplies both STDP rates (0 freezes learning entirely).
	Scale float64
}

// Validate reports specification errors.
func (s LearningRateFaultSpec) Validate() error {
	if s.Scale < 0 {
		return fmt.Errorf("core: learning-rate scale must be ≥0, got %g", s.Scale)
	}
	return nil
}

// String describes the cell.
func (s LearningRateFaultSpec) String() string {
	return fmt.Sprintf("learning-rate fault ×%.2f", s.Scale)
}

// key addresses the cell by the specification. A scale of 1 leaves
// both rates bit for bit, so the spec trains the attack-free network
// and is keyed as it.
func (s LearningRateFaultSpec) key(e *Experiment) (string, error) {
	if s.Scale == 1 {
		return (*FaultPlan)(nil).key(e)
	}
	return runner.KeyOf(e.fingerprint(), "ext-learning-rate-v1", s), nil
}

// train trains n under the scaled learning rates. The initial
// weights do not depend on the rates, so n starts where a network
// built with them would.
func (s LearningRateFaultSpec) train(e *Experiment, n *snn.DiehlCook, opts snn.TrainOptions) (*snn.TrainResult, error) {
	n.Cfg.NuPre *= s.Scale
	n.Cfg.NuPost *= s.Scale
	return snn.TrainWith(n, e.corpus(), opts)
}
