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
// Extension faults are campaign cells like any attack cell: they run
// on the worker pool, are content-addressed into the result cache
// (a repeated specification retrains nothing, in this process or a
// resumed one), count toward TrainCount, and stream to the
// experiment's sinks.

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

// apply scales a random subset of the weight matrix in place. The
// subset is drawn without replacement (a permutation prefix, as
// scaleMasked does for neurons), so exactly Fraction·total distinct
// synapses are hit — sampling with replacement would double-scale
// some synapses and cover fewer than advertised.
func (s WeightFaultSpec) apply(n *snn.DiehlCook, rng *rand.Rand) {
	total := len(n.W.Data)
	k := int(s.Fraction*float64(total) + 0.5)
	if k <= 0 {
		return
	}
	if k >= total {
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

// cell compiles the spec into a campaign cell: a content-addressed
// job that trains through snn.TrainWith's BeforeImage hook,
// re-applying the drift at the spec's cadence.
func (s WeightFaultSpec) cell(e *Experiment) campaignJob {
	return campaignJob{
		plan: &FaultPlan{Name: fmt.Sprintf("ext-weight-fault-%.2fx-%.0f%%", s.Scale, 100*s.Fraction)},
		desc: fmt.Sprintf("weight fault ×%.2f over %.0f%% every %d images", s.Scale, 100*s.Fraction, s.EveryNImages),
		// The plan above is a display name only (it omits cadence and
		// seed); the cell is addressed by the full specification.
		keyOverride: runner.KeyOf(e.fingerprint(), "ext-weight-fault-v1", s),
		train: func(evalWorkers int) (*snn.TrainResult, error) {
			n, err := snn.NewDiehlCook(e.Cfg)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(s.Seed))
			return snn.TrainWith(n, e.corpus(), snn.TrainOptions{
				Workers: evalWorkers,
				Obs:     e.Obs,
				BeforeImage: func(i int) {
					if i == 0 || (s.EveryNImages > 0 && i%s.EveryNImages == 0) {
						s.apply(n, rng)
					}
				},
			})
		},
	}
}

// RunWeightFaults evaluates several weight-fault specifications on the
// worker pool, one result per spec in input order.
func (e *Experiment) RunWeightFaults(specs []WeightFaultSpec) ([]*Result, error) {
	cells := make([]campaignJob, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		cells[i] = s.cell(e)
	}
	return e.runExtension("ext-weight-fault", cells)
}

// WeightFaultHardening is a Hardening that additionally knows how to
// defend extension weight-fault cells: HardenWeightFault returns the
// spec that results when the same physical drift hits the hardened
// synapse array (e.g. defense.WeightRefresh's periodic reprogramming
// from the digital shadow copy).
type WeightFaultHardening interface {
	Hardening
	HardenWeightFault(WeightFaultSpec) WeightFaultSpec
}

// RunWeightFaultMatrix replays each weight-fault spec undefended and
// against every listed defense — the extension analogue of a scenario
// matrix. All cells share one pool run, one baseline and one ordered
// sink stream; records carry the defense column. Every defense must
// implement WeightFaultHardening (a plain plan Hardening has no
// meaning for a corruption that is not a FaultPlan).
func (e *Experiment) RunWeightFaultMatrix(specs []WeightFaultSpec, defenses []Hardening) ([]SweepPoint, error) {
	var cells []campaignJob
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		cells = append(cells, s.cell(e))
		for _, d := range defenses {
			wh, ok := d.(WeightFaultHardening)
			if !ok {
				if d == nil {
					return nil, fmt.Errorf("core: weight-fault matrix defense list contains nil")
				}
				return nil, fmt.Errorf("core: defense %q cannot harden weight-fault cells", d.Name())
			}
			hs := wh.HardenWeightFault(s)
			if err := hs.Validate(); err != nil {
				return nil, fmt.Errorf("core: defense %q hardened spec invalid: %w", d.Name(), err)
			}
			cell := hs.cell(e)
			cell.point.Defense = d.Name()
			cell.desc = fmt.Sprintf("%s [%s]", cell.desc, d.Name())
			cells = append(cells, cell)
		}
	}
	return e.runCampaign(campaignMeta{name: "ext-weight-fault", matrix: len(defenses) > 0}, cells)
}

// RunWeightFault trains a fresh network while injecting the weight
// fault and returns the result relative to the experiment baseline.
func (e *Experiment) RunWeightFault(spec WeightFaultSpec) (*Result, error) {
	res, err := e.RunWeightFaults([]WeightFaultSpec{spec})
	if err != nil {
		return nil, err
	}
	return res[0], nil
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

// cell compiles the spec into a campaign cell that trains under the
// scaled learning rates.
func (s LearningRateFaultSpec) cell(e *Experiment) campaignJob {
	return campaignJob{
		plan:        &FaultPlan{Name: fmt.Sprintf("ext-learning-rate-%.2fx", s.Scale)},
		desc:        fmt.Sprintf("learning-rate fault ×%.2f", s.Scale),
		keyOverride: runner.KeyOf(e.fingerprint(), "ext-learning-rate-v1", s),
		train: func(evalWorkers int) (*snn.TrainResult, error) {
			cfg := e.Cfg
			cfg.NuPre *= s.Scale
			cfg.NuPost *= s.Scale
			n, err := snn.NewDiehlCook(cfg)
			if err != nil {
				return nil, err
			}
			return snn.TrainWith(n, e.corpus(), snn.TrainOptions{Workers: evalWorkers, Obs: e.Obs})
		},
	}
}

// RunLearningRateFaults evaluates several learning-rate faults on the
// worker pool, one result per spec in input order.
func (e *Experiment) RunLearningRateFaults(specs []LearningRateFaultSpec) ([]*Result, error) {
	cells := make([]campaignJob, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		cells[i] = s.cell(e)
	}
	return e.runExtension("ext-learning-rate", cells)
}

// LearningRateFaultHardening is a Hardening that additionally knows
// how to defend extension learning-rate cells: HardenLearningRateFault
// returns the spec that results when the same supply fault hits the
// hardened weight-programming peripheral (e.g. a regulator that holds
// the programming pulse energy near nominal).
type LearningRateFaultHardening interface {
	Hardening
	HardenLearningRateFault(LearningRateFaultSpec) LearningRateFaultSpec
}

// RunLearningRateFaultMatrix replays each learning-rate spec
// undefended and against every listed defense — the extension analogue
// of a scenario matrix, mirroring RunWeightFaultMatrix. All cells
// share one pool run, one baseline and one ordered sink stream;
// records carry the defense column. Every defense must implement
// LearningRateFaultHardening.
func (e *Experiment) RunLearningRateFaultMatrix(specs []LearningRateFaultSpec, defenses []Hardening) ([]SweepPoint, error) {
	var cells []campaignJob
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		cells = append(cells, s.cell(e))
		for _, d := range defenses {
			lh, ok := d.(LearningRateFaultHardening)
			if !ok {
				if d == nil {
					return nil, fmt.Errorf("core: learning-rate matrix defense list contains nil")
				}
				return nil, fmt.Errorf("core: defense %q cannot harden learning-rate cells", d.Name())
			}
			hs := lh.HardenLearningRateFault(s)
			if err := hs.Validate(); err != nil {
				return nil, fmt.Errorf("core: defense %q hardened spec invalid: %w", d.Name(), err)
			}
			cell := hs.cell(e)
			cell.point.Defense = d.Name()
			cell.desc = fmt.Sprintf("%s [%s]", cell.desc, d.Name())
			cells = append(cells, cell)
		}
	}
	return e.runCampaign(campaignMeta{name: "ext-learning-rate", matrix: len(defenses) > 0}, cells)
}

// RunLearningRateFault trains with scaled STDP rates.
func (e *Experiment) RunLearningRateFault(spec LearningRateFaultSpec) (*Result, error) {
	res, err := e.RunLearningRateFaults([]LearningRateFaultSpec{spec})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runExtension executes extension cells like any campaign and returns
// bare results (extension specs carry no sweep coordinates).
func (e *Experiment) runExtension(name string, cells []campaignJob) ([]*Result, error) {
	pts, err := e.runCampaign(campaignMeta{name: name}, cells)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(pts))
	for i, p := range pts {
		out[i] = p.Result
	}
	return out, nil
}
