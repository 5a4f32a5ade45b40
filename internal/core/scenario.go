package core

import (
	"fmt"

	"snnfi/internal/xfer"
)

// Hardening maps an attack plan onto a defended implementation: the
// plan that results when the same physical fault hits the hardened
// circuit. The defense package's defenses satisfy this interface; core
// defines it so scenarios can carry defense columns without importing
// the defense package (which imports core).
type Hardening interface {
	Name() string
	Harden(plan *FaultPlan) *FaultPlan
}

// CellJudge renders the dummy-neuron detector's verdict for one attack
// cell: given the cell's sweep coordinates and its *undefended* plan
// (the detector senses the physical glitch itself, which parameter
// hardening does not remove), it reports whether the detector fires.
// defense.DetectorConfig satisfies this interface.
type CellJudge interface {
	Judge(point SweepPoint, plan *FaultPlan) bool
}

// Axes spans the coordinate grid of a scenario's attack family. Which
// fields are read depends on the attack: ChangesPc for Attacks 1-4,
// FractionsPc additionally for Attacks 2-3 (defaulting to {100}), and
// VDDs (with Kind selecting the threshold transfer curve) for
// Attack 5.
type Axes struct {
	// ChangesPc are parameter changes in percent (-20 … +20).
	ChangesPc []float64
	// FractionsPc are layer coverages in percent; empty means {100}.
	FractionsPc []float64
	// VDDs are supply voltages for the black-box sweep.
	VDDs []float64
	// Kind selects the neuron circuit whose transfer curves map VDD to
	// parameter corruption (Attack 5).
	Kind xfer.NeuronKind
	// MaskSeed fixes which neurons a partial-layer glitch hits
	// (Attacks 2-3); 0 uses the campaign default so fractions nest
	// across every entry point.
	MaskSeed int64
	// Variation, when non-nil, expands every Attack 5 supply coordinate
	// into one cell per mismatch quantile, sampling the threshold
	// transfer map from the process-variation band instead of the
	// nominal curve — distributional attack severity and detector ROC
	// instead of single points.
	Variation *VariationAxis
}

// VariationAxis adds a process-variation dimension to an Attack 5
// sweep: the per-cell threshold transfer curve is shifted to each
// listed quantile of a normal mismatch distribution whose relative
// sigma (100·σ/μ) comes from the Monte-Carlo threshold
// characterization.
type VariationAxis struct {
	// RelSigmaPc is the relative threshold sigma in percent (σ/μ·100),
	// anchored on neuron.Spread over MonteCarloThresholds samples.
	RelSigmaPc float64
	// QuantilesPc are the sampled quantiles in percent (e.g. 5, 50, 95).
	QuantilesPc []float64
}

// Scenario declaratively specifies one campaign matrix: an attack
// family swept over a coordinate grid, replayed undefended and against
// each listed defense, with the dummy-neuron detector judging
// alongside — the paper's §IV-§V evaluation protocol as a value.
//
// Compiling a scenario yields one flat job list — the attack-free
// cell first, then the compiled cells — so all cells, defended and
// undefended alike, share a single pool run, a single trained
// baseline, and a single ordered sink stream. When Defenses or a
// Detector are present, streamed records gain "defense" and
// "detected" fields.
//
// A scenario has exactly one cell source: an attack family, explicit
// Plans, WeightFaults or LearningRateFaults.
type Scenario struct {
	// Name labels records ("sweep" field); empty derives it from the
	// cell source.
	Name string
	// Attack selects the swept family (Attack1 … Attack5). Zero means
	// the scenario lists its cells instead.
	Attack AttackID
	// Plans are ad-hoc cells; a nil plan stands for the attack-free
	// baseline.
	Plans []*FaultPlan
	// WeightFaults and LearningRateFaults are extension cells, one per
	// spec (see extension.go). They take no defenses and no detector.
	WeightFaults       []WeightFaultSpec
	LearningRateFaults []LearningRateFaultSpec
	// Axes spans the attack family's coordinate grid.
	Axes Axes
	// Defenses are the hardened replays. The undefended column is
	// always included first; each defense adds one column per
	// coordinate.
	Defenses []Hardening
	// Detector, when non-nil, judges every coordinate's undefended
	// plan and stamps the verdict on all of that coordinate's cells.
	Detector CellJudge
}

// Validate reports specification errors.
func (s *Scenario) Validate() error {
	sources := 0
	for _, set := range []bool{s.Attack != 0, len(s.Plans) > 0, len(s.WeightFaults) > 0, len(s.LearningRateFaults) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("core: scenario needs exactly one cell source (an attack family, plans, weight faults or learning-rate faults), got %d", sources)
	}
	for i, w := range s.WeightFaults {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("core: weight fault %d: %w", i, err)
		}
	}
	for i, l := range s.LearningRateFaults {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("core: learning-rate fault %d: %w", i, err)
		}
	}
	if len(s.WeightFaults)+len(s.LearningRateFaults) > 0 && (len(s.Defenses) > 0 || s.Detector != nil) {
		return fmt.Errorf("core: defenses and the detector apply to fault plans, not to weight or learning-rate faults")
	}
	switch s.Attack {
	case 0: // listed cells
	case Attack1, Attack2, Attack3, Attack4:
		if len(s.Axes.ChangesPc) == 0 {
			return fmt.Errorf("core: scenario %v needs Axes.ChangesPc", s.Attack)
		}
	case Attack5:
		if len(s.Axes.VDDs) == 0 {
			return fmt.Errorf("core: scenario %v needs Axes.VDDs", s.Attack)
		}
	default:
		return fmt.Errorf("core: unknown attack %v", s.Attack)
	}
	if v := s.Axes.Variation; v != nil {
		if s.Attack != Attack5 {
			return fmt.Errorf("core: Axes.Variation applies only to %v (the transfer-map attack), got %v", Attack5, s.Attack)
		}
		if len(v.QuantilesPc) == 0 {
			return fmt.Errorf("core: Axes.Variation needs QuantilesPc")
		}
		if v.RelSigmaPc < 0 {
			return fmt.Errorf("core: Axes.Variation.RelSigmaPc must be >= 0, got %g", v.RelSigmaPc)
		}
		for _, q := range v.QuantilesPc {
			if q <= 0 || q >= 100 {
				return fmt.Errorf("core: Axes.Variation quantile %g out of range (0, 100)", q)
			}
		}
	}
	for _, d := range s.Defenses {
		if d == nil {
			return fmt.Errorf("core: scenario defense list contains nil (the undefended column is implicit)")
		}
	}
	return nil
}

// name resolves the record label.
func (s *Scenario) name() string {
	switch {
	case s.Name != "":
		return s.Name
	case s.Attack != 0:
		return s.Attack.String()
	case len(s.WeightFaults) > 0:
		return "ext-weight-fault"
	case len(s.LearningRateFaults) > 0:
		return "ext-learning-rate"
	}
	return "plans"
}

// planJob is the campaign job that trains plan.
func planJob(point SweepPoint, plan *FaultPlan, desc string) campaignJob {
	point.Plan = plan
	return campaignJob{point: point, fault: plan, desc: desc}
}

// baseCells enumerates the scenario's undefended cells — its listed
// cells, or the attack family's coordinate grid, one cell per
// coordinate — in deterministic sweep order.
func (s *Scenario) baseCells() []campaignJob {
	maskSeed := s.Axes.MaskSeed
	if maskSeed == 0 {
		maskSeed = gridMaskSeed
	}
	fractions := s.Axes.FractionsPc
	if len(fractions) == 0 {
		fractions = []float64{100}
	}
	var cells []campaignJob
	for _, p := range s.Plans {
		desc := "plan (baseline)"
		if p != nil {
			desc = fmt.Sprintf("plan %q", p.Name)
		}
		cells = append(cells, planJob(SweepPoint{}, p, desc))
	}
	for _, w := range s.WeightFaults {
		cells = append(cells, campaignJob{
			// The plan only names the cell for records; it omits cadence
			// and seed, and the cell is keyed by the full spec.
			point: SweepPoint{Plan: &FaultPlan{Name: fmt.Sprintf("ext-weight-fault-%.2fx-%.0f%%", w.Scale, 100*w.Fraction)}},
			fault: w,
			desc:  w.String(),
		})
	}
	for _, l := range s.LearningRateFaults {
		cells = append(cells, campaignJob{
			point: SweepPoint{Plan: &FaultPlan{Name: fmt.Sprintf("ext-learning-rate-%.2fx", l.Scale)}},
			fault: l,
			desc:  l.String(),
		})
	}
	switch s.Attack {
	case Attack1:
		for _, c := range s.Axes.ChangesPc {
			cells = append(cells, planJob(SweepPoint{ScalePc: c, FractionPc: 100},
				NewAttack1(1+c/100), fmt.Sprintf("attack 1 at %+.0f%%", c)))
		}
	case Attack2, Attack3:
		layer := Excitatory
		build := NewAttack2
		if s.Attack == Attack3 {
			layer, build = Inhibitory, NewAttack3
		}
		for _, c := range s.Axes.ChangesPc {
			for _, f := range fractions {
				cells = append(cells, planJob(SweepPoint{ScalePc: c, FractionPc: f},
					build(1+c/100, f/100, maskSeed), fmt.Sprintf("%v grid at %+.0f%%/%.0f%%", layer, c, f)))
			}
		}
	case Attack4:
		for _, c := range s.Axes.ChangesPc {
			cells = append(cells, planJob(SweepPoint{ScalePc: c, FractionPc: 100},
				NewAttack4(1+c/100), fmt.Sprintf("attack 4 at %+.0f%%", c)))
		}
	case Attack5:
		for _, v := range s.Axes.VDDs {
			if vr := s.Axes.Variation; vr != nil {
				// Supply-major, quantile-minor: each supply's band reads
				// as consecutive rows, which is the order the pivoted
				// p5/p50/p95 outputs consume.
				for _, q := range vr.QuantilesPc {
					cells = append(cells, planJob(SweepPoint{VDD: v, FractionPc: 100, QuantilePc: q},
						NewAttack5Variation(v, s.Axes.Kind, q, vr.RelSigmaPc), fmt.Sprintf("attack 5 at VDD=%.2f p%g", v, q)))
				}
				continue
			}
			cells = append(cells, planJob(SweepPoint{VDD: v, FractionPc: 100},
				NewAttack5(v, s.Axes.Kind), fmt.Sprintf("attack 5 at VDD=%.2f", v)))
		}
	}
	return cells
}

// compile lowers the scenario to its campaign's job list: the
// attack-free cell first, then the compiled cells — the coordinate
// grid crossed with the defense columns (undefended first), each
// coordinate judged once by the detector. The expansion is pure — the
// same scenario always compiles to the same jobs in the same order,
// which is what makes campaign output independent of worker count.
func (s *Scenario) compile() ([]campaignJob, campaignMeta, error) {
	meta := campaignMeta{
		name:      s.name(),
		coords:    s.Attack != 0,
		matrix:    len(s.Defenses) > 0 || s.Detector != nil,
		variation: s.Axes.Variation != nil,
	}
	if err := s.Validate(); err != nil {
		return nil, meta, err
	}
	base := s.baseCells()
	jobs := make([]campaignJob, 1, 1+len(base)*(1+len(s.Defenses)))
	jobs[0] = planJob(SweepPoint{}, nil, "baseline (attack-free)")
	for _, b := range base {
		if s.Detector != nil {
			judged := b.point
			if meta.variation {
				// A variation cell's nominal supply would mask its
				// quantile: the detector's dummy neuron is built from the
				// same mismatched wafer, so what it senses is the cell's
				// *effective* corruption. Blanking VDD makes the judge
				// invert the quantile-shifted threshold scale instead —
				// marginal supplies drift across the trigger with process
				// corner, which is the distributional-ROC story.
				judged.VDD = 0
			}
			b.point.Detected = s.Detector.Judge(judged, b.point.Plan)
		}
		jobs = append(jobs, b)
		for _, d := range s.Defenses {
			plan := b.point.Plan
			if plan != nil {
				plan = d.Harden(plan)
			}
			cell := planJob(b.point, plan, fmt.Sprintf("%s [%s]", b.desc, d.Name()))
			cell.point.Defense = d.Name()
			jobs = append(jobs, cell)
		}
	}
	return jobs, meta, nil
}

// RunScenario compiles the scenario and executes every cell on the
// experiment's worker pool: defended and undefended replays of the
// same attack share one pool run, one trained baseline, and one
// ordered sink stream, and each cell is served from the result cache
// when its configuration was already trained — in this process or (with
// a disk-backed cache) a previous one. Points arrive in compile
// order: coordinate-major, the undefended column before each
// coordinate's defended replays.
func (e *Experiment) RunScenario(s *Scenario) ([]SweepPoint, error) {
	jobs, meta, err := s.compile()
	if err != nil {
		return nil, err
	}
	return e.runCampaign(meta, jobs)
}

// RunShard runs shard `shard` of `shards` of the scenario's campaign,
// the fabric worker's entry point: the distinct cells in job order (the
// attack-free cell first, then compile order) at positions shard,
// shard+shards, …. The deal depends on the scenario alone, so every
// cell has exactly one owner whenever the shards start. Cells run
// through the cache chain: a stored cell is a hit, a computed one is
// written through to the store. No points are assembled, since a shard
// need not hold the baseline; the coordinator re-runs the full scenario
// over the warmed store to emit the merged sinks. It returns the dealt
// keys and the scenario's number of distinct cells.
func (e *Experiment) RunShard(s *Scenario, shard, shards int) ([]string, int, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, 0, fmt.Errorf("core: shard %d of %d is out of range", shard, shards)
	}
	jobs, _, err := s.compile()
	if err != nil {
		return nil, 0, err
	}
	keys, err := e.cellKeys(jobs)
	if err != nil {
		return nil, 0, err
	}
	var run []campaignJob
	var dealt []string
	seen := map[string]bool{}
	for i, c := range jobs {
		if seen[keys[i]] {
			continue
		}
		if len(seen)%shards == shard {
			run, dealt = append(run, c), append(dealt, keys[i])
		}
		seen[keys[i]] = true
	}
	if len(run) == 0 {
		return nil, len(seen), nil
	}
	if err := e.runJobs(run, dealt, e.evalWidth(len(run)), nil); err != nil {
		return nil, 0, err
	}
	return dealt, len(seen), nil
}
