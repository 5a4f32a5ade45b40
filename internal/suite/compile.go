package suite

import (
	"fmt"
	"strings"

	"snnfi/internal/core"
	"snnfi/internal/defense"
	"snnfi/internal/neuron"
	"snnfi/internal/xfer"
)

// This file lowers suite specifications onto the executable layers:
// ScenarioSpec, weight_faults and learning_rate_faults →
// core.Scenario, DefenseSpec → core.Hardening,
// DetectorSpec → defense.DetectorConfig, RecipeRef →
// neuron.RecipeSpec. Compilation is pure — the same spec always
// yields the same value — which is what makes a suite's cell keys
// stable across runs and processes.

// Kind names the entry's primary experiment family.
func (e *Entry) Kind() string {
	kinds := e.kinds()
	if len(kinds) == 0 {
		return "empty"
	}
	return strings.Join(kinds, "+")
}

func (e *Entry) kinds() []string {
	var k []string
	if e.Waveform != nil {
		k = append(k, "waveform")
	}
	if len(e.Circuit) > 0 {
		k = append(k, "circuit")
	}
	if e.Scenario != nil {
		k = append(k, "scenario")
	}
	if e.MonteCarlo != nil {
		k = append(k, "montecarlo")
	}
	if len(e.WeightFaults) > 0 {
		k = append(k, "weight_faults")
	}
	if len(e.LearningRateFaults) > 0 {
		k = append(k, "learning_rate_faults")
	}
	if e.Detection != nil {
		k = append(k, "detection")
	}
	if e.Coverage != nil {
		k = append(k, "coverage")
	}
	if e.Overhead != nil {
		k = append(k, "overhead")
	}
	return k
}

// Validate checks the whole suite without running anything: every
// entry must compile, and every output spec must be renderable against
// its entry's statically-known series shapes. Errors carry the entry's
// index and ID.
func (s *Suite) Validate() error {
	if len(s.Entries) == 0 {
		return fmt.Errorf("suite: no entries")
	}
	if n := s.Network; n != nil {
		if n.Images < 0 || n.Neurons < 0 || n.Steps < 0 {
			return fmt.Errorf("suite: network scale fields must be ≥0")
		}
	}
	seen := make(map[string]bool, len(s.Entries))
	for i := range s.Entries {
		e := &s.Entries[i]
		if err := e.validate(); err != nil {
			return fmt.Errorf("suite: entry %d (%s): %w", i, orUnnamed(e.ID), err)
		}
		if seen[e.ID] {
			return fmt.Errorf("suite: entry %d: duplicate id %q", i, e.ID)
		}
		seen[e.ID] = true
	}
	return nil
}

func (e *Entry) validate() error {
	if e.ID == "" {
		return fmt.Errorf("missing id")
	}
	kinds := e.kinds()
	switch {
	case len(kinds) == 0:
		return fmt.Errorf("no experiment specified (want one of waveform, circuit, scenario, montecarlo, weight_faults, learning_rate_faults, detection, coverage, overhead)")
	case len(kinds) == 1:
	case len(kinds) == 2 && kinds[0] == "circuit" && kinds[1] == "scenario":
		// The sanctioned combination: a characterization whose entry
		// also replays a defended accuracy point (Fig. 9c).
	default:
		return fmt.Errorf("conflicting experiments %v (only circuit+scenario may combine)", kinds)
	}
	if e.Waveform != nil {
		if err := e.Waveform.validate(); err != nil {
			return err
		}
	}
	for i, ref := range e.Circuit {
		if _, err := ref.Compile(); err != nil {
			return fmt.Errorf("circuit series %d: %w", i, err)
		}
	}
	if _, err := e.scenario(); err != nil {
		return err
	}
	if mc := e.MonteCarlo; mc != nil {
		if err := mc.validate(); err != nil {
			return err
		}
	}
	if d := e.Detection; d != nil {
		if len(d.Neurons) == 0 || len(d.VDDs) == 0 {
			return fmt.Errorf("detection needs neurons and vdds")
		}
		for _, n := range d.Neurons {
			if _, err := xfer.KindByName(n); err != nil {
				return err
			}
		}
	}
	if c := e.Coverage; c != nil {
		if _, err := xfer.KindByName(c.Neuron); err != nil {
			return err
		}
		if len(c.VDDs) == 0 {
			return fmt.Errorf("coverage needs vdds")
		}
		for _, v := range c.VDDs {
			if err := core.Attack5Supply(v); err != nil {
				return err
			}
		}
	}
	if o := e.Overhead; o != nil {
		if o.Neurons <= 0 || o.PerLayer <= 0 {
			return fmt.Errorf("overhead needs positive neurons and per_layer")
		}
	}
	return e.validateOutput()
}

func (w *WaveformSpec) validate() error {
	if _, err := xfer.KindByName(w.Neuron); err != nil {
		return err
	}
	if w.StopS <= 0 || w.StepS <= 0 {
		return fmt.Errorf("waveform needs positive stop_s and step_s")
	}
	if w.Stride < 0 {
		return fmt.Errorf("waveform stride must be ≥0, got %d", w.Stride)
	}
	if len(w.Signals) == 0 {
		return fmt.Errorf("waveform needs at least one signal")
	}
	if s := w.Summary; s != nil {
		switch s.Kind {
		case "spikes", "first-crossing":
		default:
			return fmt.Errorf("unknown waveform summary kind %q (want spikes|first-crossing)", s.Kind)
		}
		if s.Signal == "" {
			return fmt.Errorf("waveform summary needs a signal")
		}
		if (s.Threshold == 0) == (s.ThresholdFracVDD == 0) {
			return fmt.Errorf("waveform summary needs exactly one of threshold, threshold_frac_vdd")
		}
	}
	return nil
}

// validateOutput checks the output spec against the entry's series
// shape: column specs only for circuit entries (with in-range series
// and reference indices), field lists only for row-shaped entries.
func (e *Entry) validateOutput() error {
	out := e.Output
	if out == nil {
		return nil
	}
	if out.CSV == "" || out.Header == "" {
		return fmt.Errorf("output needs csv and header")
	}
	if len(out.Columns) > 0 && len(out.Fields) > 0 {
		return fmt.Errorf("output cannot mix columns and fields")
	}
	if out.Pivot != nil && (len(out.Columns) > 0 || len(out.Fields) > 0) {
		return fmt.Errorf("output cannot mix pivot with columns or fields")
	}
	if out.Pivot != nil && e.Scenario == nil {
		return fmt.Errorf("pivot output needs a scenario entry")
	}
	switch {
	case len(e.Circuit) > 0:
		if len(out.Columns) == 0 {
			return fmt.Errorf("circuit output needs columns")
		}
		return validateColumns(out.Columns, e.Circuit)
	case e.Waveform != nil, e.MonteCarlo != nil, e.Detection != nil, e.Coverage != nil, e.Overhead != nil:
		// Fixed row shapes; the header is the only declarative part.
		if len(out.Columns) > 0 || len(out.Fields) > 0 {
			return fmt.Errorf("%s output takes only csv and header", e.Kind())
		}
		if e.Detection != nil && len(e.Detection.Neurons) > 1 && !strings.Contains(out.CSV, "{neuron}") {
			return fmt.Errorf("detection over %d neuron flavors needs a {neuron} placeholder in csv", len(e.Detection.Neurons))
		}
		return nil
	case e.Scenario != nil:
		if p := out.Pivot; p != nil {
			if e.Scenario.Variation == nil {
				return fmt.Errorf("pivot output needs a scenario variation axis")
			}
			if len(e.Scenario.Defenses) > 0 {
				return fmt.Errorf("pivot output supports undefended scenarios only")
			}
			return validateFields(p.Fields, pivotFields)
		}
		return validateFields(out.Fields, scenarioFields)
	case len(e.WeightFaults) > 0:
		return validateFields(out.Fields, weightFaultFields)
	case len(e.LearningRateFaults) > 0:
		return validateFields(out.Fields, learningRateFields)
	}
	return nil
}

func validateColumns(cols []ColumnSpec, series []RecipeRef) error {
	rows := len(series[0].Xs)
	for i, c := range cols {
		if c.Series < 0 || c.Series >= len(series) {
			return fmt.Errorf("column %d: series %d out of range (have %d)", i, c.Series, len(series))
		}
		switch c.From {
		case "x", "y":
			if len(series[c.Series].Xs) != rows {
				return fmt.Errorf("column %d: series %d has %d points, rows need %d", i, c.Series, len(series[c.Series].Xs), rows)
			}
		case "delta-pc":
			if len(series[c.Series].Xs) != rows {
				return fmt.Errorf("column %d: series %d has %d points, rows need %d", i, c.Series, len(series[c.Series].Xs), rows)
			}
			ref := c.Series
			if c.RefSeries != nil {
				ref = *c.RefSeries
			}
			if ref < 0 || ref >= len(series) {
				return fmt.Errorf("column %d: ref_series %d out of range (have %d)", i, ref, len(series))
			}
			if c.RefIndex < 0 || c.RefIndex >= len(series[ref].Xs) {
				return fmt.Errorf("column %d: ref_index %d out of range (series %d has %d points)", i, c.RefIndex, ref, len(series[ref].Xs))
			}
		case "anchor-pc":
			if c.Anchor == nil {
				return fmt.Errorf("column %d: anchor-pc needs an anchor", i)
			}
			if err := c.Anchor.validate(); err != nil {
				return fmt.Errorf("column %d: %w", i, err)
			}
			if len(series[c.Series].Xs) != rows {
				return fmt.Errorf("column %d: series %d has %d points, rows need %d", i, c.Series, len(series[c.Series].Xs), rows)
			}
		default:
			return fmt.Errorf("column %d: unknown from %q (want x|y|delta-pc|anchor-pc)", i, c.From)
		}
		if c.Scale != 0 && c.From != "x" && c.From != "y" {
			return fmt.Errorf("column %d: scale applies only to x/y columns", i)
		}
	}
	return nil
}

func (a *AnchorSpec) validate() error {
	switch a.Curve {
	case "driver-amplitude":
	case "tts-vs-vdd":
		if _, err := xfer.KindByName(a.Neuron); err != nil {
			return fmt.Errorf("anchor %s: %w", a.Curve, err)
		}
	case "sizing-residual":
		if a.VDD <= 0 {
			return fmt.Errorf("anchor sizing-residual needs a positive vdd")
		}
	default:
		return fmt.Errorf("unknown anchor curve %q (want driver-amplitude|tts-vs-vdd|sizing-residual)", a.Curve)
	}
	return nil
}

// Percent evaluates the anchor at x: the percent change the published
// transfer curves predict.
func (a *AnchorSpec) Percent(x float64) float64 {
	switch a.Curve {
	case "driver-amplitude":
		return 100 * (xfer.DriverAmplitudeRatio().At(x) - 1)
	case "tts-vs-vdd":
		kind, _ := xfer.KindByName(a.Neuron)
		return 100 * (xfer.TimeToSpikeVsVDDRatio(kind).At(x) - 1)
	case "sizing-residual":
		return 100 * xfer.SizingResidualShift(a.VDD, x)
	}
	return 0
}

// Field vocabularies for row-shaped outputs.
var (
	scenarioFields     = []string{"column_index", "scale_pc", "fraction_pc", "vdd_v", "quantile_pc", "accuracy_pc", "rel_change_pc", "detected"}
	pivotFields        = []string{"accuracy_pc", "rel_change_pc", "detected"}
	weightFaultFields  = []string{"scale", "fraction", "cadence_images", "seed", "accuracy_pc", "rel_change_pc"}
	learningRateFields = []string{"scale", "accuracy_pc", "rel_change_pc"}
)

func validateFields(fields, known []string) error {
	if len(fields) == 0 {
		return fmt.Errorf("output needs fields")
	}
	for _, f := range fields {
		found := false
		for _, k := range known {
			if f == k {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown output field %q (want one of %v)", f, known)
		}
	}
	return nil
}

// Compile lowers the recipe reference to the executable spec.
func (r RecipeRef) Compile() (neuron.RecipeSpec, error) {
	spec := neuron.RecipeSpec{Name: r.Recipe, Xs: r.Xs, VDD: r.VDD, Window: r.WindowS}
	if err := spec.Validate(); err != nil {
		return neuron.RecipeSpec{}, err
	}
	return spec, nil
}

// Resolve evaluates the axis value to a percent change.
func (a AxisValue) Resolve() (float64, error) {
	if a.VDDEquivalent == nil {
		return a.Value, nil
	}
	kind, err := xfer.KindByName(a.VDDEquivalent.Neuron)
	if err != nil {
		return 0, err
	}
	// Past its ends the curve holds the end value, so a supply off them
	// would train the nearest end's change under its own label.
	c, vdd := xfer.ThresholdRatio(kind), a.VDDEquivalent.VDD
	if lo, hi := c.X[0], c.X[len(c.X)-1]; !(vdd >= lo && vdd <= hi) {
		return 0, fmt.Errorf("vdd_equivalent supply %g V is outside the %g–%g V the %s threshold curve is anchored on", vdd, lo, hi, a.VDDEquivalent.Neuron)
	}
	return 100 * (c.At(vdd) - 1), nil
}

// Compile lowers the scenario spec to a validated core.Scenario.
func (s *ScenarioSpec) Compile() (*core.Scenario, error) {
	attack, err := core.AttackByNumber(s.Attack)
	if err != nil {
		return nil, err
	}
	scn := &core.Scenario{Name: s.Name, Attack: attack}
	scn.Axes.FractionsPc = s.FractionsPc
	scn.Axes.VDDs = s.VDDs
	scn.Axes.MaskSeed = s.MaskSeed
	if v := s.Variation; v != nil {
		scn.Axes.Variation = &core.VariationAxis{
			RelSigmaPc:  v.RelSigmaPc,
			QuantilesPc: v.QuantilesPc,
		}
	}
	for _, a := range s.ChangesPc {
		v, err := a.Resolve()
		if err != nil {
			return nil, err
		}
		scn.Axes.ChangesPc = append(scn.Axes.ChangesPc, v)
	}
	if s.Neuron != "" {
		kind, err := xfer.KindByName(s.Neuron)
		if err != nil {
			return nil, err
		}
		scn.Axes.Kind = kind
	} else if attack == core.Attack5 {
		return nil, fmt.Errorf("attack 5 needs a neuron (the transfer curves mapping VDD to corruption)")
	}
	for i, d := range s.Defenses {
		h, err := d.Compile()
		if err != nil {
			return nil, fmt.Errorf("defense %d: %w", i, err)
		}
		scn.Defenses = append(scn.Defenses, h)
	}
	if s.Detector != nil {
		det, err := s.Detector.Compile()
		if err != nil {
			return nil, err
		}
		scn.Detector = det
	}
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	return scn, nil
}

// Compile lowers the defense spec to its hardening implementation.
func (d DefenseSpec) Compile() (core.Hardening, error) {
	reject := func(field string, set bool) error {
		if set {
			return fmt.Errorf("defense %s does not take %s", d.Kind, field)
		}
		return nil
	}
	switch d.Kind {
	case "robust-driver":
		if err := firstErr(reject("neuron", d.Neuron != ""), reject("wl_multiple", d.WLMultiple != 0)); err != nil {
			return nil, err
		}
		if d.ResidualPc < 0 {
			return nil, fmt.Errorf("robust-driver residual_pc must be ≥0, got %g", d.ResidualPc)
		}
		return defense.RobustDriver{ResidualPc: d.ResidualPc}, nil
	case "bandgap":
		if err := firstErr(reject("residual_pc", d.ResidualPc != 0), reject("wl_multiple", d.WLMultiple != 0)); err != nil {
			return nil, err
		}
		kind, err := xfer.KindByName(d.Neuron)
		if err != nil {
			return nil, fmt.Errorf("bandgap: %w", err)
		}
		return defense.BandgapThreshold{Kind: kind}, nil
	case "sizing":
		if err := firstErr(reject("neuron", d.Neuron != ""), reject("residual_pc", d.ResidualPc != 0)); err != nil {
			return nil, err
		}
		if d.WLMultiple < 1 {
			return nil, fmt.Errorf("sizing wl_multiple must be ≥1, got %g", d.WLMultiple)
		}
		return defense.Sizing{WLMultiple: d.WLMultiple}, nil
	case "comparator":
		if err := firstErr(reject("neuron", d.Neuron != ""), reject("residual_pc", d.ResidualPc != 0), reject("wl_multiple", d.WLMultiple != 0)); err != nil {
			return nil, err
		}
		return defense.ComparatorNeuron{}, nil
	default:
		return nil, fmt.Errorf("unknown defense kind %q (want robust-driver|bandgap|sizing|comparator)", d.Kind)
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Compile lowers the detector spec: the paper's configuration for the
// neuron flavor, with explicit overrides applied.
func (d *DetectorSpec) Compile() (defense.DetectorConfig, error) {
	kind, err := xfer.KindByName(d.Neuron)
	if err != nil {
		return defense.DetectorConfig{}, fmt.Errorf("detector: %w", err)
	}
	cfg := defense.NewDetector(kind)
	if d.WindowMs != 0 {
		cfg.WindowMs = d.WindowMs
	}
	if d.ThresholdPc != 0 {
		cfg.ThresholdPc = d.ThresholdPc
	}
	return cfg, nil
}

// scenario compiles the entry's network cells: its scenario spec, or
// its weight- or learning-rate-fault list as an extension scenario.
// An entry without network cells compiles to nil.
func (e *Entry) scenario() (*core.Scenario, error) {
	if e.Scenario != nil {
		return e.Scenario.Compile()
	}
	if len(e.WeightFaults)+len(e.LearningRateFaults) == 0 {
		return nil, nil
	}
	scn := &core.Scenario{}
	for _, w := range e.WeightFaults {
		scn.WeightFaults = append(scn.WeightFaults, core.WeightFaultSpec{Scale: w.Scale, Fraction: w.Fraction, EveryNImages: w.EveryNImages, Seed: w.Seed})
	}
	for _, l := range e.LearningRateFaults {
		scn.LearningRateFaults = append(scn.LearningRateFaults, core.LearningRateFaultSpec{Scale: l.Scale})
	}
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	return scn, nil
}

func (mc *MonteCarloSpec) validate() error {
	if mc.N <= 0 {
		return fmt.Errorf("montecarlo needs n > 0, got %d", mc.N)
	}
	if mc.SigmaVthV < 0 {
		return fmt.Errorf("montecarlo sigma_vth_v must be ≥0, got %g", mc.SigmaVthV)
	}
	if mc.VDD < 0 {
		return fmt.Errorf("montecarlo vdd must be ≥0, got %g", mc.VDD)
	}
	if mc.TriggerPc < 0 {
		return fmt.Errorf("montecarlo trigger_pc must be ≥0, got %g", mc.TriggerPc)
	}
	for _, q := range mc.QuantilesPc {
		if q < 0 || q > 100 {
			return fmt.Errorf("montecarlo quantile %g out of range [0, 100]", q)
		}
	}
	return nil
}

// compile lowers the spec onto the neuron tier, filling the 65nm-class
// defaults for omitted fields.
func (mc *MonteCarloSpec) compile() neuron.MonteCarlo {
	out := neuron.NewMonteCarlo(mc.N)
	if mc.SigmaVthV > 0 {
		out.SigmaVth = mc.SigmaVthV
	}
	if mc.Seed != 0 {
		out.Seed = mc.Seed
	}
	if mc.VDD > 0 {
		out.VDD = mc.VDD
	}
	return out
}
