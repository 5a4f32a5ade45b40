package core

import (
	"fmt"

	"snnfi/internal/xfer"
)

// AttackID enumerates the paper's five attacks (§IV).
type AttackID int

// The paper's attack taxonomy.
const (
	// Attack1 corrupts only the input current drivers (white box,
	// §IV-B): the per-spike membrane charge scales with the driver's
	// VDD-dependent output amplitude.
	Attack1 AttackID = iota + 1
	// Attack2 corrupts the excitatory layer's membrane thresholds
	// (white box, §IV-C), over a fraction of the layer.
	Attack2
	// Attack3 corrupts the inhibitory layer's membrane thresholds
	// (white box, §IV-C), over a fraction of the layer.
	Attack3
	// Attack4 corrupts both neuron layers' thresholds at full coverage
	// (white box, §IV-C).
	Attack4
	// Attack5 is the black-box attack (§IV-D): one shared supply feeds
	// drivers and both neuron layers, so a VDD excursion corrupts spike
	// amplitude and both layers' thresholds simultaneously.
	Attack5
)

func (a AttackID) String() string {
	if a >= Attack1 && a <= Attack5 {
		return fmt.Sprintf("attack-%d", int(a))
	}
	return fmt.Sprintf("attack(%d)", int(a))
}

// AttackByNumber maps the paper's attack numbering (1–5), as written
// in declarative suite files and CLI flags, onto an AttackID.
func AttackByNumber(n int) (AttackID, error) {
	if n < int(Attack1) || n > int(Attack5) {
		return 0, fmt.Errorf("core: unknown attack %d (want 1-5)", n)
	}
	return AttackID(n), nil
}

// NewAttack1 builds the driver-corruption plan: thetaScale multiplies
// the membrane voltage change per input spike (paper sweeps ±20%).
func NewAttack1(thetaScale float64) *FaultPlan {
	return &FaultPlan{
		Name: "attack-1-driver-theta",
		Faults: []FaultSpec{
			{Layer: Drivers, Scale: thetaScale, Fraction: 1},
		},
	}
}

// NewAttack2 builds the excitatory-threshold plan: threshScale in the
// paper's convention (0.8 = "−20%"), fraction = portion of the EL under
// the glitch.
func NewAttack2(threshScale, fraction float64, seed int64) *FaultPlan {
	return &FaultPlan{
		Name: "attack-2-excitatory-threshold",
		Faults: []FaultSpec{
			{Layer: Excitatory, Scale: threshScale, Fraction: fraction, Seed: seed},
		},
	}
}

// NewAttack3 builds the inhibitory-threshold plan.
func NewAttack3(threshScale, fraction float64, seed int64) *FaultPlan {
	return &FaultPlan{
		Name: "attack-3-inhibitory-threshold",
		Faults: []FaultSpec{
			{Layer: Inhibitory, Scale: threshScale, Fraction: fraction, Seed: seed},
		},
	}
}

// NewAttack4 builds the both-layers plan at 100% coverage.
func NewAttack4(threshScale float64) *FaultPlan {
	return &FaultPlan{
		Name: "attack-4-both-layers-threshold",
		Faults: []FaultSpec{
			{Layer: Excitatory, Scale: threshScale, Fraction: 1},
			{Layer: Inhibitory, Scale: threshScale, Fraction: 1},
		},
	}
}

// NewAttack5 builds the black-box shared-supply plan for a given VDD:
// the driver amplitude ratio and the neuron threshold ratio both come
// from the circuit characterization (Figs. 5b and 6a via xfer). kind
// selects which neuron circuit's threshold curve to use.
func NewAttack5(vdd float64, kind xfer.NeuronKind) *FaultPlan {
	ampRatio := xfer.DriverAmplitudeRatio().At(vdd)
	thrRatio := xfer.ThresholdRatio(kind).At(vdd)
	return &FaultPlan{
		Name: fmt.Sprintf("attack-5-vdd-%.2f", vdd),
		Faults: []FaultSpec{
			{Layer: Drivers, Scale: ampRatio, Fraction: 1},
			{Layer: Excitatory, Scale: thrRatio, Fraction: 1},
			{Layer: Inhibitory, Scale: thrRatio, Fraction: 1},
		},
	}
}

// NewAttack5Variation builds the shared-supply plan for one process
// corner: the neuron threshold ratio is sampled from the mismatch
// band at the given quantile (relSigmaPc = 100·σ/μ from the
// Monte-Carlo threshold characterization), so a p5/p50/p95 triple of
// plans brackets where the attack lands across fabricated instances.
// The driver amplitude stays nominal — its mirror ratio is set by
// device matching inside one branch pair, while the threshold depends
// on the absolute Vth of the first inverter, which is what mismatch
// moves. The p50 plan equals NewAttack5 except in name: names carry
// the quantile for records, but cells are keyed by effect, so a p50
// cell is the single-corner sweep's cell at the same supply and trains
// no second network.
func NewAttack5Variation(vdd float64, kind xfer.NeuronKind, quantilePc, relSigmaPc float64) *FaultPlan {
	v := xfer.Variation{RelSigma: relSigmaPc / 100}
	ampRatio := xfer.DriverAmplitudeRatio().At(vdd)
	thrRatio := v.RatioAt(xfer.ThresholdRatio(kind), vdd, quantilePc)
	return &FaultPlan{
		Name: fmt.Sprintf("attack-5-vdd-%.2f-p%g", vdd, quantilePc),
		Faults: []FaultSpec{
			{Layer: Drivers, Scale: ampRatio, Fraction: 1},
			{Layer: Excitatory, Scale: thrRatio, Fraction: 1},
			{Layer: Inhibitory, Scale: thrRatio, Fraction: 1},
		},
	}
}
