package neuron

import "snnfi/internal/spice"

// IAF parametrizes the voltage-amplifier integrate-and-fire neuron
// (Fig. 2b): membrane capacitor with a gate-controlled leak, a
// five-transistor amplifier comparing the membrane against an explicit
// threshold Vthr (derived from VDD by resistive division), a pull-up
// latch, and a capacitor-timed reset/refractory path.
type IAF struct {
	VDD float64 // supply voltage (V), nominal 1.0

	CMem float64 // membrane capacitance (F), paper: 10 pF
	CK   float64 // refractory timing capacitance (F), paper: 20 pF

	// Input current spike train (paper: 200 nA, 25 ns width, 25 ns gap).
	IAmp        float64
	SpikeWidth  float64
	SpikePeriod float64

	VLk float64 // leak transistor gate voltage (V), paper: 0.2
	VB  float64 // amplifier tail bias voltage (V)

	// ThrDividerRatio sets Vthr = ThrDividerRatio·VDD (paper: 0.5, a
	// simple resistive division, which is why Vthr tracks VDD and the
	// threshold attack works).
	ThrDividerRatio float64

	// UseBandgapThr replaces the resistive divider with a
	// supply-independent reference (the §V-B1 bandgap defense). The
	// residual supply sensitivity is BandgapResidual per volt of VDD
	// deviation from nominal (paper: ±0.56% over the swept range).
	UseBandgapThr   bool
	BandgapResidual float64
	ThrNominal      float64
}

// NewIAF returns the paper's nominal I&F configuration.
func NewIAF() *IAF {
	return &IAF{
		VDD:             1.0,
		CMem:            10e-12,
		CK:              20e-12,
		IAmp:            200e-9,
		SpikeWidth:      25e-9,
		SpikePeriod:     50e-9,
		VLk:             0.15,
		VB:              0.5,
		ThrDividerRatio: 0.5,
		BandgapResidual: 0.0056 / 0.15, // ±0.56% across a 150 mV supply excursion
		ThrNominal:      0.5,
	}
}

// ThresholdVoltage returns the threshold reference Vthr presented to
// the amplifier at the configured VDD.
func (n *IAF) ThresholdVoltage() float64 {
	if n.UseBandgapThr {
		return n.ThrNominal * (1 + n.BandgapResidual*(n.VDD-1.0))
	}
	return n.ThrDividerRatio * n.VDD
}

// Build constructs the netlist. Key nodes: "vmem" (membrane), "vthr"
// (threshold reference), "aout" (amplifier output), "n1", "nck"
// (refractory capacitor).
func (n *IAF) Build() *spice.Circuit {
	c := spice.New()
	c.V("VDD", "vdd", "0", spice.DC(n.VDD))
	c.V("VLK", "vlk", "0", spice.DC(n.VLk))
	c.V("VB", "vb", "0", spice.DC(n.VB))
	c.I("IIN", "0", "vmem", spice.SpikeTrain{
		Amp: n.IAmp, Width: n.SpikeWidth, Period: n.SpikePeriod,
	})
	c.C("CMEM", "vmem", "0", n.CMem)

	// Threshold reference.
	if n.UseBandgapThr {
		c.V("VTHR", "vthr", "0", spice.DC(n.ThresholdVoltage()))
		// Keep the node multiply-connected for Validate.
		c.R("RTHR", "vthr", "0", 10e6)
	} else {
		r := 1e6
		c.R("RT1", "vdd", "vthr", r*(1-n.ThrDividerRatio)/n.ThrDividerRatio)
		c.R("RT2", "vthr", "0", r)
	}

	// Leak transistor MN4: sized/biased for a subthreshold leak well
	// below the input drive so the membrane integrates upward (a ~1 µA
	// leak would pin a 100 nA-average input at ground).
	c.NMOSDev("MN4", "vmem", "vlk", "0", 0.2e-6, 400e-9, spice.NMOS65())

	// Five-transistor amplifier: diff pair M1/M2, PMOS mirror M3/M4,
	// tail M5. Output rises when vmem exceeds vthr. Long-channel cards
	// (low channel-length modulation) give the stage enough gain that
	// the comparison is decisive within a few millivolts — without it
	// the circuit finds a spurious analog equilibrium at the threshold
	// instead of firing.
	nLong, pLong := spice.NMOS65(), spice.PMOS65()
	nLong.Lambda, pLong.Lambda = 0.02, 0.02
	c.NMOSDev("M1", "x1", "vmem", "tail", 2e-6, 400e-9, nLong)
	c.NMOSDev("M2", "aout", "vthr", "tail", 2e-6, 400e-9, nLong)
	c.PMOSDev("M3", "x1", "x1", "vdd", 2e-6, 400e-9, pLong)
	c.PMOSDev("M4", "aout", "x1", "vdd", 2e-6, 400e-9, pLong)
	c.NMOSDev("M5", "tail", "vb", "0", 2e-6, 400e-9, nLong)

	// First inverter; its output gates the membrane pull-up MPU.
	c.PMOSDev("MP5", "n1", "aout", "vdd", 2e-6, 100e-9, spice.PMOS65())
	c.NMOSDev("MN5", "n1", "aout", "0", 1e-6, 100e-9, spice.NMOS65())
	c.PMOSDev("MPU", "vmem", "n1", "vdd", 0.5e-6, 100e-9, spice.PMOS65())

	// Second inverter charges the refractory capacitor CK, whose node
	// voltage gates the reset transistor MN1. MN1 is sized to win the
	// contention against MPU (4× stronger) but no bigger, to bound its
	// subthreshold leak into the membrane.
	c.PMOSDev("MP6", "nck", "n1", "vdd", 0.4e-6, 100e-9, spice.PMOS65())
	c.NMOSDev("MN6", "nck", "n1", "0", 0.2e-6, 100e-9, spice.NMOS65())
	c.C("CK", "nck", "0", n.CK)
	c.NMOSDev("MN1", "vmem", "nck", "0", 1e-6, 200e-9, spice.NMOS65())

	// Parasitic node capacitances (gate + junction, ~fF scale). They are
	// physically present on every internal net and matter numerically:
	// they give the regenerative firing transition a continuous
	// trajectory that timestep subdivision can follow.
	c.C("CPX1", "x1", "0", 5e-15)
	c.C("CPTAIL", "tail", "0", 5e-15)
	c.C("CPAOUT", "aout", "0", 5e-15)
	c.C("CPN1", "n1", "0", 5e-15)
	return c
}

// Simulate runs a transient from a discharged membrane.
func (n *IAF) Simulate(stop, dt float64) (*spice.TranResult, error) {
	c := n.Build()
	return c.Tran(spice.TranOptions{Dt: dt, Stop: stop, UIC: true})
}

// TimeToSpike returns the time at which the membrane first reaches the
// amplifier threshold and the output fires (first rising crossing of
// VDD/2 on the amplifier output). The transient stops at that spike.
func (n *IAF) TimeToSpike(stop, dt float64) (float64, error) {
	return timeToSpike(n.Build(), "aout", n.VDD, stop, dt)
}

// MeasuredThreshold extracts the effective firing threshold: the
// membrane voltage just before the regenerative pull-up latch engages
// (detected as the first upward membrane jump much faster than the
// input-driven charging slope). It exceeds the divider reference by the
// amplifier's transition overdrive, so it is the *dynamic* threshold; the
// designed threshold is ThresholdVoltage(). The transient stops at the
// latch.
func (n *IAF) MeasuredThreshold(stop, dt float64) (float64, error) {
	return latchThreshold(n.Build(), "I&F", stop, dt)
}
