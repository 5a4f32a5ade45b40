package spice

import (
	"math"
	"testing"
)

func almostEqual(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.6g, want %.6g (tol %.2g)", msg, got, want, tol)
	}
}

func TestResistorDividerOP(t *testing.T) {
	c := New()
	c.V("V1", "in", "0", DC(1.0))
	c.R("R1", "in", "mid", 1e3)
	c.R("R2", "mid", "0", 1e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, ctx.V(c.Node("mid")), 0.5, 1e-6, "divider midpoint")
	almostEqual(t, ctx.V(c.Node("in")), 1.0, 1e-9, "source node")
}

func TestVSourceBranchCurrent(t *testing.T) {
	c := New()
	v := c.V("V1", "in", "0", DC(2.0))
	c.R("R1", "in", "0", 1e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	// 2 V across 1 kΩ: 2 mA flows out of + terminal into the resistor,
	// i.e. −2 mA through the source in the + → − internal direction.
	// Tolerance covers the global 1 nS node shunt.
	almostEqual(t, v.BranchCurrent(ctx), -2e-3, 1e-8, "source branch current")
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := New()
	c.I("I1", "0", "out", DC(1e-3))
	c.R("R1", "out", "0", 2e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, ctx.V(c.Node("out")), 2.0, 1e-5, "I·R node voltage")
}

func TestRCChargingTransient(t *testing.T) {
	// 1 kΩ / 1 µF step response: tau = 1 ms.
	c := New()
	c.V("V1", "in", "0", DC(1.0))
	c.R("R1", "in", "out", 1e3)
	c.C("C1", "out", "0", 1e-6)
	res, err := c.Tran(TranOptions{Dt: 10e-6, Stop: 5e-3, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V("out")
	tt := res.Time
	// At t = tau the voltage should be ~1 − e⁻¹ = 0.632.
	idx := len(tt) / 5 // 1 ms of 5 ms
	almostEqual(t, v[idx], 1-math.Exp(-1), 0.01, "RC charge at tau")
	almostEqual(t, v[len(v)-1], 1.0, 0.01, "RC settled")
}

func TestCapacitorOpenAtDC(t *testing.T) {
	c := New()
	c.V("V1", "in", "0", DC(1.0))
	c.R("R1", "in", "out", 1e3)
	c.C("C1", "out", "0", 1e-9)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	// No DC path except the global shunt: out floats to the source value.
	almostEqual(t, ctx.V(c.Node("out")), 1.0, 1e-3, "cap open at DC")
}

func TestNMOSSquareLawRegion(t *testing.T) {
	// Saturated NMOS: Id ≈ K(W/L)(Vgs−Vth)² with K = KP/2.
	p := NMOS65()
	m := &MOSFET{W: 1e-6, L: 100e-9, P: p}
	vgs, vds := 0.9, 1.0
	id, gm, gds := m.ids(vgs, vds)
	k := 0.5 * p.KP * m.W / m.L
	ideal := k * (vgs - p.Vth) * (vgs - p.Vth) * (1 + p.Lambda*vds)
	if math.Abs(id-ideal)/ideal > 0.15 {
		t.Fatalf("square-law mismatch: got %.4g want ≈%.4g", id, ideal)
	}
	if gm <= 0 || gds <= 0 {
		t.Fatalf("conductances must be positive in saturation: gm=%g gds=%g", gm, gds)
	}
}

func TestNMOSSubthresholdExponential(t *testing.T) {
	p := NMOS65()
	m := &MOSFET{W: 1e-6, L: 100e-9, P: p}
	i1, _, _ := m.ids(0.20, 0.5)
	i2, _, _ := m.ids(0.30, 0.5)
	// 100 mV of gate drive in subthreshold should multiply the current by
	// roughly exp(0.1/(N·Vt)) ≈ 14. Allow a broad band.
	ratio := i2 / i1
	if ratio < 5 || ratio > 40 {
		t.Fatalf("subthreshold ratio = %.3g, want ~14 (5..40)", ratio)
	}
}

func TestMOSFETZeroVdsZeroCurrent(t *testing.T) {
	m := &MOSFET{W: 1e-6, L: 100e-9, P: NMOS65()}
	id, _, _ := m.ids(0.8, 0)
	if math.Abs(id) > 1e-12 {
		t.Fatalf("Id at vds=0 should vanish, got %g", id)
	}
}

func TestMOSFETSymmetricReverse(t *testing.T) {
	// EKV symmetry: swapping source and drain flips the current sign when
	// the gate reference moves with it. With vgs at the new source:
	m := &MOSFET{W: 1e-6, L: 100e-9, P: NMOS65()}
	idF, _, _ := m.ids(0.9, 0.3)
	// Reverse operation: gate-source voltage seen from the other side.
	idR, _, _ := m.ids(0.9-0.3, -0.3)
	if math.Abs(idF+idR)/math.Abs(idF) > 0.1 {
		t.Fatalf("forward/reverse asymmetry: %.4g vs %.4g", idF, idR)
	}
}

func TestInverterVTC(t *testing.T) {
	// Symmetric inverter at VDD=1 V should switch near 0.5 V.
	c := New()
	c.V("VDD", "vdd", "0", DC(1.0))
	vin := c.V("VIN", "in", "0", DC(0))
	c.PMOSDev("MP", "out", "in", "vdd", 2e-6, 100e-9, PMOS65())
	c.NMOSDev("MN", "out", "in", "0", 1e-6, 100e-9, NMOS65())
	var sweep []float64
	for v := 0.0; v <= 1.0001; v += 0.01 {
		sweep = append(sweep, v)
	}
	vout := transfer(t, c, vin, "out", sweep)
	if vout[0] < 0.95 {
		t.Fatalf("inverter output at vin=0 should be ≈VDD, got %.3f", vout[0])
	}
	if vout[len(vout)-1] > 0.05 {
		t.Fatalf("inverter output at vin=VDD should be ≈0, got %.3f", vout[len(vout)-1])
	}
	// Switching threshold: where vout crosses vin.
	sw := -1.0
	for i := range sweep {
		if vout[i] <= sweep[i] {
			sw = sweep[i]
			break
		}
	}
	if sw < 0.40 || sw > 0.60 {
		t.Fatalf("inverter switching threshold = %.3f, want ≈0.5", sw)
	}
}

// transfer solves c's DC system at each value of the source src, the
// first point robustly and each later one by Newton continuation from
// the one before, and returns node's voltage at every point.
func transfer(t *testing.T, c *Circuit, src *VSource, node string, values []float64) []float64 {
	t.Helper()
	s := c.BeginDC()
	out := make([]float64, len(values))
	for i, v := range values {
		src.W = DC(v)
		solve := s.Solve
		if i == 0 {
			solve = s.SolveRobust
		}
		if err := solve(); err != nil {
			t.Fatalf("at %g: %v", v, err)
		}
		out[i] = s.V(node)
	}
	return out
}

func TestOpAmpUnityFollower(t *testing.T) {
	c := New()
	c.V("VIN", "in", "0", DC(0.6))
	c.OpAmp("U1", "in", "out", "out", 1e5, 0, 1)
	c.R("RL", "out", "0", 10e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, ctx.V(c.Node("out")), 0.6, 1e-3, "unity follower")
}

func TestOpAmpSaturatesAtRails(t *testing.T) {
	c := New()
	c.V("VP", "p", "0", DC(0.9))
	c.V("VM", "m", "0", DC(0.1))
	c.OpAmp("U1", "p", "m", "out", 1e5, 0, 1)
	c.R("RL", "out", "0", 10e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.V(c.Node("out")); got < 0.99 {
		t.Fatalf("open-loop positive drive should rail high, got %.4f", got)
	}
}

func TestVCVSGain(t *testing.T) {
	c := New()
	c.V("VIN", "in", "0", DC(0.25))
	c.E("E1", "out", "0", "in", "0", 3.0)
	c.R("RL", "out", "0", 1e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, ctx.V(c.Node("out")), 0.75, 1e-6, "VCVS output")
}

func TestAddDuplicateNamePanics(t *testing.T) {
	c := New()
	c.R("R1", "a", "0", 1e3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate element name")
		}
	}()
	c.R("R1", "a", "0", 1e3)
}

func TestElementLookup(t *testing.T) {
	c := New()
	v := c.V("V1", "in", "0", DC(1))
	r := c.R("R1", "in", "0", 1e3)
	if got := c.Element("V1"); got != Element(v) {
		t.Fatalf("Element(V1) = %v, want the registered source", got)
	}
	if got := c.Element("R1"); got != Element(r) {
		t.Fatalf("Element(R1) = %v, want the registered resistor", got)
	}
	if got := c.Element("nope"); got != nil {
		t.Fatalf("Element(nope) = %v, want nil", got)
	}
}

func TestValidateLonelyNode(t *testing.T) {
	c := New()
	c.V("V1", "in", "0", DC(1))
	c.R("R1", "in", "dangling", 1e3)
	if err := c.Validate(); err == nil {
		t.Fatal("expected lonely-node error")
	}
}

func TestValidateCleanCircuit(t *testing.T) {
	c := New()
	c.V("V1", "in", "0", DC(1))
	c.R("R1", "in", "out", 1e3)
	c.R("R2", "out", "0", 1e3)
	if err := c.Validate(); err != nil {
		t.Fatalf("clean circuit flagged: %v", err)
	}
}

func TestTranRejectsBadOptions(t *testing.T) {
	c := New()
	c.V("V1", "in", "0", DC(1))
	c.R("R1", "in", "0", 1e3)
	if _, err := c.Tran(TranOptions{Dt: 0, Stop: 1}); err == nil {
		t.Fatal("expected error for Dt=0")
	}
	if _, err := c.Tran(TranOptions{Dt: 1e-6, Stop: 0}); err == nil {
		t.Fatal("expected error for Stop=0")
	}
}

func TestSingularDetection(t *testing.T) {
	// Two voltage sources in parallel demanding different voltages is an
	// inconsistent system; with only ideal sources the matrix is not
	// singular but the shunt keeps it solvable — instead test an
	// unsolvable all-zero matrix directly.
	a := [][]float64{{0, 0}, {0, 0}}
	b := []float64{1, 1}
	if err := luSolve(a, b); err == nil {
		t.Fatal("expected singularity error")
	}
}

func TestCurrentMirrorCopiesCurrent(t *testing.T) {
	// Classic NMOS mirror: reference current through a diode-connected
	// device is copied to the output leg.
	c := New()
	c.V("VDD", "vdd", "0", DC(1.0))
	c.I("IREF", "vdd", "x", DC(0)) // placeholder to keep x well-connected
	c.R("RREF", "vdd", "x", 2e6)
	c.NMOSDev("M1", "x", "x", "0", 1e-6, 200e-9, NMOS65())
	c.NMOSDev("M2", "y", "x", "0", 1e-6, 200e-9, NMOS65())
	c.R("RL", "vdd", "y", 100e3)
	ctx, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	iref := (1.0 - ctx.V(c.Node("x"))) / 2e6
	iout := (1.0 - ctx.V(c.Node("y"))) / 100e3
	if iref < 50e-9 {
		t.Fatalf("reference current too small: %g", iref)
	}
	if math.Abs(iout-iref)/iref > 0.30 {
		t.Fatalf("mirror mismatch: iref=%.4g iout=%.4g", iref, iout)
	}
}
