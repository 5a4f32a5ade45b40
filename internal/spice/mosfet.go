package spice

import "math"

// DeviceType distinguishes NMOS and PMOS transistors.
type DeviceType int

// Transistor polarities.
const (
	NMOS DeviceType = iota
	PMOS
)

func (d DeviceType) String() string {
	if d == PMOS {
		return "pmos"
	}
	return "nmos"
}

// MOSParams is a transistor model card. The model is an EKV-style
// continuous interpolation: drain current is
//
//	Id = K·(W/L)·(F(vgs−Vth) − F(vgd−Vth))·(1 + Lambda·|vds|)
//	F(x) = s(x)², s(x) = 2·N·Vt·ln(1+exp(x/(2·N·Vt)))
//
// The factor 2 inside the softplus is the standard EKV interpolation
// constant: squaring s(x) would otherwise double the weak-inversion
// exponential slope, and with it the subthreshold current follows
// exp(x/(N·Vt)) as it should.
//
// which reduces to the square law in strong inversion, interpolates
// smoothly through moderate inversion, and gives an exponential
// subthreshold characteristic with slope factor N. The symmetric
// F(vgs)−F(vgd) form handles both triode and saturation (and reverse
// operation) with one continuous expression, which is what keeps
// Newton–Raphson convergent on feedback-heavy neuron circuits.
//
// The default cards approximate a 65nm low-power process: |Vth|≈0.42V,
// so a symmetric inverter at VDD=1.0V switches near 0.5V — the neuron
// threshold design point used throughout the paper.
type MOSParams struct {
	Type   DeviceType
	Vth    float64 // threshold voltage magnitude (V)
	KP     float64 // transconductance parameter µ·Cox (A/V²)
	Lambda float64 // channel-length modulation (1/V)
	N      float64 // subthreshold slope factor
	Vt     float64 // thermal voltage kT/q (V)
}

// NMOS65 returns the default 65nm-class NMOS card.
func NMOS65() MOSParams {
	return MOSParams{Type: NMOS, Vth: 0.423, KP: 400e-6, Lambda: 0.12, N: 1.45, Vt: 0.02585}
}

// PMOS65 returns the default 65nm-class PMOS card. Mobility is roughly
// half the NMOS value, so a symmetric inverter uses Wp ≈ 2·Wn.
func PMOS65() MOSParams {
	return MOSParams{Type: PMOS, Vth: 0.423, KP: 200e-6, Lambda: 0.14, N: 1.45, Vt: 0.02585}
}

// MOSFET is a three-terminal transistor (body tied to source).
type MOSFET struct {
	name    string
	d, g, s int
	W, L    float64
	P       MOSParams
}

// NMOSDev adds an n-channel transistor with the given geometry (meters).
func (c *Circuit) NMOSDev(name, d, g, s string, w, l float64, p MOSParams) *MOSFET {
	p.Type = NMOS
	m := &MOSFET{name: name, d: c.Node(d), g: c.Node(g), s: c.Node(s), W: w, L: l, P: p}
	c.Add(m)
	return m
}

// PMOSDev adds a p-channel transistor with the given geometry (meters).
func (c *Circuit) PMOSDev(name, d, g, s string, w, l float64, p MOSParams) *MOSFET {
	p.Type = PMOS
	m := &MOSFET{name: name, d: c.Node(d), g: c.Node(g), s: c.Node(s), W: w, L: l, P: p}
	c.Add(m)
	return m
}

// Name implements Element.
func (m *MOSFET) Name() string { return m.name }

// Terminals returns the connected node indices.
func (m *MOSFET) Terminals() []int { return []int{m.d, m.g, m.s} }

// softplus returns s(x) = a·ln(1+exp(x/a)) and its derivative σ(x/a),
// guarding against overflow.
func softplus(x, a float64) (s, ds float64) {
	z := x / a
	switch {
	case z > 40:
		return x, 1
	case z < -40:
		return 0, 0
	default:
		e := math.Exp(z)
		return a * math.Log1p(e), e / (1 + e)
	}
}

// ids evaluates the drain current and its partial derivatives with
// respect to vgs and vds, all in the NMOS reference direction.
func (m *MOSFET) ids(vgs, vds float64) (id, gm, gds float64) {
	p := m.P
	a := 2 * p.N * p.Vt
	k := 0.5 * p.KP * m.W / m.L
	sa, da := softplus(vgs-p.Vth, a)
	sb, db := softplus(vgs-vds-p.Vth, a)
	fa, fb := sa*sa, sb*sb
	dfa := 2 * sa * da
	dfb := 2 * sb * db
	i0 := k * (fa - fb)
	di0dg := k * (dfa - dfb)
	di0dd := k * dfb

	// Smooth |vds| for channel-length modulation so the expression stays
	// differentiable through vds = 0.
	const eps = 1e-8
	sab := math.Sqrt(vds*vds + eps)
	clm := 1 + p.Lambda*sab
	dclm := p.Lambda * vds / sab

	id = i0 * clm
	gm = di0dg * clm
	gds = di0dd*clm + i0*dclm
	return id, gm, gds
}

// StampIter implements iterStamper: the transistor linearization is a
// function of the Newton iterate, so the whole stamp is per-iterate
// (including the gmin aid, which gmin stepping varies between solves).
func (m *MOSFET) StampIter(ctx *Context) {
	vd, vg, vs := ctx.V(m.d), ctx.V(m.g), ctx.V(m.s)
	pol := 1.0
	if m.P.Type == PMOS {
		pol = -1
	}
	vgs := pol * (vg - vs)
	vds := pol * (vd - vs)
	id, gm, gds := m.ids(vgs, vds)

	// Junction gmin between drain-source aids DC convergence.
	if ctx.Gmin > 0 {
		ctx.StampConductance(m.d, m.s, ctx.Gmin)
	}

	// Translate back to actual polarity: for PMOS the linearization in
	// terms of the real node voltages keeps the same conductance signs
	// because both the current direction and the controlling voltages
	// flip (pol² = 1); only the equivalent current keeps a pol factor.
	ieq := id - gm*vgs - gds*vds
	// Current pol·id flows drain→source externally.
	ctx.AddA(m.d, m.g, gm)
	ctx.AddA(m.d, m.s, -gm-gds)
	ctx.AddA(m.d, m.d, gds)
	ctx.AddA(m.s, m.g, -gm)
	ctx.AddA(m.s, m.s, gm+gds)
	ctx.AddA(m.s, m.d, -gds)
	ctx.StampCurrent(m.d, m.s, pol*ieq)
}

// Stamp implements Element.
func (m *MOSFET) Stamp(ctx *Context) { m.StampIter(ctx) }
