package spice

import "math"

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	name string
	a, b int
	Ohms float64
}

// R adds a resistor between nodes a and b.
func (c *Circuit) R(name, a, b string, ohms float64) *Resistor {
	r := &Resistor{name: name, a: c.Node(a), b: c.Node(b), Ohms: ohms}
	c.Add(r)
	return r
}

// Name implements Element.
func (r *Resistor) Name() string { return r.name }

// Terminals returns the connected node indices.
func (r *Resistor) Terminals() []int { return []int{r.a, r.b} }

// StampConst implements constStamper: a resistance is fixed for the
// whole analysis.
func (r *Resistor) StampConst(ctx *Context) {
	ctx.StampConductance(r.a, r.b, 1/r.Ohms)
}

// Stamp implements Element.
func (r *Resistor) Stamp(ctx *Context) { r.StampConst(ctx) }

// Capacitor is a linear two-terminal capacitance discretized with
// backward Euler.
type Capacitor struct {
	name   string
	a, b   int
	Farads float64
}

// C adds a capacitor between nodes a and b.
func (c *Circuit) C(name, a, b string, farads float64) *Capacitor {
	cap := &Capacitor{name: name, a: c.Node(a), b: c.Node(b), Farads: farads}
	c.Add(cap)
	return cap
}

// Name implements Element.
func (cp *Capacitor) Name() string { return cp.name }

// Terminals returns the connected node indices.
func (cp *Capacitor) Terminals() []int { return []int{cp.a, cp.b} }

// StampStep implements stepStamper: the companion conductance and
// equivalent current depend on Dt and the previous accepted solution,
// both fixed across the Newton iterates of one solve.
func (cp *Capacitor) StampStep(ctx *Context) {
	if ctx.DC || ctx.Dt <= 0 {
		return // open circuit at DC
	}
	vPrev := ctx.VPrev(cp.a) - ctx.VPrev(cp.b)
	g := cp.Farads / ctx.Dt
	ctx.StampConductance(cp.a, cp.b, g)
	ctx.StampCurrent(cp.a, cp.b, -g*vPrev)
}

// Stamp implements Element.
func (cp *Capacitor) Stamp(ctx *Context) { cp.StampStep(ctx) }

// VSource is an independent voltage source carrying a branch-current
// unknown.
type VSource struct {
	name   string
	p, n   int
	W      Waveform
	branch int
}

// V adds an independent voltage source with + terminal p and − terminal n.
func (c *Circuit) V(name, p, n string, w Waveform) *VSource {
	v := &VSource{name: name, p: c.Node(p), n: c.Node(n), W: w}
	c.Add(v)
	return v
}

// Name implements Element.
func (v *VSource) Name() string { return v.name }

// Terminals returns the connected node indices.
func (v *VSource) Terminals() []int { return []int{v.p, v.n} }

func (v *VSource) setBranch(i int) { v.branch = i }

// StampConst implements constStamper: the branch-current topology rows
// are pure ±1 structure.
func (v *VSource) StampConst(ctx *Context) {
	k := ctx.BranchIndex(v.branch)
	ctx.AddA(v.p, k, 1)
	ctx.AddA(v.n, k, -1)
	ctx.AddA(k, v.p, 1)
	ctx.AddA(k, v.n, -1)
}

// StampStep implements stepStamper: the enforced voltage is the
// waveform value at the solve time, scaled by source stepping.
func (v *VSource) StampStep(ctx *Context) {
	ctx.AddB(ctx.BranchIndex(v.branch), v.W.At(ctx.Time)*ctx.SrcScale)
}

// Stamp implements Element.
func (v *VSource) Stamp(ctx *Context) {
	v.StampConst(ctx)
	v.StampStep(ctx)
}

// BranchCurrent returns the source branch current (flowing from the +
// terminal through the source to the − terminal) in a solved context.
func (v *VSource) BranchCurrent(ctx *Context) float64 {
	return ctx.X[ctx.BranchIndex(v.branch)]
}

// ISource is an independent current source pushing current from node a
// out of the source into node b (SPICE convention: positive current
// flows a→b through the source, i.e. it raises the potential of b).
type ISource struct {
	name string
	a, b int
	W    Waveform
}

// I adds an independent current source. Positive values force current
// from node a through the source into node b.
func (c *Circuit) I(name, a, b string, w Waveform) *ISource {
	i := &ISource{name: name, a: c.Node(a), b: c.Node(b), W: w}
	c.Add(i)
	return i
}

// Name implements Element.
func (i *ISource) Name() string { return i.name }

// Terminals returns the connected node indices.
func (i *ISource) Terminals() []int { return []int{i.a, i.b} }

// StampStep implements stepStamper.
//
// In transient mode the waveform is averaged over the step rather than
// point-sampled: pulse trains narrower than the timestep would
// otherwise alias (a spike train with period equal to dt can sample as
// identically zero), and the step average is exactly the charge the
// step delivers, which is what integrating nodes care about. Stamping
// at step cadence also evaluates the 32-sample average once per solve
// instead of once per Newton iterate.
func (i *ISource) StampStep(ctx *Context) {
	val := i.W.At(ctx.Time)
	if !ctx.DC && ctx.Dt > 0 {
		val = stepAverage(i.W, ctx.Time-ctx.Dt, ctx.Time)
	}
	ctx.StampCurrent(i.a, i.b, val*ctx.SrcScale)
}

// Stamp implements Element.
func (i *ISource) Stamp(ctx *Context) { i.StampStep(ctx) }

// stepAverage numerically averages a waveform over [t0, t1] with
// midpoint sampling. 32 samples resolve pulse edges to ~3% of a step.
func stepAverage(w Waveform, t0, t1 float64) float64 {
	if c, ok := w.(DC); ok {
		return float64(c)
	}
	const n = 32
	h := (t1 - t0) / n
	if h <= 0 {
		return w.At(t1)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w.At(t0 + (float64(i)+0.5)*h)
	}
	return sum / n
}

// OpAmp is a behavioral rail-limited operational amplifier: the output
// node is driven (through a branch unknown, like a voltage source) to
//
//	vout = RailLo + (RailHi−RailLo)·σ(Gain·(v+ − v−)·4/(RailHi−RailLo))
//
// which is a smooth saturating transfer with small-signal gain Gain
// around the midpoint. With negative feedback it behaves as an ideal
// virtual-short amplifier; open loop it saturates to the rails.
type OpAmp struct {
	name     string
	inP, inN int
	out      int
	Gain     float64
	RailLo   float64
	RailHi   float64
	branch   int
}

// OpAmp adds a behavioral op-amp. Rails default to [0, 1] V and gain to
// 1e5 when zero values are passed.
func (c *Circuit) OpAmp(name, inP, inN, out string, gain, railLo, railHi float64) *OpAmp {
	if gain == 0 {
		gain = 1e5
	}
	if railHi == railLo {
		railLo, railHi = 0, 1
	}
	o := &OpAmp{
		name: name,
		inP:  c.Node(inP), inN: c.Node(inN), out: c.Node(out),
		Gain: gain, RailLo: railLo, RailHi: railHi,
	}
	c.Add(o)
	return o
}

// Name implements Element.
func (o *OpAmp) Name() string { return o.name }

// Terminals returns the connected node indices.
func (o *OpAmp) Terminals() []int { return []int{o.inP, o.inN, o.out} }

func (o *OpAmp) setBranch(i int) { o.branch = i }

// transfer returns f(vd) and f'(vd).
func (o *OpAmp) transfer(vd float64) (f, df float64) {
	span := o.RailHi - o.RailLo
	z := 4 * o.Gain * vd / span
	var s float64
	switch {
	case z > 40:
		s = 1
	case z < -40:
		s = 0
	default:
		s = 1 / (1 + math.Exp(-z))
	}
	f = o.RailLo + span*s
	df = span * s * (1 - s) * 4 * o.Gain / span
	return f, df
}

// StampConst implements constStamper: the output-branch topology.
func (o *OpAmp) StampConst(ctx *Context) {
	k := ctx.BranchIndex(o.branch)
	// Branch current flows from the op-amp output stage into node out.
	ctx.AddA(o.out, k, 1)
	// Constraint row: V(out) − f(vd) = 0 — the V(out) coefficient is
	// structural; the linearized f(vd) terms are iterate-dependent.
	ctx.AddA(k, o.out, 1)
}

// StampIter implements iterStamper: the saturating transfer linearized
// at the current iterate.
func (o *OpAmp) StampIter(ctx *Context) {
	k := ctx.BranchIndex(o.branch)
	vd := ctx.V(o.inP) - ctx.V(o.inN)
	f, df := o.transfer(vd)
	ctx.AddA(k, o.inP, -df)
	ctx.AddA(k, o.inN, df)
	ctx.AddB(k, f-df*vd)
}

// Stamp implements Element.
func (o *OpAmp) Stamp(ctx *Context) {
	o.StampConst(ctx)
	o.StampIter(ctx)
}

// VCVS is a linear voltage-controlled voltage source:
// V(p)−V(n) = Gain·(V(cp)−V(cn)).
type VCVS struct {
	name         string
	p, n, cp, cn int
	Gain         float64
	branch       int
}

// E adds a voltage-controlled voltage source (SPICE "E" card).
func (c *Circuit) E(name, p, n, cp, cn string, gain float64) *VCVS {
	e := &VCVS{
		name: name,
		p:    c.Node(p), n: c.Node(n), cp: c.Node(cp), cn: c.Node(cn),
		Gain: gain,
	}
	c.Add(e)
	return e
}

// Name implements Element.
func (e *VCVS) Name() string { return e.name }

// Terminals returns the connected node indices.
func (e *VCVS) Terminals() []int { return []int{e.p, e.n, e.cp, e.cn} }

func (e *VCVS) setBranch(i int) { e.branch = i }

// StampConst implements constStamper: a linear controlled source is
// pure constant structure.
func (e *VCVS) StampConst(ctx *Context) {
	k := ctx.BranchIndex(e.branch)
	ctx.AddA(e.p, k, 1)
	ctx.AddA(e.n, k, -1)
	ctx.AddA(k, e.p, 1)
	ctx.AddA(k, e.n, -1)
	ctx.AddA(k, e.cp, -e.Gain)
	ctx.AddA(k, e.cn, e.Gain)
}

// Stamp implements Element.
func (e *VCVS) Stamp(ctx *Context) { e.StampConst(ctx) }
