package spice

import (
	"fmt"
	"io"
	"math"
	"os"
)

// NROptions tunes Newton–Raphson iteration.
type NROptions struct {
	MaxIter int     // maximum Newton iterations per solve (default 200)
	AbsTol  float64 // absolute voltage tolerance (default 1e-6 V)
	RelTol  float64 // relative tolerance (default 1e-4)
	Damping float64 // maximum node-voltage change per iteration (default 0.4 V)
	// VMin/VMax clamp node-voltage iterates to a physically plausible
	// window, preventing Newton runaway through the flat regions of
	// device characteristics (the role of fetlim in SPICE). Defaults
	// [-1, +3] V, generous for the ≤1.2 V circuits simulated here.
	VMin, VMax float64
}

func (o NROptions) withDefaults() NROptions {
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.AbsTol == 0 {
		o.AbsTol = 1e-6
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-4
	}
	if o.Damping == 0 {
		o.Damping = 0.4
	}
	if o.VMin == 0 && o.VMax == 0 {
		o.VMin, o.VMax = -1, 3
	}
	return o
}

// solveNewton runs damped Newton–Raphson from the iterate already in
// ctx.X. It returns nil when converged. The per-solve system (source
// waveform values, capacitor companions) is stamped once on entry; the
// loop re-stamps only iterate-dependent devices and reuses the context
// workspace, so iterating allocates nothing.
func (c *Circuit) solveNewton(ctx *Context, opt NROptions) error {
	opt = opt.withDefaults()
	c.beginStep(ctx)
	metrics.solves.Inc()
	iters := 0
	defer func() { metrics.newtonIters.Add(int64(iters)) }()
	n := c.NumUnknowns()
	xNew := ctx.ws.xNew
	damping := opt.Damping
	// Last iteration's worst unscaled Newton update, captured before
	// ctx.X absorbs the (scaled, clamped) step — the honest answer to
	// "how far was the solve from its fixed point". Computing it after
	// the update would report the residual (1−scale) fraction, which is
	// exactly zero at scale 1.
	lastWorst, lastWorstIdx := 0.0, -1
	for iter := 0; iter < opt.MaxIter; iter++ {
		// High-gain loops (inverter chains at their switching point) can
		// make full Newton steps flip-flop between rails; tightening the
		// damping after repeated failure walks the iterate in instead.
		if iter > 0 && iter%40 == 0 && damping > 0.05 {
			damping *= 0.5
		}
		iters = iter + 1
		metrics.restamps.Inc()
		c.assemble(ctx)
		copy(xNew, ctx.B)
		if err := luSolve(ctx.A, xNew); err != nil {
			return fmt.Errorf("%w (iteration %d)", err, iter)
		}
		// Damp: limit the largest node-voltage update. The damping
		// bound considers node voltages only; the diagnostic tracks all
		// unknowns (branch currents included).
		maxDelta := 0.0
		lastWorst, lastWorstIdx = 0.0, -1
		for i := 0; i < n; i++ {
			d := math.Abs(xNew[i] - ctx.X[i])
			if i < ctx.N && d > maxDelta {
				maxDelta = d
			}
			if d > lastWorst {
				lastWorst, lastWorstIdx = d, i
			}
		}
		scale := 1.0
		if maxDelta > damping {
			scale = damping / maxDelta
		}
		converged := true
		for i := 0; i < n; i++ {
			delta := (xNew[i] - ctx.X[i]) * scale
			ctx.X[i] += delta
			if i < ctx.N {
				// Clamp node voltages to the physical window.
				if ctx.X[i] < opt.VMin {
					ctx.X[i] = opt.VMin
				} else if ctx.X[i] > opt.VMax {
					ctx.X[i] = opt.VMax
				}
			}
			tol := opt.AbsTol + opt.RelTol*math.Abs(ctx.X[i])
			if math.Abs(delta) > tol {
				converged = false
			}
		}
		if converged && scale == 1 {
			return nil
		}
	}
	if debugNR {
		name := fmt.Sprintf("unknown %d", lastWorstIdx)
		if lastWorstIdx >= 0 && lastWorstIdx < len(c.nodeNames) {
			name = c.nodeNames[lastWorstIdx]
		}
		fmt.Fprintf(debugOut, "spice debug: NR stuck, worst delta %.3g at %s; X=%v\n", lastWorst, name, ctx.X)
	}
	return fmt.Errorf("spice: Newton–Raphson did not converge in %d iterations", opt.MaxIter)
}

// solveRobust runs the fallback ladder of production SPICE engines on
// the system already configured in ctx: plain Newton, then gmin
// stepping, then source stepping.
func (c *Circuit) solveRobust(ctx *Context, opt NROptions) error {
	ctx.SrcScale = 1
	ctx.Gmin = 1e-12
	if err := c.solveNewton(ctx, opt); err == nil {
		return nil
	}

	// gmin stepping: start with heavy shunting and relax decade by
	// decade, reusing the previous solution as the next initial guess.
	for i := range ctx.X {
		ctx.X[i] = 0
	}
	ok := true
	for _, g := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12} {
		ctx.Gmin = g
		if err := c.solveNewton(ctx, opt); err != nil {
			ok = false
			break
		}
	}
	if ok {
		return nil
	}

	// Source stepping: ramp all independent sources from 0 to full value.
	for i := range ctx.X {
		ctx.X[i] = 0
	}
	ctx.Gmin = 1e-12
	for s := 0.05; s <= 1.0001; s += 0.05 {
		ctx.SrcScale = s
		if err := c.solveNewton(ctx, opt); err != nil {
			return fmt.Errorf("spice: solve failed at source scale %.2f: %w", s, err)
		}
	}
	ctx.SrcScale = 1
	return nil
}

// OP computes the DC operating point at t=0.
func (c *Circuit) OP() (*Context, error) {
	ctx := c.newContext()
	ctx.DC = true
	if err := c.solveRobust(ctx, NROptions{}); err != nil {
		return nil, fmt.Errorf("spice: OP: %w", err)
	}
	return ctx, nil
}

// DCSweepResult holds a swept-source DC analysis: one solution per
// sweep value, with continuation between points.
type DCSweepResult struct {
	Values [][]float64 // Values[i] is the full solution at sweep point i
	Sweep  []float64
	names  map[string]int
}

// V returns the voltage series of node name over the sweep.
func (r *DCSweepResult) V(name string) []float64 {
	idx, ok := r.names[name]
	if !ok {
		return nil
	}
	out := make([]float64, len(r.Values))
	for i, x := range r.Values {
		out[i] = x[idx]
	}
	return out
}

// DCSweep sweeps the waveform of the named voltage or current source
// through the given values, solving the DC system at each point with
// continuation from the previous solution. The source's waveform is
// restored afterwards.
func (c *Circuit) DCSweep(srcName string, values []float64) (*DCSweepResult, error) {
	el := c.Element(srcName)
	if el == nil {
		return nil, fmt.Errorf("spice: no source named %q", srcName)
	}
	var restore func()
	setVal := func(v float64) {}
	switch s := el.(type) {
	case *VSource:
		old := s.W
		restore = func() { s.W = old }
		setVal = func(v float64) { s.W = DC(v) }
	case *ISource:
		old := s.W
		restore = func() { s.W = old }
		setVal = func(v float64) { s.W = DC(v) }
	default:
		return nil, fmt.Errorf("spice: element %q is not an independent source", srcName)
	}
	defer restore()

	if len(values) == 0 {
		return nil, fmt.Errorf("spice: empty DC sweep")
	}
	setVal(values[0])
	ctx, err := c.OP()
	if err != nil {
		return nil, fmt.Errorf("spice: DC sweep start: %w", err)
	}
	res := &DCSweepResult{
		Sweep: append([]float64(nil), values...),
		names: c.nodeIndex,
	}
	snapshot := func() {
		x := make([]float64, len(ctx.X))
		copy(x, ctx.X)
		res.Values = append(res.Values, x)
	}
	snapshot()
	opt := NROptions{}
	for _, v := range values[1:] {
		setVal(v)
		if err := c.solveNewton(ctx, opt); err != nil {
			return nil, fmt.Errorf("spice: DC sweep at %g: %w", v, err)
		}
		snapshot()
	}
	return res, nil
}

// TranOptions configures a transient analysis.
type TranOptions struct {
	Dt     float64 // fixed output timestep (required)
	Stop   float64 // stop time (required)
	Method Integrator
	// UIC skips the DC operating point and starts from all-zero node
	// voltages (SPICE "use initial conditions"). This is the right mode
	// for the neuron circuits, whose interesting state is the start-up
	// charge trajectory of the membrane capacitor.
	UIC bool
	// MaxSubdiv bounds how many times a non-converging step is halved
	// before the analysis fails (default 10).
	MaxSubdiv int
	// Record filters which node names are recorded; empty records all.
	Record []string
	// Until, when non-nil, ends the run early: it is called with the
	// samples recorded so far after each full Dt step, and the run
	// returns as soon as it reports true. The grid is fixed and the
	// solve causal — only the final partial step depends on Stop — so
	// the returned samples are exactly the leading samples of the full
	// run. Measurements that settle at an event (a first spike, a
	// latch) use it to skip the rest of the window; a Newton failure
	// after the event then no longer fails the run, because those
	// steps are never taken.
	Until func(*TranResult) bool
}

// TranResult is a recorded transient run.
type TranResult struct {
	Time  []float64
	nodes map[string][]float64
	// Branch currents of named sources (voltage sources and op-amps).
	branchCur map[string][]float64
}

// V returns the recorded voltage waveform of a node (nil if absent).
func (r *TranResult) V(name string) []float64 { return r.nodes[name] }

// I returns the recorded branch current of a named voltage source.
func (r *TranResult) I(name string) []float64 { return r.branchCur[name] }

// Tran runs a fixed-step transient analysis.
func (c *Circuit) Tran(opt TranOptions) (*TranResult, error) {
	if opt.Dt <= 0 || opt.Stop <= 0 {
		return nil, fmt.Errorf("spice: transient needs positive Dt and Stop (got %g, %g)", opt.Dt, opt.Stop)
	}
	if opt.MaxSubdiv == 0 {
		opt.MaxSubdiv = 10
	}
	// Reset dynamic element state from any previous run.
	for _, e := range c.elements {
		if s, ok := e.(stateful); ok {
			s.reset()
		}
	}

	var ctx *Context
	if opt.UIC {
		// The t=0 point under UIC is a cold DC-like solve: sources are at
		// their t=0 values while every capacitor holds its (zero) initial
		// charge. Solving it with a vanishing timestep turns the
		// capacitors into stiff clamps at their initial voltages, and the
		// full fallback ladder handles the nonlinear resistive rest.
		ctx = c.newContext()
		ctx.DC = false
		ctx.Time = 0
		ctx.Dt = 1e-18
		ctx.Method = BackwardEuler
		ctx.XPrev = make([]float64, len(ctx.X))
		if err := c.solveRobust(ctx, NROptions{}); err != nil {
			return nil, fmt.Errorf("spice: transient UIC start point: %w", err)
		}
	} else {
		op, err := c.OP()
		if err != nil {
			return nil, fmt.Errorf("spice: transient DC operating point: %w", err)
		}
		ctx = op
		ctx.XPrev = make([]float64, len(ctx.X))
	}
	ctx.DC = false
	ctx.Gmin = 1e-12
	ctx.SrcScale = 1
	ctx.Method = opt.Method
	copy(ctx.XPrev, ctx.X)

	recordSet := map[string]bool{}
	for _, n := range opt.Record {
		recordSet[n] = true
	}
	recording := func(name string) bool { return len(recordSet) == 0 || recordSet[name] }

	res := &TranResult{nodes: map[string][]float64{}, branchCur: map[string][]float64{}}
	record := func(t float64) {
		res.Time = append(res.Time, t)
		for name, idx := range c.nodeIndex {
			if !recording(name) {
				continue
			}
			res.nodes[name] = append(res.nodes[name], ctx.X[idx])
		}
		for _, e := range c.elements {
			switch src := e.(type) {
			case *VSource:
				if recording(src.name) {
					res.branchCur[src.name] = append(res.branchCur[src.name], src.BranchCurrent(ctx))
				}
			case *OpAmp:
				if recording(src.name) {
					res.branchCur[src.name] = append(res.branchCur[src.name], ctx.X[ctx.BranchIndex(src.branch)])
				}
			}
		}
	}

	ctx.Time = 0
	record(0)
	nrOpt := NROptions{}
	// Full Dt steps that fit before Stop (the epsilon absorbs float
	// division noise when Stop is an exact multiple of Dt), plus a
	// final short step to exactly Stop when it is not: rounding the
	// count would otherwise silently drop the last partial interval
	// (e.g. Stop=1.0, Dt=0.3 used to end at t=0.9) or overshoot Stop.
	nFull := int(opt.Stop/opt.Dt + 1e-9)
	t := 0.0
	for step := 1; step <= nFull; step++ {
		target := float64(step) * opt.Dt
		if err := c.advance(ctx, t, target, opt, nrOpt, 0); err != nil {
			return nil, fmt.Errorf("spice: transient at t=%.4g: %w", target, err)
		}
		t = target
		record(t)
		if opt.Until != nil && opt.Until(res) {
			return res, nil
		}
	}
	if opt.Stop-t > 1e-9*opt.Dt {
		if err := c.advance(ctx, t, opt.Stop, opt, nrOpt, 0); err != nil {
			return nil, fmt.Errorf("spice: transient at t=%.4g: %w", opt.Stop, err)
		}
		record(opt.Stop)
	}
	return res, nil
}

// advance moves the solution from time t0 to t1, recursively halving on
// Newton failure.
func (c *Circuit) advance(ctx *Context, t0, t1 float64, opt TranOptions, nrOpt NROptions, depth int) error {
	ctx.Time = t1
	ctx.Dt = t1 - t0
	// Save state so a failed attempt can be retried on a finer grid. The
	// workspace slots are shared across subdivision depths, which is
	// safe: a depth restores from its saves (or abandons them by
	// returning the error) strictly before recursing, and never reads
	// them after the recursive calls begin.
	saveX, savePrev := ctx.ws.saveX, ctx.ws.savePrev
	copy(saveX, ctx.X)
	copy(savePrev, ctx.XPrev)

	err := c.solveNewton(ctx, nrOpt)
	if err != nil {
		// Regenerative switching events (both neuron circuits fire
		// through high-gain positive-feedback loops) can defeat plain
		// Newton at any timestep. gmin continuation — solving with a
		// heavy drain-source shunt and relaxing it decade by decade —
		// walks the iterate through the transition.
		copy(ctx.X, saveX)
		gminErr := error(nil)
		for _, g := range []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12} {
			ctx.Gmin = g
			if gminErr = c.solveNewton(ctx, nrOpt); gminErr != nil {
				break
			}
		}
		ctx.Gmin = 1e-12
		if gminErr == nil {
			err = nil
		}
	}
	if err == nil {
		// Accept: advance dynamic state.
		for _, e := range c.elements {
			if s, ok := e.(stateful); ok {
				s.accept(ctx)
			}
		}
		copy(ctx.XPrev, ctx.X)
		return nil
	}
	if depth >= opt.MaxSubdiv {
		return err
	}
	// Restore and retry in two half-steps.
	copy(ctx.X, saveX)
	copy(ctx.XPrev, savePrev)
	mid := 0.5 * (t0 + t1)
	if err := c.advance(ctx, t0, mid, opt, nrOpt, depth+1); err != nil {
		return err
	}
	return c.advance(ctx, mid, t1, opt, nrOpt, depth+1)
}

// debugNR enables NR failure diagnostics when the SPICE_DEBUG
// environment variable is set at process start. debugOut is where the
// diagnostics go (swapped by tests).
var (
	debugNR            = os.Getenv("SPICE_DEBUG") != ""
	debugOut io.Writer = os.Stdout
)
