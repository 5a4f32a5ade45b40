package spice

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Solver settings, the same for every analysis.
const (
	nrAbsTol  = 1e-6 // Newton absolute voltage tolerance (V)
	nrRelTol  = 1e-4 // Newton relative tolerance
	nrDamping = 0.4  // maximum node-voltage change per Newton iteration (V)
	// nrVMin/nrVMax clamp node voltages (V), keeping Newton out of the
	// flat regions of device characteristics (SPICE's fetlim).
	nrVMin, nrVMax = -1.0, 3.0
	// maxSubdiv bounds how many times a non-converging transient step
	// is halved before the analysis fails.
	maxSubdiv = 10
	// gShunt (S) ties every node to ground in every analysis, so a
	// floating node (a capacitor driven only by a current source) stays
	// solvable.
	gShunt = 1e-9
)

// nrMaxIter caps the Newton iterations of one solve. It is a variable
// only so a test can lower it.
var nrMaxIter = 200

// solveNewton runs damped Newton–Raphson from the iterate already in
// ctx.X. It returns nil when converged. The per-solve system (source
// waveform values, capacitor companions) is stamped once on entry; the
// loop re-stamps only iterate-dependent devices and reuses the context
// workspace, so iterating allocates nothing.
func (c *Circuit) solveNewton(ctx *Context) error {
	c.beginStep(ctx)
	metrics.solves.Inc()
	iters := 0
	defer func() { metrics.newtonIters.Add(int64(iters)) }()
	n := c.NumUnknowns()
	xNew := ctx.ws.xNew
	damping := nrDamping
	// Last iteration's worst unscaled Newton update, captured before
	// ctx.X absorbs the (scaled, clamped) step — the honest answer to
	// "how far was the solve from its fixed point". Computing it after
	// the update would report the residual (1−scale) fraction, which is
	// exactly zero at scale 1.
	lastWorst, lastWorstIdx := 0.0, -1
	for iter := 0; iter < nrMaxIter; iter++ {
		// High-gain loops (inverter chains at their switching point) can
		// make full Newton steps flip-flop between rails; tightening the
		// damping after repeated failure walks the iterate in instead.
		if iter > 0 && iter%40 == 0 && damping > 0.05 {
			damping *= 0.5
		}
		iters = iter + 1
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
			if !(d <= math.MaxFloat64) {
				// NaN or ±Inf: every comparison below would pass it
				// as converged.
				return fmt.Errorf("spice: non-finite Newton update at %s (iteration %d)", c.unknownName(i), iter)
			}
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
				if ctx.X[i] < nrVMin {
					ctx.X[i] = nrVMin
				} else if ctx.X[i] > nrVMax {
					ctx.X[i] = nrVMax
				}
			}
			tol := nrAbsTol + nrRelTol*math.Abs(ctx.X[i])
			if math.Abs(delta) > tol {
				converged = false
			}
		}
		if converged && scale == 1 {
			return nil
		}
	}
	if debugNR {
		fmt.Fprintf(debugOut, "spice debug: NR stuck, worst delta %.3g at %s; X=%v\n", lastWorst, c.unknownName(lastWorstIdx), ctx.X)
	}
	return fmt.Errorf("spice: Newton–Raphson did not converge in %d iterations", nrMaxIter)
}

// unknownName names unknown i for diagnostics: its node name, or its
// index for a branch current.
func (c *Circuit) unknownName(i int) string {
	if i >= 0 && i < len(c.nodeNames) {
		return c.nodeNames[i]
	}
	return fmt.Sprintf("unknown %d", i)
}

// solveRobust runs the fallback ladder of production SPICE engines on
// the system already configured in ctx: plain Newton, then gmin
// stepping, then source stepping.
func (c *Circuit) solveRobust(ctx *Context) error {
	ctx.SrcScale = 1
	ctx.Gmin = 1e-12
	if err := c.solveNewton(ctx); err == nil {
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
		if err := c.solveNewton(ctx); err != nil {
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
		if err := c.solveNewton(ctx); err != nil {
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
	if err := c.solveRobust(ctx); err != nil {
		return nil, fmt.Errorf("spice: OP: %w", err)
	}
	return ctx, nil
}

// TranOptions configures a transient analysis.
type TranOptions struct {
	Dt   float64 // fixed output timestep (required)
	Stop float64 // stop time (required)
	// UIC skips the DC operating point and starts from all-zero node
	// voltages (SPICE "use initial conditions"). This is the right mode
	// for the neuron circuits, whose interesting state is the start-up
	// charge trajectory of the membrane capacitor.
	UIC bool
	// Record filters which node and source names are recorded; empty
	// records all. A run without Until presizes every recorded column.
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
	Time []float64
	// cols holds the recorded columns: node voltages in node-index
	// order, then branch currents of named sources (voltage sources and
	// op-amps) in element order. nodeCol and branchCol map a name to its
	// column.
	cols               [][]float64
	nodeCol, branchCol map[string]int
}

// V returns the recorded voltage waveform of a node (nil if absent).
func (r *TranResult) V(name string) []float64 { return r.column(r.nodeCol, name) }

// I returns the recorded branch current of a named voltage source.
func (r *TranResult) I(name string) []float64 { return r.column(r.branchCol, name) }

func (r *TranResult) column(index map[string]int, name string) []float64 {
	if j, ok := index[name]; ok {
		return r.cols[j]
	}
	return nil
}

// recordPlan resolves the nodes and source branches opt.Record selects
// (all of them when it is empty) to the MNA unknowns a step records,
// and returns the empty result those columns fill.
func (c *Circuit) recordPlan(opt TranOptions) (*TranResult, []int) {
	want := map[string]bool{}
	for _, n := range opt.Record {
		want[n] = true
	}
	res := &TranResult{nodeCol: map[string]int{}, branchCol: map[string]int{}}
	var unknowns []int
	add := func(index map[string]int, name string, unknown int) {
		if len(want) == 0 || want[name] {
			index[name] = len(unknowns)
			unknowns = append(unknowns, unknown)
		}
	}
	for idx, name := range c.nodeNames {
		add(res.nodeCol, name, idx)
	}
	for _, e := range c.elements {
		switch src := e.(type) {
		case *VSource:
			add(res.branchCol, src.name, c.NumNodes()+src.branch)
		case *OpAmp:
			add(res.branchCol, src.name, c.NumNodes()+src.branch)
		}
	}
	res.cols = make([][]float64, len(unknowns))
	return res, unknowns
}

// presize gives Time and every column room for n samples in one
// backing array, so recording them never grows a slice.
func (r *TranResult) presize(n int) {
	buf := make([]float64, 0, n*(len(r.cols)+1))
	r.Time = buf[0:0:n]
	for j := range r.cols {
		r.cols[j] = buf[(j+1)*n : (j+1)*n : (j+2)*n]
	}
}

// Tran runs a fixed-step transient analysis.
func (c *Circuit) Tran(opt TranOptions) (*TranResult, error) {
	if opt.Dt <= 0 || opt.Stop <= 0 {
		return nil, fmt.Errorf("spice: transient needs positive Dt and Stop (got %g, %g)", opt.Dt, opt.Stop)
	}
	var ctx *Context
	if opt.UIC {
		// The t=0 point under UIC is a cold DC-like solve: sources are at
		// their t=0 values while every capacitor holds its (zero) initial
		// charge. Solving it with a vanishing timestep turns the
		// capacitors into stiff clamps at their initial voltages, and the
		// full fallback ladder handles the nonlinear resistive rest. A
		// nil XPrev reads as all-zero (Context.VPrev).
		ctx = c.newContext()
		ctx.Dt = 1e-18
		if err := c.solveRobust(ctx); err != nil {
			return nil, fmt.Errorf("spice: transient UIC start point: %w", err)
		}
	} else {
		op, err := c.OP()
		if err != nil {
			return nil, fmt.Errorf("spice: transient DC operating point: %w", err)
		}
		ctx = op
	}
	ctx.DC = false
	ctx.Gmin = 1e-12
	ctx.SrcScale = 1
	ctx.XPrev = append([]float64(nil), ctx.X...)

	res, unknowns := c.recordPlan(opt)
	record := func(t float64) {
		res.Time = append(res.Time, t)
		for j, idx := range unknowns {
			res.cols[j] = append(res.cols[j], ctx.X[idx])
		}
	}

	// Full Dt steps that fit before Stop (the epsilon absorbs float
	// division noise when Stop is an exact multiple of Dt), plus a
	// final short step to exactly Stop when it is not: rounding the
	// count would otherwise silently drop the last partial interval
	// (e.g. Stop=1.0, Dt=0.3 used to end at t=0.9) or overshoot Stop.
	nFull := int(opt.Stop/opt.Dt + 1e-9)
	partial := opt.Stop-float64(nFull)*opt.Dt > 1e-9*opt.Dt
	if opt.Until == nil {
		// Only a run that cannot stop early knows its length; an
		// event-stopped one would reserve its whole window.
		n := 1 + nFull
		if partial {
			n++
		}
		res.presize(n)
	}
	ctx.Time = 0
	record(0)
	t := 0.0
	for step := 1; step <= nFull; step++ {
		target := float64(step) * opt.Dt
		if err := c.advance(ctx, t, target, 0); err != nil {
			return nil, fmt.Errorf("spice: transient at t=%.4g: %w", target, err)
		}
		t = target
		record(t)
		if opt.Until != nil && opt.Until(res) {
			return res, nil
		}
	}
	if partial {
		if err := c.advance(ctx, t, opt.Stop, 0); err != nil {
			return nil, fmt.Errorf("spice: transient at t=%.4g: %w", opt.Stop, err)
		}
		record(opt.Stop)
	}
	return res, nil
}

// advance moves the solution from time t0 to t1, recursively halving on
// Newton failure.
func (c *Circuit) advance(ctx *Context, t0, t1 float64, depth int) error {
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

	err := c.solveNewton(ctx)
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
			if gminErr = c.solveNewton(ctx); gminErr != nil {
				break
			}
		}
		ctx.Gmin = 1e-12
		if gminErr == nil {
			err = nil
		}
	}
	if err == nil {
		copy(ctx.XPrev, ctx.X)
		return nil
	}
	if depth >= maxSubdiv {
		return err
	}
	// Restore and retry in two half-steps.
	copy(ctx.X, saveX)
	copy(ctx.XPrev, savePrev)
	mid := 0.5 * (t0 + t1)
	if err := c.advance(ctx, t0, mid, depth+1); err != nil {
		return err
	}
	return c.advance(ctx, mid, t1, depth+1)
}

// debugNR enables NR failure diagnostics when the SPICE_DEBUG
// environment variable is set at process start. debugOut is where the
// diagnostics go (swapped by tests).
var (
	debugNR            = os.Getenv("SPICE_DEBUG") != ""
	debugOut io.Writer = os.Stdout
)
