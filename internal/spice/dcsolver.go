package spice

import "fmt"

// DCSolver is a reusable handle for repeated DC solves over one
// circuit. Where OP builds a fresh assembly context (matrix
// workspace, tier partition, constant base system) per analysis, a
// DCSolver builds it once and keeps it across solves, so workloads
// that re-solve the same topology under patched element values — the
// Monte-Carlo mismatch prober re-bisecting an inverter's transfer
// crossing thousands of times — pay the setup exactly once.
//
// Which patches a Solve picks up follows the stamping tiers
// (circuit.go): iterate-tier values (MOSFET model cards via
// MOSFET.P, op-amp limits) and step-tier values (source waveforms via
// VSource.W / ISource.W) are re-stamped by every solve automatically.
// Constant-tier values (resistances, VCVS gains, topology) are baked
// into the base system BeginDC builds — after changing those, begin a
// new solver.
type DCSolver struct {
	c   *Circuit
	ctx *Context
}

// BeginDC returns a DC solver over the circuit's current topology.
// Devices must not be added to the circuit afterwards (the MNA system
// size is fixed here); element values may be patched between solves
// per the tier rules above.
func (c *Circuit) BeginDC() *DCSolver {
	ctx := c.newContext()
	ctx.DC = true
	ctx.Gmin = 1e-12
	ctx.SrcScale = 1
	return &DCSolver{c: c, ctx: ctx}
}

// Solve computes the DC solution by Newton continuation from the
// current iterate — the cheap path when the system moved a little
// since the last solve (a sweep step, a mismatch perturbation). If
// plain Newton fails, the full robust ladder (gmin and source
// stepping) takes over, so Solve is safe from any starting point.
func (s *DCSolver) Solve() error {
	if err := s.c.solveNewton(s.ctx); err == nil {
		return nil
	}
	return s.SolveRobust()
}

// SolveRobust runs the full fallback ladder unconditionally — the
// equivalent of OP on this context. Use it to establish the first
// solution a Solve continuation chain then walks from.
func (s *DCSolver) SolveRobust() error {
	if err := s.c.solveRobust(s.ctx); err != nil {
		return fmt.Errorf("spice: DC solve: %w", err)
	}
	return nil
}

// V returns the solved voltage of the named node (0 for ground or an
// unknown name, matching Context.V's ground convention).
func (s *DCSolver) V(name string) float64 {
	i, ok := s.c.nodeIndex[name]
	if !ok {
		return 0
	}
	return s.ctx.X[i]
}

// SaveState copies the current solution into dst (reallocating only
// if dst is too small) and returns it. Callers that re-solve the same
// operating points under slightly perturbed element values — the
// mismatch prober revisiting one grid index across samples — keep one
// saved state per point and hand it back via LoadState, turning each
// revisit into a one- or two-iteration Newton continuation.
func (s *DCSolver) SaveState(dst []float64) []float64 {
	if cap(dst) < len(s.ctx.X) {
		dst = make([]float64, len(s.ctx.X))
	}
	dst = dst[:len(s.ctx.X)]
	copy(dst, s.ctx.X)
	return dst
}

// LoadState sets the Newton iterate to a state previously captured by
// SaveState. States are only meaningful for the solver they came from.
func (s *DCSolver) LoadState(x []float64) { copy(s.ctx.X, x) }
