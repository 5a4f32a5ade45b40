package spice

import "snnfi/internal/obs"

// Solver activity counters, process-wide. The engine is used through
// free-standing Circuit values created deep inside characterization
// sweeps, so the counters live at package level (like debugNR) rather
// than threading a registry through every Circuit: Instrument publishes
// them into a campaign's registry once, at startup.
//
// They count work, not time — two atomic adds per solve, no
// allocation — so TestSolveNewtonAllocationFree's zero-alloc contract
// holds with telemetry compiled in.
var metrics struct {
	// solves: completed solveNewton calls (converged or not). Each one
	// performed exactly one beginStep full stamp.
	solves obs.Counter
	// newtonIters: Newton iterations across all solves. Every
	// iteration restamps the nonlinear devices once, so this is also
	// the restamp count.
	newtonIters obs.Counter
}

// Instrument publishes the solver counters into r as "spice.solves"
// and "spice.newton_iters", and the iteration counter once more as
// "spice.restamps". Nil registry is a no-op; calling again with
// another registry re-publishes the same atomics.
func Instrument(r *obs.Registry) {
	r.RegisterCounter("spice.solves", &metrics.solves)
	r.RegisterCounter("spice.newton_iters", &metrics.newtonIters)
	r.RegisterCounter("spice.restamps", &metrics.newtonIters)
}

// SolverCounts reports the process-wide solver activity so far, for
// tests and callers without a registry. restamps equals newtonIters:
// each iteration restamps once.
func SolverCounts() (solves, newtonIters, restamps int64) {
	iters := metrics.newtonIters.Value()
	return metrics.solves.Value(), iters, iters
}
