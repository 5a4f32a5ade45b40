// Package snnfi reproduces "Analysis of Power-Oriented Fault Injection
// Attacks on Spiking Neural Networks" (Nagarajan et al., DATE 2022) in
// pure-stdlib Go: a SPICE-class analog circuit simulator for the
// neuron-level characterization, a Diehl&Cook spiking-network simulator
// for the system-level attack evaluation, the five power attacks, and
// the §V defenses.
//
// The implementation lives under internal/; the supported entry points
// are the commands under cmd/ (figures, snn-attack, snn-worker,
// cached, spice-sim, report-check), the suite files under suites/ that
// cmd/figures interprets, and the runnable examples under examples/.
// Campaign sweeps execute on internal/runner's parallel worker pool
// with a content-addressed result cache and a streaming JSONL sink;
// results are identical at any worker count. bench_test.go in this
// directory regenerates every figure and table as a testing.B
// benchmark; see DESIGN.md for the experiment index and the runner
// design, and EXPERIMENTS.md for paper-versus-measured numbers.
package snnfi
