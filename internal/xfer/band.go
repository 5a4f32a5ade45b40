package xfer

import "math"

// NormalQuantile returns the standard-normal quantile z with
// P(Z ≤ z) = p (e.g. p=0.05 → −1.6449, p=0.5 → 0, p=0.95 → +1.6449).
func NormalQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// Variation models device-mismatch spread on a transfer curve as a
// relative normal perturbation of its output: at quantile p the curve
// value scales by 1 + z(p)·RelSigma. RelSigma is the relative sigma
// σ/μ measured by the Monte-Carlo threshold characterization
// (neuron.Spread over MonteCarloThresholds samples), so the band the
// network tier consumes is anchored on the same mismatch statistics
// the circuit tier measured.
type Variation struct {
	RelSigma float64 // relative standard deviation (σ/μ) of the curve output
}

// RatioAt evaluates the curve at x shifted to the given quantile
// percentile (0–100): the p50 value is the nominal curve, p5/p95 are
// the band edges.
func (v Variation) RatioAt(c Curve, x, quantilePc float64) float64 {
	return c.At(x) * (1 + NormalQuantile(quantilePc/100)*v.RelSigma)
}
