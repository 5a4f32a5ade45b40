package spice

import (
	"fmt"
	"math"
	"sort"
)

// Waveform is a time-dependent source value. Implementations must be
// pure functions of time so that Newton iteration and step subdivision
// can re-evaluate them freely.
type Waveform interface {
	// At returns the source value at time t (seconds).
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// periodMod returns math.Mod(t, p), bit for bit, without its
// bit-by-bit reduction loop on the common path. For t, p > 0 it takes
// the quotient q = ⌊t/p⌋ and the remainder r = t − q·p in one fused
// multiply-add. When q is the true quotient the remainder is
// representable, so the FMA's single rounding returns it exactly
// (t − q*p, rounded twice, would not). A q off by one or more puts the
// exact t − q·p outside [0, p), and rounding keeps it there: it is a
// nonzero multiple of the smallest subnormal, and p is representable.
// Such a q, and every other input (zeros, negatives, NaN, ±Inf, a
// quotient that overflows), falls back to math.Mod.
func periodMod(t, p float64) float64 {
	if t > 0 && p > 0 {
		q := math.Floor(t / p)
		if r := math.FMA(-q, p, t); 0 <= r && r < p {
			return r
		}
	}
	return math.Mod(t, p)
}

// Pulse is a SPICE-style periodic pulse with linear rise/fall edges.
// A zero Period makes the pulse one-shot.
type Pulse struct {
	Low, High  float64
	Delay      float64
	Rise, Fall float64
	Width      float64
	Period     float64
}

// At implements Waveform.
func (p Pulse) At(t float64) float64 {
	t -= p.Delay
	if t < 0 {
		return p.Low
	}
	if p.Period > 0 {
		t = periodMod(t, p.Period)
	}
	rise := p.Rise
	if rise <= 0 {
		rise = 1e-12
	}
	fall := p.Fall
	if fall <= 0 {
		fall = 1e-12
	}
	switch {
	case t < rise:
		return p.Low + (p.High-p.Low)*t/rise
	case t < rise+p.Width:
		return p.High
	case t < rise+p.Width+fall:
		return p.High - (p.High-p.Low)*(t-rise-p.Width)/fall
	default:
		return p.Low
	}
}

// SpikeTrain is a periodic rectangular spike train with short linear
// edges (5% of the width) to keep transient steps well-behaved. It
// models the current-spike stimulus used throughout the paper:
// amplitude Amp, spike width Width, repeating every Period after Delay.
type SpikeTrain struct {
	Amp    float64
	Width  float64
	Period float64
	Delay  float64
}

// At implements Waveform.
func (s SpikeTrain) At(t float64) float64 {
	t -= s.Delay
	if t < 0 {
		return 0
	}
	if s.Period > 0 {
		t = periodMod(t, s.Period)
	}
	edge := 0.05 * s.Width
	switch {
	case t < edge:
		return s.Amp * t / edge
	case t < s.Width-edge:
		return s.Amp
	case t < s.Width:
		return s.Amp * (s.Width - t) / edge
	default:
		return 0
	}
}

// PWL is a piecewise-linear waveform through (T[i], V[i]) points. Before
// the first point it holds V[0]; after the last it holds V[n-1].
type PWL struct {
	T []float64
	V []float64
}

// NewPWL builds a PWL waveform, validating that times are strictly
// increasing.
func NewPWL(t, v []float64) (PWL, error) {
	if len(t) != len(v) || len(t) == 0 {
		return PWL{}, fmt.Errorf("spice: PWL needs equal non-empty T/V, got %d/%d", len(t), len(v))
	}
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return PWL{}, fmt.Errorf("spice: PWL times must be strictly increasing at index %d", i)
		}
	}
	return PWL{T: t, V: v}, nil
}

// At implements Waveform.
func (p PWL) At(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	// p.T[i-1] < t <= p.T[i]
	f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
	return p.V[i-1] + f*(p.V[i]-p.V[i-1])
}

// Sine is a sinusoidal waveform Offset + Amp·sin(2πf(t−Delay)).
type Sine struct {
	Offset, Amp, Freq, Delay float64
}

// At implements Waveform.
func (s Sine) At(t float64) float64 {
	if t < s.Delay {
		return s.Offset
	}
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*(t-s.Delay))
}
