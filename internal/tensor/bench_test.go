package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// driveBench is the drive sum at the paper's geometry: a 784×100
// input→excitatory matrix and 64 sets of 11 active pixels, about what a
// Poisson-encoded digit spikes per step.
func driveBench() (*Matrix, [][]int) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(784, 100)
	m.RandFill(rng, 0, 0.3)
	sets := make([][]int, 64)
	for k := range sets {
		sets[k] = rng.Perm(m.Rows)[:11]
	}
	return m, sets
}

func BenchmarkSumRows(b *testing.B) {
	m, sets := driveBench()
	out := NewVector(m.Cols)
	for _, k := range []struct {
		name string
		sum  func([]int, Vector)
	}{
		{"dispatched", m.SumRows},
		{"generic", m.sumRowsGeneric},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.sum(sets[i%len(sets)], out)
			}
		})
	}
}

func BenchmarkSumRowsScaled(b *testing.B) {
	m, sets := driveBench()
	out := NewVector(m.Cols)
	for _, k := range []struct {
		name string
		sum  func([]int, float64, Vector)
	}{
		{"dispatched", m.SumRowsScaled},
		{"generic", m.sumRowsScaledGeneric},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.sum(sets[i%len(sets)], 0.9, out)
			}
		})
	}
}

// BenchmarkLIFStep steps a 100-neuron excitatory layer with Diehl&Cook
// constants, a few neurons refractory at the start and drives whose
// fixed points stay below threshold, so it settles without spikes, as
// most neurons do between winner-take-all spikes.
func BenchmarkLIFStep(b *testing.B) {
	const n = 100
	rng := rand.New(rand.NewSource(2))
	v, theta, drive := NewVector(n), NewVector(n), NewVector(n)
	gain, scale, eff := NewVector(n), NewVector(n), NewVector(n)
	refrac := make([]int, n)
	mask := make([]uint64, MaskWords(n))
	for i := 0; i < n; i++ {
		v[i] = -65 + 10*rng.Float64()
		theta[i] = 0.5 * rng.Float64()
		drive[i] = 0.12 * rng.Float64()
		gain[i], scale[i] = 1, 1
		eff[i] = -52 + theta[i]
		if i%10 == 0 {
			refrac[i] = 5
		}
	}
	decay, thetaDecay := math.Exp(-0.01), math.Exp(-1e-7)
	for _, k := range []struct {
		name string
		step func()
	}{
		{"learning/dispatched", func() {
			LIFStep(v, theta, refrac, drive, gain, scale, -65, decay, -52, thetaDecay, mask)
		}},
		{"learning/generic", func() {
			clear(mask)
			lifStepGeneric(0, v, theta, refrac, drive, gain, scale, -65, decay, -52, thetaDecay, mask)
		}},
		{"frozen/dispatched", func() {
			LIFStepFrozen(v, refrac, drive, gain, eff, -65, decay, mask)
		}},
		{"frozen/generic", func() {
			clear(mask)
			lifStepFrozenGeneric(0, v, refrac, drive, gain, eff, -65, decay, mask)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.step()
			}
		})
	}
}
