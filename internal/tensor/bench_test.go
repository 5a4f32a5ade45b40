package tensor

import (
	"fmt"
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
	gain, scale := NewVector(n), NewVector(n)
	refrac := make([]int, n)
	mask := make([]uint64, MaskWords(n))
	for i := 0; i < n; i++ {
		v[i] = -65 + 10*rng.Float64()
		theta[i] = 0.5 * rng.Float64()
		drive[i] = 0.12 * rng.Float64()
		gain[i], scale[i] = 1, 1
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
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.step()
			}
		})
	}
}

// stdpBench is the paper's 784×100 input→excitatory matrix and a
// random selection of k of its columns, as a list and as a mask.
func stdpBench(k int) (*Matrix, []int, []uint64, *rand.Rand) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(784, 100)
	m.RandFill(rng, 0, 0.3)
	cols := rng.Perm(m.Cols)[:k]
	return m, cols, maskOf(cols, m.Cols), rng
}

// BenchmarkDepressRows depresses 11 spiked rows, about one step's input
// spikes, at k selected columns: "walk" is the indexed walk DiehlCook
// runs below a quarter of the layer, "dispatched" and "generic" the
// masked kernel as dispatched and its Go loop. The depressions are
// small enough that weights stay off the floor.
func BenchmarkDepressRows(b *testing.B) {
	for _, k := range []int{10, 20, 30, 100} {
		m, cols, sel, rng := stdpBench(k)
		d := NewVector(m.Cols)
		for j := range d {
			d[j] = 1e-12 * rng.Float64()
		}
		sets := make([][]int, 64)
		for s := range sets {
			sets[s] = rng.Perm(m.Rows)[:11]
		}
		for _, v := range []struct {
			name string
			run  func(rows []int)
		}{
			{"walk", func(rows []int) {
				for _, i := range rows {
					row := m.Row(i)
					for _, j := range cols {
						w := row[j] - d[j]
						if w < 0 {
							w = 0
						}
						row[j] = w
					}
				}
			}},
			{"dispatched", func(rows []int) { m.DepressRows(rows, d, sel) }},
			{"generic", func(rows []int) { m.depressRowsGeneric(0, rows, d, sel) }},
		} {
			b.Run(fmt.Sprintf("cols=%d/%s", k, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run(sets[i%len(sets)])
				}
			})
		}
	}
}

// BenchmarkPotentiateRows potentiates 166 active pixels' rows, about
// the pre-synaptic support late in a presentation, at k spiking
// columns. Each pixel's trace is read from a decay table through its
// spike lag, as DiehlCook does: "walk" forms the addend per weight in
// its column walk, "dispatched" and "generic" form it once per pixel
// and run the masked kernel as dispatched and its Go loop. The addends
// are small enough that weights stay below the ceiling.
func BenchmarkPotentiateRows(b *testing.B) {
	for _, k := range []int{5, 10, 25, 100} {
		m, cols, sel, rng := stdpBench(k)
		rows := rng.Perm(m.Rows)[:166]
		decay := NewVector(250)
		lag := make([]int, m.Rows)
		for t := range decay {
			decay[t] = math.Exp(-float64(t) / 20)
		}
		for i := range lag {
			lag[i] = rng.Intn(len(decay))
		}
		const nu = 1e-12
		add := NewVector(len(rows))
		addends := func() {
			for k, i := range rows {
				add[k] = nu * decay[lag[i]]
			}
		}
		for _, v := range []struct {
			name string
			run  func()
		}{
			{"walk", func() {
				wd, n := m.Data, m.Cols
				for _, j := range cols {
					for _, i := range rows {
						w := wd[i*n+j] + nu*decay[lag[i]]
						if w > 1 {
							w = 1
						}
						wd[i*n+j] = w
					}
				}
			}},
			{"dispatched", func() { addends(); m.PotentiateRows(rows, add, 1, sel) }},
			{"generic", func() { addends(); m.potentiateRowsGeneric(0, rows, add, 1, sel) }},
		} {
			b.Run(fmt.Sprintf("cols=%d/%s", k, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run()
				}
			})
		}
	}
}

// BenchmarkNormalizeColsSubset renormalizes k dirty columns: "walk" is
// the listed-column form NormalizeColsSubset runs below a quarter of
// the columns, "dispatched" and "generic" its dense form (column sums,
// deselection, masked rescale) with the kernels as dispatched and with
// their Go loops.
func BenchmarkNormalizeColsSubset(b *testing.B) {
	for _, k := range []int{4, 25, 34, 100} {
		m, cols, sel, _ := stdpBench(k)
		sums := NewVector(m.Cols)
		for _, v := range []struct {
			name string
			run  func()
		}{
			{"walk", func() { m.normalizeColsWalk(78.4, cols, sums) }},
			{"dispatched", func() {
				m.colSums(sums)
				deselect(sums, sel)
				m.scaleCols(78.4, sums)
			}},
			{"generic", func() {
				m.colSumsGeneric(sums)
				deselect(sums, sel)
				m.scaleColsGeneric(0, 78.4, sums)
			}},
		} {
			b.Run(fmt.Sprintf("cols=%d/%s", k, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run()
				}
			})
		}
	}
}
