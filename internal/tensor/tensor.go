// Package tensor provides the small dense linear-algebra substrate used
// by the SNN simulator: float64 vectors and row-major matrices with the
// handful of operations spiking-network training needs (masked
// accumulation, outer-product updates, row/column reductions).
//
// It is deliberately minimal — no views, no broadcasting — so that every
// operation is obvious and allocation-free in the hot path.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Fill sets every element to v.
func (x Vector) Fill(v float64) {
	for i := range x {
		x[i] = v
	}
}

// Copy returns a deep copy of x.
func (x Vector) Copy() Vector {
	y := make(Vector, len(x))
	copy(y, x)
	return y
}

// Add adds y into x element-wise. Panics if lengths differ.
func (x Vector) Add(y Vector) {
	checkLen(len(x), len(y))
	for i := range x {
		x[i] += y[i]
	}
}

// Scale multiplies every element by s, four elements per iteration
// (independent per-element products, so the unroll is bit-identical to
// the scalar loop while exposing instruction-level parallelism).
func (x Vector) Scale(s float64) {
	i := 0
	for ; i+3 < len(x); i += 4 {
		x[i] *= s
		x[i+1] *= s
		x[i+2] *= s
		x[i+3] *= s
	}
	for ; i < len(x); i++ {
		x[i] *= s
	}
}

// DecayToward relaxes every element exponentially toward target:
// x[i] = target + (x[i]−target)·decay. This is the LIF membrane decay
// kernel; like Scale it processes four independent elements per
// iteration, bit-identical to the scalar form.
func (x Vector) DecayToward(target, decay float64) {
	i := 0
	for ; i+3 < len(x); i += 4 {
		x[i] = target + (x[i]-target)*decay
		x[i+1] = target + (x[i+1]-target)*decay
		x[i+2] = target + (x[i+2]-target)*decay
		x[i+3] = target + (x[i+3]-target)*decay
	}
	for ; i < len(x); i++ {
		x[i] = target + (x[i]-target)*decay
	}
}

// Sum returns the sum of all elements.
func (x Vector) Sum() float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Zero sets every element to 0.
func (x Vector) Zero() { x.Fill(0) }

// ScatterScale multiplies the elements at idx by s, leaving the rest
// untouched. The sparse-trace decay kernel: when the nonzero support of
// x is tracked externally, decaying only the support is bit-identical
// to a dense Scale (zero times s is zero).
func (x Vector) ScatterScale(idx []int, s float64) {
	for _, i := range idx {
		x[i] *= s
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Copy returns a deep copy of m.
func (m *Matrix) Copy() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) { Vector(m.Data).Fill(v) }

// MulVec computes out = mᵀ·x when transpose is true (treating rows as
// inputs, columns as outputs, the synapse convention w[pre][post]) or
// out = m·x otherwise. out must have the correct length.
func (m *Matrix) MulVec(x, out Vector, transpose bool) {
	if transpose {
		checkLen(len(x), m.Rows)
		checkLen(len(out), m.Cols)
		out.Zero()
		for i := 0; i < m.Rows; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, w := range row {
				out[j] += xi * w
			}
		}
		return
	}
	checkLen(len(x), m.Cols)
	checkLen(len(out), m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		out[i] = s
	}
}

// AccumulateRows adds row i of m into out for every index i in active.
// This is the sparse forward-propagation kernel: active carries the
// indices of presynaptic neurons that spiked this step.
func (m *Matrix) AccumulateRows(active []int, out Vector) {
	checkLen(len(out), m.Cols)
	for _, i := range active {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		o := out[:len(row)] // bounds-check elimination in the inner loop
		for j, w := range row {
			o[j] += w
		}
	}
}

// rowN returns row i of m cut to length n, the accumulator's length, so
// the compiler can drop the bounds checks of a loop over the
// accumulator's indices.
func (m *Matrix) rowN(i, n int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols][:n]
}

// SumRows overwrites out with the sum of the active rows of m (zeroing
// out when active is empty). Every element starts from its first
// active row and adds the others in order, left to right:
// ((row0 + row1) + row2) + …. That equals Zero followed by
// AccumulateRows except for signed zeros, since the reference starts
// from +0: a lone −0 row sums to −0 here and to +0 there.
//
// On amd64 with AVX2 an assembly kernel computes it (see
// kernels_amd64.s), with the same additions in the same order per
// element, so the result is bit-identical to the Go loop.
func (m *Matrix) SumRows(active []int, out Vector) {
	checkLen(len(out), m.Cols)
	if haveAVX2 && len(active) > 0 {
		m.checkRows(active)
		sumRowsAVX2(out, m.Data, m.Cols, active)
		return
	}
	m.sumRowsGeneric(active, out)
}

// sumRowsGeneric is SumRows in Go, the path off amd64 or without AVX2
// and the reference the assembly is tested against. It sweeps out once
// per four rows with no zeroing or copy pass: the first sweep writes
// the sum of the first rows (up to four), each middle sweep adds four
// more, and one last sweep adds the remaining one to three.
func (m *Matrix) sumRowsGeneric(active []int, out Vector) {
	o := out[:m.Cols]
	n := len(o)
	k := min(len(active), 4)
	switch k {
	case 0:
		o.Zero()
	case 1:
		copy(o, m.rowN(active[0], n))
	case 2:
		r0, r1 := m.rowN(active[0], n), m.rowN(active[1], n)
		for j := range o {
			o[j] = r0[j] + r1[j]
		}
	case 3:
		r0, r1, r2 := m.rowN(active[0], n), m.rowN(active[1], n), m.rowN(active[2], n)
		for j := range o {
			o[j] = (r0[j] + r1[j]) + r2[j]
		}
	case 4:
		r0, r1, r2, r3 := m.rowN(active[0], n), m.rowN(active[1], n), m.rowN(active[2], n), m.rowN(active[3], n)
		for j := range o {
			o[j] = ((r0[j] + r1[j]) + r2[j]) + r3[j]
		}
	}
	for ; k+4 <= len(active); k += 4 {
		r0, r1, r2, r3 := m.rowN(active[k], n), m.rowN(active[k+1], n), m.rowN(active[k+2], n), m.rowN(active[k+3], n)
		for j := range o {
			o[j] = (((o[j] + r0[j]) + r1[j]) + r2[j]) + r3[j]
		}
	}
	switch tail := active[k:]; len(tail) {
	case 1:
		r0 := m.rowN(tail[0], n)
		for j := range o {
			o[j] += r0[j]
		}
	case 2:
		r0, r1 := m.rowN(tail[0], n), m.rowN(tail[1], n)
		for j := range o {
			o[j] = (o[j] + r0[j]) + r1[j]
		}
	case 3:
		r0, r1, r2 := m.rowN(tail[0], n), m.rowN(tail[1], n), m.rowN(tail[2], n)
		for j := range o {
			o[j] = ((o[j] + r0[j]) + r1[j]) + r2[j]
		}
	}
}

// SumRowsScaled overwrites out with s times the sum of the active rows
// of m, scaling each row as it is accumulated (out[j] = Σ s·row[j]),
// with the same left-to-right order as SumRows: each product is
// rounded before it is added, never fused. Like SumRows it runs an
// assembly kernel on amd64 with AVX2, bit-identical to the Go loop.
func (m *Matrix) SumRowsScaled(active []int, s float64, out Vector) {
	checkLen(len(out), m.Cols)
	if haveAVX2 && len(active) > 0 {
		m.checkRows(active)
		sumRowsScaledAVX2(out, m.Data, m.Cols, active, s)
		return
	}
	m.sumRowsScaledGeneric(active, s, out)
}

// sumRowsScaledGeneric is SumRowsScaled in Go, with sumRowsGeneric's
// sweeps.
func (m *Matrix) sumRowsScaledGeneric(active []int, s float64, out Vector) {
	o := out[:m.Cols]
	n := len(o)
	k := min(len(active), 4)
	switch k {
	case 0:
		o.Zero()
	case 1:
		r0 := m.rowN(active[0], n)
		for j := range o {
			o[j] = s * r0[j]
		}
	case 2:
		r0, r1 := m.rowN(active[0], n), m.rowN(active[1], n)
		for j := range o {
			o[j] = s*r0[j] + s*r1[j]
		}
	case 3:
		r0, r1, r2 := m.rowN(active[0], n), m.rowN(active[1], n), m.rowN(active[2], n)
		for j := range o {
			o[j] = (s*r0[j] + s*r1[j]) + s*r2[j]
		}
	case 4:
		r0, r1, r2, r3 := m.rowN(active[0], n), m.rowN(active[1], n), m.rowN(active[2], n), m.rowN(active[3], n)
		for j := range o {
			o[j] = ((s*r0[j] + s*r1[j]) + s*r2[j]) + s*r3[j]
		}
	}
	for ; k+4 <= len(active); k += 4 {
		r0, r1, r2, r3 := m.rowN(active[k], n), m.rowN(active[k+1], n), m.rowN(active[k+2], n), m.rowN(active[k+3], n)
		for j := range o {
			o[j] = (((o[j] + s*r0[j]) + s*r1[j]) + s*r2[j]) + s*r3[j]
		}
	}
	switch tail := active[k:]; len(tail) {
	case 1:
		r0 := m.rowN(tail[0], n)
		for j := range o {
			o[j] += s * r0[j]
		}
	case 2:
		r0, r1 := m.rowN(tail[0], n), m.rowN(tail[1], n)
		for j := range o {
			o[j] = (o[j] + s*r0[j]) + s*r1[j]
		}
	case 3:
		r0, r1, r2 := m.rowN(tail[0], n), m.rowN(tail[1], n), m.rowN(tail[2], n)
		for j := range o {
			o[j] = ((o[j] + s*r0[j]) + s*r1[j]) + s*r2[j]
		}
	}
}

// checkRows panics unless every index in active names a row of m, as
// slicing the row would: the assembly kernels read m.Data unchecked.
func (m *Matrix) checkRows(active []int) {
	if len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: %dx%d matrix holds %d elements", m.Rows, m.Cols, len(m.Data)))
	}
	for _, i := range active {
		if uint(i) >= uint(m.Rows) {
			panic(fmt.Sprintf("tensor: row %d out of range [0,%d)", i, m.Rows))
		}
	}
}

// RandFill fills m with uniform values in [lo, hi) drawn from rng.
func (m *Matrix) RandFill(rng *rand.Rand, lo, hi float64) {
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

// Equal reports whether two matrices have the same shape and elements
// within tolerance tol. A NaN equals nothing, not even a NaN, and an
// infinity equals only itself.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if w := o.Data[i]; v != w && !(math.Abs(v-w) <= tol) {
			return false
		}
	}
	return true
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
