package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(4)
	v.Fill(2)
	if got := v.Sum(); got != 8 {
		t.Fatalf("Sum = %v, want 8", got)
	}
	v.Scale(0.5)
	if got := v.Sum(); got != 4 {
		t.Fatalf("after Scale, Sum = %v, want 4", got)
	}
	w := Vector{1, 2, 3, 4}
	v.Add(w)
	if v[3] != 5 {
		t.Fatalf("Add: got %v", v)
	}
}

func TestVectorCopyIndependent(t *testing.T) {
	a := Vector{1, 2}
	b := a.Copy()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Copy must not alias")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	a := Vector{1}
	a.Add(Vector{1, 2})
}

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set mismatch")
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [[1,2,3],[4,5,6]]
	for i, v := range []float64{1, 2, 3, 4, 5, 6} {
		m.Data[i] = v
	}
	out := NewVector(2)
	m.MulVec(Vector{1, 1, 1}, out, false)
	if out[0] != 6 || out[1] != 15 {
		t.Fatalf("MulVec = %v", out)
	}
	outT := NewVector(3)
	m.MulVec(Vector{1, 2}, outT, true)
	if outT[0] != 9 || outT[1] != 12 || outT[2] != 15 {
		t.Fatalf("MulVec transpose = %v", outT)
	}
}

func TestAccumulateRowsMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(10, 6)
	m.RandFill(rng, 0, 1)
	active := []int{1, 4, 7}
	x := NewVector(10)
	for _, i := range active {
		x[i] = 1
	}
	want := NewVector(6)
	m.MulVec(x, want, true)
	got := NewVector(6)
	m.AccumulateRows(active, got)
	for j := range want {
		if math.Abs(want[j]-got[j]) > 1e-12 {
			t.Fatalf("AccumulateRows[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestNormalizeCols(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(8, 4)
	m.RandFill(rng, 0.1, 1)
	m.NormalizeCols(2.5, NewVector(m.Cols))
	sums := m.ColSum()
	for j, s := range sums {
		if math.Abs(s-2.5) > 1e-9 {
			t.Fatalf("column %d sum %v, want 2.5", j, s)
		}
	}
}

func TestNormalizeColsSkipsZeroColumns(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Set(0, 0, 1)
	m.NormalizeCols(10, NewVector(m.Cols))
	if m.At(0, 1) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero column must stay zero")
	}
	if m.At(0, 0) != 10 {
		t.Fatalf("nonzero column not normalized: %v", m.At(0, 0))
	}
}

func TestRowColSums(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	r0, r1 := m.Row(0).Sum(), m.Row(1).Sum()
	cs := m.ColSum()
	if r0 != 3 || r1 != 7 || cs[0] != 4 || cs[1] != 6 {
		t.Fatalf("sums: rows %v %v cols %v", r0, r1, cs)
	}
}

func TestMatrixEqual(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 1.0000001)
	if !a.Equal(b, 1e-5) {
		t.Fatal("should be equal within tolerance")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("should differ at tight tolerance")
	}
	c := NewMatrix(2, 3)
	if a.Equal(c, 1) {
		t.Fatal("shape mismatch must not be equal")
	}
	// A NaN equals nothing, whatever the tolerance; an infinity equals
	// itself; signed zeros are equal.
	a.Set(1, 1, math.NaN())
	b.Set(1, 1, 0.25)
	if a.Equal(b, math.Inf(1)) {
		t.Fatal("NaN must not equal 0.25")
	}
	if a.Equal(a.Copy(), 1) {
		t.Fatal("NaN must not equal NaN")
	}
	a.Set(1, 1, math.Inf(1))
	b.Set(1, 1, math.Inf(1))
	a.Set(0, 1, math.Copysign(0, -1))
	if !a.Equal(b, 1e-5) {
		t.Fatal("equal infinities and signed zeros must be equal")
	}
}

// Property: NormalizeCols is idempotent.
func TestNormalizeColsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(6, 5)
		m.RandFill(rng, 0.01, 1)
		m.NormalizeCols(3, NewVector(m.Cols))
		before := m.Copy()
		m.NormalizeCols(3, NewVector(m.Cols))
		return m.Equal(before, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale then Scale by inverse returns the original vector.
func TestScaleInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVector(16)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		orig := v.Copy()
		v.Scale(3.5)
		v.Scale(1 / 3.5)
		for i := range v {
			if math.Abs(v[i]-orig[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum is linear — Sum(a+b) = Sum(a)+Sum(b).
func TestSumLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewVector(12), NewVector(12)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		sa, sb := a.Sum(), b.Sum()
		a.Add(b)
		return math.Abs(a.Sum()-(sa+sb)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Layout-aware kernel tests (hot-path engine) ---

func randomMatrix(t *testing.T, rows, cols int, seed int64) *Matrix {
	t.Helper()
	m := NewMatrix(rows, cols)
	m.RandFill(rand.New(rand.NewSource(seed)), 0, 1)
	return m
}

// sameFloat reports whether a and b are the same float64: the same
// bits, so −0 differs from +0, or both NaN (a NaN's payload may depend
// on operand order, which no kernel here promises to keep).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// refSumRows is the plain row-by-row reference for SumRows: copy the
// first active row, then add the others in order (zero for none).
func refSumRows(m *Matrix, active []int, out Vector) {
	out.Zero()
	if len(active) == 0 {
		return
	}
	copy(out, m.Row(active[0]))
	m.AccumulateRows(active[1:], out)
}

// refSumRowsScaled is the row-by-row reference for SumRowsScaled: s
// times the first active row, then add s·row for each other row in
// order.
func refSumRowsScaled(m *Matrix, active []int, s float64, out Vector) {
	out.Zero()
	for k, i := range active {
		for j, w := range m.Row(i) {
			if k == 0 {
				out[j] = s * w
			} else {
				out[j] += s * w
			}
		}
	}
}

// checkSumRows compares SumRows and SumRowsScaled, as dispatched and as
// Go loops, with their row-by-row references on one active list, bit
// for bit. Every kernel must overwrite out, not accumulate into it.
func checkSumRows(t *testing.T, m *Matrix, active []int, s float64) {
	t.Helper()
	want := NewVector(m.Cols)
	got := NewVector(m.Cols)
	check := func(name string, run func(Vector)) {
		t.Helper()
		got.Fill(99)
		run(got)
		for j := range want {
			if !sameFloat(got[j], want[j]) {
				t.Fatalf("active %v scale %v col %d: %s %v != reference %v", active, s, j, name, got[j], want[j])
			}
		}
	}
	refSumRows(m, active, want)
	check("SumRows", func(o Vector) { m.SumRows(active, o) })
	check("sumRowsGeneric", func(o Vector) { m.sumRowsGeneric(active, o) })
	refSumRowsScaled(m, active, s, want)
	check("SumRowsScaled", func(o Vector) { m.SumRowsScaled(active, s, o) })
	check("sumRowsScaledGeneric", func(o Vector) { m.sumRowsScaledGeneric(active, s, o) })
}

// TestSumRowsMatchesAccumulate: SumRows and SumRowsScaled must equal
// their reference for every active length from 0 to 13 — each size of
// the first sweep (0–4 rows), of the middle 4-row sweeps and of the
// 1–3-row tail — in ascending, shuffled and repeated-row orders.
func TestSumRowsMatchesAccumulate(t *testing.T) {
	m := randomMatrix(t, 16, 37, 1)
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 13; n++ {
		ascending := make([]int, n)
		repeated := make([]int, n)
		for k := range ascending {
			ascending[k] = k
			repeated[k] = rng.Intn(3) // few distinct rows: many repeats
		}
		for _, active := range [][]int{ascending, rng.Perm(m.Rows)[:n], repeated} {
			checkSumRows(t, m, active, 0.9)
			checkSumRows(t, m, active, -2.5)
		}
	}
	// A lone −0 row sums to −0, and −0 + −0 is −0: the sums start from
	// the first row, not from +0.
	m.Row(5).Fill(math.Copysign(0, -1))
	checkSumRows(t, m, []int{5}, 1)
	checkSumRows(t, m, []int{5, 5}, 1)
}

// TestAccumulateRowsScaled: the scaled drive sum against hand-written
// sums, with a repeated row, overwriting whatever out held before.
func TestAccumulateRowsScaled(t *testing.T) {
	m := randomMatrix(t, 6, 9, 2)
	active := []int{1, 4, 4}
	out := NewVector(m.Cols)
	m.SumRowsScaled(active, 0.5, out)
	for j := 0; j < m.Cols; j++ {
		want := 0.5*m.At(1, j) + 0.5*m.At(4, j) + 0.5*m.At(4, j)
		if math.Abs(out[j]-want) > 1e-15 {
			t.Fatalf("col %d: got %v, want %v", j, out[j], want)
		}
	}
	// Scaled sum-rows overwrites.
	out.Fill(7)
	m.SumRowsScaled(active, 2, out)
	for j := 0; j < m.Cols; j++ {
		want := 2 * (m.At(1, j) + 2*m.At(4, j))
		if math.Abs(out[j]-want) > 1e-12 {
			t.Fatalf("SumRowsScaled col %d: got %v, want %v", j, out[j], want)
		}
	}
}

// FuzzSumRows checks both drive kernels against their references on
// fuzzed active lists, scales and matrices that include signed zeros,
// infinities, NaN and subnormals. Up to 70 columns cover every column
// block of the assembly kernels (32, 4 and 1 wide).
func FuzzSumRows(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6}, 0.9)
	f.Add(int64(2), []byte{3, 3, 3, 3, 3}, -1.0)
	f.Add(int64(3), []byte{}, 2.0)
	f.Add(int64(5), []byte{6}, 1.0)
	f.Add(int64(4), []byte{7, 0, 7, 1, 7, 2, 7, 3, 7, 4, 7, 5, 7}, math.Inf(1))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.MaxFloat64}
	f.Fuzz(func(t *testing.T, seed int64, picks []byte, s float64) {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(8, 1+rng.Intn(70))
		for e := range m.Data {
			if rng.Intn(8) == 0 {
				m.Data[e] = special[rng.Intn(len(special))]
			} else {
				m.Data[e] = rng.NormFloat64()
			}
		}
		active := make([]int, len(picks))
		for k, b := range picks {
			active[k] = int(b) % m.Rows
		}
		checkSumRows(t, m, active, s)
	})
}

// maskOf returns the selection of the listed columns of an n-column
// matrix.
func maskOf(cols []int, n int) []uint64 {
	sel := make([]uint64, MaskWords(n))
	for _, j := range cols {
		sel[j>>6] |= 1 << (j & 63)
	}
	return sel
}

// TestNormalizeColsSubsetMatchesPerColumn: the two-pass row-major
// subset normalization must reproduce, bit for bit, a per-column
// reference (sum the column in ascending row order, skip a zero sum,
// rescale) on the listed columns and leave every other column alone —
// for a shuffled subset with a zero-sum column, and for all columns.
func TestNormalizeColsSubsetMatchesPerColumn(t *testing.T) {
	base := randomMatrix(t, 41, 13, 4)
	// A zero-sum column in the list stays untouched, nonzero elements
	// and signed zeros included.
	for i := 0; i < base.Rows; i++ {
		base.Set(i, 5, math.Copysign(0, -1))
	}
	base.Set(3, 5, 0.5)
	base.Set(7, 5, -0.5)
	all := rand.New(rand.NewSource(6)).Perm(base.Cols)
	for _, cols := range [][]int{{}, {5}, {9, 5, 0, 12, 3}, all} {
		want, got := base.Copy(), base.Copy()
		normalizeReference(want, 78.4, cols)
		scratch := NewVector(base.Cols)
		scratch.Fill(-7) // the kernel must not read stale scratch
		got.NormalizeColsSubset(78.4, cols, maskOf(cols, base.Cols), scratch)
		for e := range want.Data {
			if math.Float64bits(got.Data[e]) != math.Float64bits(want.Data[e]) {
				t.Fatalf("cols %v: element %d is %v, per-column reference %v", cols, e, got.Data[e], want.Data[e])
			}
		}
	}
	// With every column listed it is the full NormalizeCols.
	full, sub := base.Copy(), base.Copy()
	full.NormalizeCols(78.4, NewVector(base.Cols))
	sub.NormalizeColsSubset(78.4, all, maskOf(all, base.Cols), NewVector(base.Cols))
	for e := range full.Data {
		if math.Float64bits(sub.Data[e]) != math.Float64bits(full.Data[e]) {
			t.Fatalf("all columns: element %d is %v, NormalizeCols %v", e, sub.Data[e], full.Data[e])
		}
	}
}

func TestScatterKernels(t *testing.T) {
	x := Vector{1, 2, 3, 4}
	x.ScatterScale([]int{0, 2}, 0.5)
	want := Vector{0.5, 2, 1.5, 4}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("ScatterScale: got %v, want %v", x, want)
		}
	}
}
