package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// maskedWidths are the column counts the masked kernels are checked
// at: every tail after the 4-wide blocks, 16-wide blocks that end full
// or one column short or over, mask words that end full, partial or
// one column into the next word, and the paper's 100 neurons.
var maskedWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 130}

// signalingNaN is a NaN with the quiet bit clear: any arithmetic on it
// returns a quiet NaN, so it keeps its bits only where no operation
// touches it.
var signalingNaN = math.Float64frombits(0x7ff0000000000001)

// maskedSpecials are the values the masked cases sprinkle into every
// operand: signed zeros, infinities, quiet and signaling NaNs, and
// subnormals.
var maskedSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), signalingNaN,
	5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
}

// maskedValue returns a special value one time in eight, else normal.
func maskedValue(rng *rand.Rand, normal float64) float64 {
	if rng.Intn(8) == 0 {
		return maskedSpecials[rng.Intn(len(maskedSpecials))]
	}
	return normal
}

// maskedMatrix fills a rows×cols matrix with weights in [0, 1) and
// special values.
func maskedMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for e := range m.Data {
		m.Data[e] = maskedValue(rng, rng.Float64())
	}
	return m
}

// maskKinds are the column selections the kernels are checked under.
const (
	maskEmpty = iota
	maskPartial
	maskAlternating
	maskFull
	numMaskKinds
)

// newMask returns a selection of cols columns of the given kind. A
// partial mask sets random bits in whole words, so bits past the last
// column may be set too; no kernel may read them.
func newMask(rng *rand.Rand, cols, kind int) []uint64 {
	sel := make([]uint64, MaskWords(cols))
	for w := range sel {
		switch kind {
		case maskPartial:
			sel[w] = rng.Uint64() & rng.Uint64()
		case maskAlternating:
			sel[w] = 0x5555555555555555
		case maskFull:
			sel[w] = ^uint64(0)
		}
	}
	return sel
}

// listRows lists rows of an m-row matrix picked by picks, repeats
// included.
func listRows(picks []byte, rows int) []int {
	list := make([]int, len(picks))
	for k, b := range picks {
		list[k] = int(b) % rows
	}
	return list
}

// sameMasked fails the test unless got equals want bit for bit, any
// NaN matching any NaN, and every element outside the listed rows or
// the selected columns keeps the exact bits it had in orig, a
// signaling NaN included. It returns how many elements changed.
func sameMasked(t *testing.T, what string, orig, got, want *Matrix, rows []int, sel []uint64) int {
	t.Helper()
	listed := make([]bool, orig.Rows)
	for _, i := range rows {
		listed[i] = true
	}
	changed := 0
	for e := range want.Data {
		i, j := e/orig.Cols, e%orig.Cols
		if !sameFloat(got.Data[e], want.Data[e]) {
			t.Fatalf("%s %dx%d rows %v: element (%d,%d) is %v, Go loop %v", what, orig.Rows, orig.Cols, rows, i, j, got.Data[e], want.Data[e])
		}
		if !listed[i] || !selected(sel, j) {
			if math.Float64bits(got.Data[e]) != math.Float64bits(orig.Data[e]) {
				t.Fatalf("%s %dx%d: unselected element (%d,%d) changed from %#x to %#x", what, orig.Rows, orig.Cols, i, j,
					math.Float64bits(orig.Data[e]), math.Float64bits(got.Data[e]))
			}
		} else if math.Float64bits(want.Data[e]) != math.Float64bits(orig.Data[e]) {
			changed++
		}
	}
	return changed
}

// checkDepressRows compares DepressRows, as dispatched, with its Go
// loop on one random case. It returns how many weights changed.
func checkDepressRows(t *testing.T, seed int64, cols, kind int, picks []byte) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orig := maskedMatrix(rng, 8, cols)
	d := NewVector(cols)
	for j := range d {
		d[j] = maskedValue(rng, 0.3*rng.Float64())
	}
	sel := newMask(rng, cols, kind)
	rows := listRows(picks, orig.Rows)
	got, want := orig.Copy(), orig.Copy()
	got.DepressRows(rows, d, sel)
	want.depressRowsGeneric(0, rows, d, sel)
	return sameMasked(t, "DepressRows", orig, got, want, rows, sel)
}

// checkPotentiateRows compares PotentiateRows, as dispatched, with its
// Go loop on one random case. It returns how many weights changed.
func checkPotentiateRows(t *testing.T, seed int64, cols, kind int, picks []byte, wmax float64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orig := maskedMatrix(rng, 8, cols)
	rows := listRows(picks, orig.Rows)
	a := NewVector(len(rows))
	for k := range a {
		a[k] = maskedValue(rng, 0.5*rng.Float64())
	}
	sel := newMask(rng, cols, kind)
	got, want := orig.Copy(), orig.Copy()
	got.PotentiateRows(rows, a, wmax, sel)
	want.potentiateRowsGeneric(0, rows, a, wmax, sel)
	return sameMasked(t, "PotentiateRows", orig, got, want, rows, sel)
}

// maskedPicks are row lists for the table tests: none, one row, every
// row in order, and a shuffled list with repeats.
var maskedPicks = [][]byte{{}, {5}, {0, 1, 2, 3, 4, 5, 6, 7}, {3, 7, 3, 0, 6, 6, 1}}

// TestMaskedRowKernelsMatchGoLoops runs both row kernels at every
// width and mask kind over several row lists and seeds, and requires
// changed weights at every width, so the comparison is not vacuous.
func TestMaskedRowKernelsMatchGoLoops(t *testing.T) {
	for _, cols := range maskedWidths {
		changed := 0
		for kind := 0; kind < numMaskKinds; kind++ {
			for p, picks := range maskedPicks {
				seed := int64(cols*100 + kind*10 + p)
				changed += checkDepressRows(t, seed, cols, kind, picks)
				for _, wmax := range []float64{1, 0.6, 0, math.Copysign(0, -1), math.Inf(1), math.NaN()} {
					changed += checkPotentiateRows(t, seed, cols, kind, picks, wmax)
				}
			}
		}
		if changed == 0 {
			t.Fatalf("%d columns: no weight changed; the comparison is vacuous", cols)
		}
	}
}

// FuzzDepressRows checks DepressRows, as dispatched, against its Go
// loop on fuzzed widths, masks and row lists.
func FuzzDepressRows(f *testing.F) {
	for k := range maskedWidths {
		f.Add(int64(k), uint8(k), uint8(k), []byte{0, 3, 3, 7})
	}
	f.Fuzz(func(t *testing.T, seed int64, width, kind uint8, picks []byte) {
		checkDepressRows(t, seed, maskedWidths[int(width)%len(maskedWidths)], int(kind)%numMaskKinds, picks)
	})
}

// FuzzPotentiateRows checks PotentiateRows, as dispatched, against its
// Go loop on fuzzed widths, masks, row lists and ceilings.
func FuzzPotentiateRows(f *testing.F) {
	for k := range maskedWidths {
		f.Add(int64(k), uint8(k), uint8(k), []byte{1, 1, 6, 2}, 1.0)
	}
	f.Add(int64(1), uint8(15), uint8(3), []byte{0, 1, 2}, math.Copysign(0, -1))
	f.Add(int64(2), uint8(16), uint8(1), []byte{4, 4}, math.NaN())
	f.Add(int64(3), uint8(9), uint8(2), []byte{7}, 5e-324)
	f.Fuzz(func(t *testing.T, seed int64, width, kind uint8, picks []byte, wmax float64) {
		checkPotentiateRows(t, seed, maskedWidths[int(width)%len(maskedWidths)], int(kind)%numMaskKinds, picks, wmax)
	})
}

// normalizeReference rescales each listed column, one strided column
// at a time: sum it in ascending row order from +0, skip a zero sum,
// multiply by target/sum.
func normalizeReference(m *Matrix, target float64, cols []int) {
	for _, j := range cols {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += m.At(i, j)
		}
		if s == 0 {
			continue
		}
		f := target / s
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, m.At(i, j)*f)
		}
	}
}

// checkNormalize lists the first k of a random permutation of the
// columns and compares NormalizeColsSubset, as dispatched, with
// normalizeReference, and its dense kernels with their Go loops. Column
// zeroCol, when in range, sums to zero, −0 elements included. With
// every column listed it also checks NormalizeCols.
func checkNormalize(t *testing.T, seed int64, rows, cols, k int, target float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	orig := maskedMatrix(rng, rows, cols)
	const zeroCol = 2
	if cols > zeroCol && rows >= 2 {
		for i := 0; i < rows; i++ {
			orig.Set(i, zeroCol, math.Copysign(0, -1))
		}
		orig.Set(rows/2, zeroCol, 0.5)
		orig.Set(rows-1, zeroCol, -0.5)
	}
	list := rng.Perm(cols)[:k]
	sel := maskOf(list, cols)
	all := make([]int, orig.Rows)
	for i := range all {
		all[i] = i
	}
	want := orig.Copy()
	normalizeReference(want, target, list)
	check := func(what string, run func(m *Matrix, sums Vector)) {
		t.Helper()
		got := orig.Copy()
		sums := NewVector(cols)
		sums.Fill(-7) // no kernel may read stale scratch
		run(got, sums)
		sameMasked(t, what, orig, got, want, all, sel)
	}
	check("NormalizeColsSubset", func(m *Matrix, sums Vector) { m.NormalizeColsSubset(target, list, sel, sums) })
	if k == cols {
		check("NormalizeCols", func(m *Matrix, sums Vector) { m.NormalizeCols(target, sums) })
	}

	// The dense kernels against their Go loops.
	gotSums, wantSums := NewVector(cols), NewVector(cols)
	gotSums.Fill(-7)
	orig.colSums(gotSums)
	orig.colSumsGeneric(wantSums)
	for j := range wantSums {
		if !sameFloat(gotSums[j], wantSums[j]) {
			t.Fatalf("colSums %dx%d column %d: %v, Go loop %v", rows, cols, j, gotSums[j], wantSums[j])
		}
	}
	deselect(wantSums, sel)
	got, ref := orig.Copy(), orig.Copy()
	got.scaleCols(target, wantSums)
	ref.scaleColsGeneric(0, target, wantSums)
	sameMasked(t, "scaleCols", orig, got, ref, all, sel)
}

// normalizeCounts are listed-column counts around the quarter point at
// which NormalizeColsSubset switches to its dense kernels.
func normalizeCounts(cols int) []int {
	q := (cols + 3) / 4 // the least k with 4·k ≥ cols
	counts := []int{0, 1, cols}
	for _, k := range []int{q - 1, q, q + 1, cols / 2, cols - 1} {
		if k >= 0 && k <= cols {
			counts = append(counts, k)
		}
	}
	return counts
}

// TestNormalizeKernelsMatchReference runs checkNormalize at every width
// with listed counts on both sides of the quarter point.
func TestNormalizeKernelsMatchReference(t *testing.T) {
	for _, cols := range maskedWidths {
		for _, k := range normalizeCounts(cols) {
			for _, rows := range []int{1, 7, 41} {
				checkNormalize(t, int64(cols*1000+k*10+rows), rows, cols, k, 78.4)
			}
		}
	}
}

// FuzzNormalizeCols checks the normalization kernels on fuzzed widths,
// heights, listed counts and targets.
func FuzzNormalizeCols(f *testing.F) {
	for k, cols := range maskedWidths {
		f.Add(int64(k), uint8(k), uint8((cols+3)/4), uint8(41), 78.4)
	}
	f.Add(int64(1), uint8(15), uint8(25), uint8(3), math.Inf(1))
	f.Add(int64(2), uint8(16), uint8(40), uint8(9), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed int64, width, listed, rows uint8, target float64) {
		cols := maskedWidths[int(width)%len(maskedWidths)]
		checkNormalize(t, seed, 1+int(rows)%64, cols, int(listed)%(cols+1), target)
	})
}

// TestNormalizeColsAllocatesNothing pins NormalizeCols and both forms
// of NormalizeColsSubset at zero allocations: their scratch is the
// caller's.
func TestNormalizeColsAllocatesNothing(t *testing.T) {
	m := randomMatrix(t, 784, 100, 9)
	sums := NewVector(m.Cols)
	few, many := []int{3, 50, 97}, make([]int, 40)
	for k := range many {
		many[k] = 2 * k
	}
	fewSel, manySel := maskOf(few, m.Cols), maskOf(many, m.Cols)
	for name, run := range map[string]func(){
		"NormalizeCols":             func() { m.NormalizeCols(78.4, sums) },
		"NormalizeColsSubset/dense": func() { m.NormalizeColsSubset(78.4, many, manySel, sums) },
		"NormalizeColsSubset/walk":  func() { m.NormalizeColsSubset(78.4, few, fewSel, sums) },
	} {
		if a := testing.AllocsPerRun(10, run); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, a)
		}
	}
}
