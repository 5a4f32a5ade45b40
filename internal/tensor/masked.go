package tensor

// Masked kernels of the STDP and normalization passes. A column
// selection is a bitmask in MaskWords' layout: bit j&63 of word j>>6
// selects column j. Each kernel runs an amd64 AVX2 kernel
// (kernels_amd64.s) on hosts that have it, four columns per
// instruction, beside a Go loop: the path off amd64 and the reference
// the assembly is fuzzed against. Every lane performs the Go loop's
// IEEE operations in the same order, and an unselected element keeps
// its bits: the assembly blends the old value back (VBLENDVPD) instead
// of adding 0 or multiplying by 1, which would turn −0 into +0 or
// quiet a signaling NaN.

// selected reports whether sel selects column j.
func selected(sel []uint64, j int) bool { return sel[j>>6]&(1<<(j&63)) != 0 }

// DepressRows lowers the selected columns of each listed row by d,
// floored at zero: for each i in rows and each column j that sel
// selects, w := m[i][j] − d[j], then if w < 0 { w = 0 }. A NaN or −0
// result is stored as it is, and a row listed twice is depressed
// twice. d must have m.Cols elements (those of unselected columns do
// not matter) and sel MaskWords(m.Cols) words.
func (m *Matrix) DepressRows(rows []int, d Vector, sel []uint64) {
	checkLen(len(d), m.Cols)
	sel = sel[:MaskWords(m.Cols)]
	lo := 0
	if haveAVX2 && len(rows) > 0 {
		m.checkRows(rows)
		depressRowsAVX2(m.Data, m.Cols, rows, d, sel)
		lo = m.Cols &^ 3
	}
	m.depressRowsGeneric(lo, rows, d, sel)
}

// depressRowsGeneric is DepressRows in Go from column lo on: the whole
// update off amd64 or without AVX2, and the one-to-three-column tail
// after the assembly kernel.
func (m *Matrix) depressRowsGeneric(lo int, rows []int, d Vector, sel []uint64) {
	if lo == m.Cols {
		return
	}
	for _, i := range rows {
		row := m.Row(i)[:len(d)]
		for j := lo; j < len(row); j++ {
			if !selected(sel, j) {
				continue
			}
			w := row[j] - d[j]
			if w < 0 {
				w = 0
			}
			row[j] = w
		}
	}
}

// PotentiateRows raises the selected columns of each listed row by the
// row's own addend, capped at wmax: for the k-th listed row i and each
// column j that sel selects, w := m[i][j] + a[k], then if w > wmax
// { w = wmax }. A NaN sum is stored as it is. a must have len(rows)
// elements and sel MaskWords(m.Cols) words.
func (m *Matrix) PotentiateRows(rows []int, a Vector, wmax float64, sel []uint64) {
	checkLen(len(a), len(rows))
	sel = sel[:MaskWords(m.Cols)]
	lo := 0
	if haveAVX2 && len(rows) > 0 {
		m.checkRows(rows)
		potentiateRowsAVX2(m.Data, m.Cols, rows, a, wmax, sel)
		lo = m.Cols &^ 3
	}
	m.potentiateRowsGeneric(lo, rows, a, wmax, sel)
}

// potentiateRowsGeneric is PotentiateRows in Go from column lo on, with
// depressRowsGeneric's shape.
func (m *Matrix) potentiateRowsGeneric(lo int, rows []int, a Vector, wmax float64, sel []uint64) {
	if lo == m.Cols {
		return
	}
	for k, i := range rows {
		row, ak := m.Row(i), a[k]
		for j := lo; j < len(row); j++ {
			if !selected(sel, j) {
				continue
			}
			w := row[j] + ak
			if w > wmax {
				w = wmax
			}
			row[j] = w
		}
	}
}

// ColSum returns the per-column sums of m, in colSums' order.
func (m *Matrix) ColSum() Vector {
	s := NewVector(m.Cols)
	m.colSums(s)
	return s
}

// colSums overwrites s with the column sums of m: each starts from +0
// and adds the column's elements in ascending row order, so a column
// of −0s sums to +0.
func (m *Matrix) colSums(s Vector) {
	checkLen(len(s), m.Cols)
	if haveAVX2 {
		m.checkRows(nil)
		colSumsAVX2(s, m.Data, m.Rows, m.Cols)
		return
	}
	m.colSumsGeneric(s)
}

// colSumsGeneric is colSums in Go: one row-major pass.
func (m *Matrix) colSumsGeneric(s Vector) {
	s.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		o := s[:len(row)]
		for j, w := range row {
			o[j] += w
		}
	}
}

// scaleCols multiplies every element of each column j whose sum s[j]
// is nonzero by target/s[j], the factor rounded once per column, and
// leaves every element of a zero-sum column alone. A NaN sum is
// nonzero, so its column turns NaN.
func (m *Matrix) scaleCols(target float64, s Vector) {
	checkLen(len(s), m.Cols)
	lo := 0
	if haveAVX2 {
		m.checkRows(nil)
		scaleColsAVX2(m.Data, m.Rows, m.Cols, s, target)
		lo = m.Cols &^ 3
	}
	m.scaleColsGeneric(lo, target, s)
}

// scaleColsGeneric is scaleCols in Go from column lo on. Like the
// assembly it takes the columns in blocks of 16, computes a block's
// factors once and then sweeps its rows.
func (m *Matrix) scaleColsGeneric(lo int, target float64, s Vector) {
	var f [16]float64
	for j0 := lo; j0 < m.Cols; j0 += len(f) {
		w := min(len(f), m.Cols-j0)
		sb := s[j0 : j0+w]
		for k, sk := range sb {
			if sk != 0 {
				f[k] = target / sk
			}
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*m.Cols+j0 : i*m.Cols+j0+w]
			for k, sk := range sb {
				if sk != 0 {
					row[k] *= f[k]
				}
			}
		}
	}
}

// NormalizeCols rescales each column so its sum equals target; a
// column whose sum is zero is left untouched. This is the Diehl&Cook
// weight normalization of the input→excitatory connection. Each
// column's sum starts from +0 and adds its elements in ascending row
// order, and its elements are multiplied by target/sum. sums is a
// caller-owned scratch of at least m.Cols elements whose contents it
// overwrites, so it allocates nothing.
func (m *Matrix) NormalizeCols(target float64, sums Vector) {
	s := sums[:m.Cols]
	m.colSums(s)
	m.scaleCols(target, s)
}

// NormalizeColsSubset rescales only the listed columns so each sums to
// target, leaving every other column untouched; zero-sum columns in
// the list are also left untouched. sel must select exactly the
// columns in cols (MaskWords(m.Cols) words), and the columns in cols
// must be distinct: a repeated column would be rescaled twice by a
// factor summed once. Their order does not matter. sums is a
// caller-owned scratch of at least m.Cols elements whose contents it
// overwrites. For a listed column the factor, and hence the rescaled
// values, are bit-identical to NormalizeCols': the sum starts from +0
// and adds the column's elements in ascending row order. This is the
// dirty-column form of Diehl&Cook normalization: between two
// normalizations STDP touches only the columns of neurons that spiked,
// so only those columns have drifted from target.
//
// Once at least a quarter of the columns are listed it runs
// NormalizeCols' dense kernels: it sums every column, sets the sums of
// the unlisted ones to zero and rescales, so the rescale leaves them
// alone as it leaves a zero-sum column. Below that it makes two
// row-major passes over the listed columns only, one summing them and
// one rescaling them. It reports whether it took the dense kernels.
func (m *Matrix) NormalizeColsSubset(target float64, cols []int, sel []uint64, sums Vector) (dense bool) {
	if 4*len(cols) >= m.Cols {
		s := sums[:m.Cols]
		m.colSums(s)
		deselect(s, sel)
		m.scaleCols(target, s)
		return true
	}
	m.normalizeColsWalk(target, cols, sums)
	return false
}

// deselect zeroes s[j] for every column j that sel does not select.
func deselect(s Vector, sel []uint64) {
	sel = sel[:MaskWords(len(s))]
	for j := range s {
		if !selected(sel, j) {
			s[j] = 0
		}
	}
}

// normalizeColsWalk is NormalizeColsSubset below the quarter point: it
// sums the listed columns in one row-major pass, into sums[:len(cols)],
// turns the sums into factors (1 for a zero sum, which holds only
// finite values, so x·1 keeps each bit) and rescales the listed
// columns in a second pass.
func (m *Matrix) normalizeColsWalk(target float64, cols []int, sums Vector) {
	f := sums[:len(cols)]
	f.Zero()
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for k, j := range cols {
			f[k] += row[j]
		}
	}
	for k, s := range f {
		if s == 0 {
			f[k] = 1
		} else {
			f[k] = target / s
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for k, j := range cols {
			row[j] *= f[k]
		}
	}
}
