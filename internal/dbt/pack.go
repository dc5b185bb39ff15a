package dbt

import (
	"fmt"

	"repro/internal/blockpart"
	"repro/internal/matrix"
)

// This file exports the transformed bands as flat packed arrays for the
// compiled-schedule engine (internal/schedule). The cycle-accurate
// simulators read coefficients one at a time through BandAt/AHatAt/BHatAt
// closures; the compiled engine instead wants every coefficient laid out
// contiguously so its inner loop is a pure stride-1 multiply–accumulate.
// The DBT packers build that layout from runs of the padded block grids,
// not through the per-element readers.
//
// Layouts:
//
//   - Upper bands (Ā of matvec, Â of matmul): dst[i*w+d] = band[i][i+d],
//     d ∈ [0, w). Entries past the band's column count are zero.
//   - Lower bands (B̂ of matmul), packed by column so the matmul inner loop
//     over κ is stride-1 in both operands: dst[j*w+d] = band[j+d][j].
//   - Triangular lower bands (L of the solver array), packed by row over
//     descending column index: dst[i*w+d] = band[i][i−d].

// checkPack validates a destination buffer of n rows of w entries.
func checkPack(dst []float64, rows, w int) {
	if len(dst) != rows*w {
		panic(fmt.Sprintf("dbt: pack buffer len %d, want %d×%d=%d", len(dst), rows, w, rows*w))
	}
}

// PackBand writes Ā into dst (len n̄m̄w·w) in upper-band packed layout.
func (t *MatVec) PackBand(dst []float64) {
	packBandBlocks(dst, t.Grid, t.W, t.Blocks(), t.UpperIndex, t.LowerIndex)
}

// PackBand writes Ā into dst (len n̄m̄w·w) in upper-band packed layout.
func (t *MatVecByColumns) PackBand(dst []float64) {
	packBandBlocks(dst, t.Grid, t.W, t.Blocks(), t.UpperIndex, t.LowerIndex)
}

// packBandBlocks packs a DBT matvec band directly from the padded grid,
// block row by block row: band row kw+a holds Ū_k[a][a..w−1] on diagonals
// 0..w−1−a followed by L̄_k[a][0..a−1] on diagonals w−a..w−1 (both triangles
// read straight out of the padded matrix, no per-element dispatch). This is
// exactly what BandAt(i, i+d) returns, element for element.
func packBandBlocks(dst []float64, g *blockpart.Grid, w, blocks int, upper, lower func(k int) (r, s int)) {
	checkPack(dst, blocks*w, w)
	padded := g.Padded()
	for k := 0; k < blocks; k++ {
		ru, su := upper(k)
		rl, sl := lower(k)
		for a := 0; a < w; a++ {
			row := dst[(k*w+a)*w : (k*w+a+1)*w]
			up := padded.RawRow(ru*w + a)[su*w : (su+1)*w]
			copy(row, up[a:])
			if a > 0 {
				lo := padded.RawRow(rl*w + a)[sl*w : (sl+1)*w]
				copy(row[w-a:], lo[:a])
			}
		}
	}
}

// PackAHat writes Â into dst (len Dim·w) in upper-band packed layout. Â
// is the DBT-by-rows band of A repeated m̄ times plus the U′ tail, so the
// regular rows are one packBandBlocks over t.AT followed by m̄−1 copies of
// that span, and tail row a is row a of U_{0,0} from column a to w−2.
func (t *MatMul) PackAHat(dst []float64) {
	w := t.W
	checkPack(dst, t.Dim(), w)
	at := t.AT
	span := at.Blocks() * w * w
	packBandBlocks(dst[:span], at.Grid, w, at.Blocks(), at.UpperIndex, at.LowerIndex)
	for rep := 1; rep < t.MBar; rep++ {
		copy(dst[rep*span:(rep+1)*span], dst[:span])
	}
	tail := dst[t.MBar*span:]
	padded := at.Grid.Padded()
	for a := 0; a < w-1; a++ {
		row := tail[a*w : (a+1)*w]
		clear(row[copy(row, padded.RawRow(a)[a:w-1]):])
	}
}

// PackBHat writes B̂ into dst (len Dim·w) in lower-band by-column packed
// layout: dst[j*w+d] = B̂[j+d][j]. The padded B grid is first transposed
// into the transform's scratch (m̄w rows of p̄w), after which packed column
// b of B̂ block c — block q = c mod p̄ of B column block iB — is two
// contiguous runs of transposed row iB·w+b: rows b..w−1 of B_{q,iB}, then
// rows 0..b−1 of B_{(q+1) mod p̄, iB}. The p̄ blocks of one iB repeat n̄
// times, so each group is packed once and copied. The L′ tail column b is
// B_{0,0}'s column b from row b to w−2.
func (t *MatMul) PackBHat(dst []float64) {
	w := t.W
	checkPack(dst, t.Dim(), w)
	pw, mw := t.PBar*w, t.MBar*w
	t.bT = matrix.ReuseVec(t.bT, pw*mw)
	bt := t.bT
	src := t.BGrid.Padded().Raw()
	for i := 0; i < pw; i++ {
		for j, v := range src[i*mw : (i+1)*mw] {
			bt[j*pw+i] = v
		}
	}
	group := pw * w
	for iB := 0; iB < t.MBar; iB++ {
		g := dst[iB*t.NBar*group : (iB+1)*t.NBar*group]
		for q := 0; q < t.PBar; q++ {
			q1 := (q + 1) % t.PBar
			for b := 0; b < w; b++ {
				col := g[(q*w+b)*w : (q*w+b+1)*w]
				row := bt[(iB*w+b)*pw : (iB*w+b+1)*pw]
				n := copy(col, row[q*w+b:(q+1)*w])
				copy(col[n:], row[q1*w:q1*w+b])
			}
		}
		for r := 1; r < t.NBar; r++ {
			copy(g[r*group:(r+1)*group], g[:group])
		}
	}
	tail := dst[t.RegularBlocks()*w*w:]
	for b := 0; b < w-1; b++ {
		col := tail[b*w : (b+1)*w]
		clear(col[copy(col, bt[b*pw+b:b*pw+w-1]):])
	}
}

// PackTriBand writes the lower triangular band l (diagonals −(w−1)..0, the
// solver-array operand shape) into dst (len n·w) in triangular packed
// layout: dst[i*w+d] = l[i][i−d], zero where i−d < 0 or the diagonal is
// outside l's stored band. Row i's slot 0 is the main-diagonal divisor; the
// compiled trisolve plan (schedule.TriSolve) consumes slots w−1..1 in
// descending order, matching the solver array's leftward y movement.
func PackTriBand(l *matrix.Band, w int, dst []float64) {
	n := l.Rows()
	checkPack(dst, n, w)
	if l.Lo() == 1-w && l.Hi() == 0 {
		// l stores exactly the diagonals the pack wants, row-compact in
		// ascending diagonal order — the packed row is the storage row
		// reversed, and out-of-matrix slots are zero by Band's invariant
		// (RawRow), so no per-element band dispatch is needed.
		for i := 0; i < n; i++ {
			src := l.RawRow(i)
			row := dst[i*w : (i+1)*w]
			for d := range row {
				row[d] = src[w-1-d]
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		row := dst[i*w : (i+1)*w]
		for d := range row {
			if j := i - d; j >= 0 {
				row[d] = l.At(i, j)
			} else {
				row[d] = 0
			}
		}
	}
}
