package schedule

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// Init kinds of a product-band position's accumulator.
const (
	matmulZero     = 0 // starts at 0 (structurally absent init)
	matmulExt      = 1 // initIdx indexes the external init values (E pieces)
	matmulFeedback = 2 // initIdx is the flat output index of the source position
)

// DelayBin is one bucket of a feedback-delay histogram: Count edges with
// exactly Delay cycles between emit and inject. Histograms are canonical
// sorted-by-Delay slices (nil when empty) so the oracle and compiled
// engines compare with a plain DeepEqual and stats copies are a single
// allocation instead of a map rebuild.
type DelayBin struct {
	Delay, Count int
}

// BinsFromHistogram converts a delay→count map (the oracle's
// systolic.DelayHistogram shape) into the canonical sorted bin slice.
func BinsFromHistogram(h map[int]int) []DelayBin {
	if len(h) == 0 {
		return nil
	}
	bins := make([]DelayBin, 0, len(h))
	for d, c := range h {
		bins = append(bins, DelayBin{Delay: d, Count: c})
	}
	// slices.SortFunc, not sort.Slice: the oracle converts histograms per
	// solve, and sort.Slice's reflect-based swapper allocates.
	slices.SortFunc(bins, func(a, b DelayBin) int { return a.Delay - b.Delay })
	return bins
}

// BinCount returns the edge count recorded for delay in a bin slice — 0
// when the delay was never observed.
func BinCount(bins []DelayBin, delay int) int {
	for _, b := range bins {
		if b.Delay == delay {
			return b.Count
		}
	}
	return 0
}

// BinDelays returns the distinct delays of a histogram, already sorted.
func BinDelays(bins []DelayBin) []int {
	out := make([]int, len(bins))
	for i, b := range bins {
		out[i] = b.Delay
	}
	return out
}

// copyBins returns an independent copy of a bin slice (nil stays nil).
func copyBins(bins []DelayBin) []DelayBin {
	if bins == nil {
		return nil
	}
	return append([]DelayBin(nil), bins...)
}

// ExtInit locates the E-block element injected at one position: element
// (A, B) of triangular piece P of E block (R, S). The descriptors are
// shape-only; the values are data, gathered per pass by GatherExt through
// the compiled eSrc map (the oracle resolves the same element with
// dbt.MatMul.EPieceAt).
type ExtInit struct {
	R, S int
	P    dbt.Piece
	A, B int
}

// matmulOp is one compiled result position: an initialization plus a run of
// n stride-1 multiply–accumulates over the packed bands.
type matmulOp struct {
	out      int32 // flat output index ρ·(2w−1) + (γ−ρ) + w−1
	aOff     int32 // packed Â offset of the first term
	bOff     int32 // packed B̂ offset of the first term
	n        int32 // term count
	initKind uint8
	initIdx  int32
}

// MatMul is a compiled schedule for the w×w hexagonal array with spiral
// feedback: the complete accumulation plan of one DBT matrix–matrix problem
// of a given shape.
type MatMul struct {
	// W, NBar, PBar, MBar identify the shape; Dim = p̄n̄m̄w + w − 1 the band
	// matrix dimension; Band = 2w−1 the product band width.
	W, NBar, PBar, MBar int
	Dim, Band           int

	// T is the step count the array would measure; MACs the total PE
	// operation count (the oracle's Activity total).
	T, MACs int

	// regDelays and irrDelays are the feedback-delay histograms, split as
	// the paper does (§3), precomputed sorted at compile time — CopyDelays
	// hands out copies so the cached plan stays immutable.
	regDelays, irrDelays []DelayBin

	// ExtInits lists the E-piece descriptors in initIdx order.
	ExtInits []ExtInit

	ops []matmulOp

	// eSrc compiles ExtInits into padded E coordinates: ext[k] reads
	// E[eSrc[k].i][eSrc[k].j], or 0 when that cell is padding.
	eSrc []cell
	// cSrc compiles the C extraction: padded C element (i, j), row-major
	// over the n̄w × m̄w grid, is the output band entry o[cSrc[i·m̄w+j]].
	cSrc []int32
}

// cell is a padded matrix coordinate.
type cell struct{ i, j int32 }

// compileMatMul builds the schedule for the shape of t. Only shape methods
// of t are consulted (PieceAt, InitFor, PieceColOffset, CSource) — never
// data.
func compileMatMul(t *dbt.MatMul) *MatMul {
	w := t.W
	dim := t.Dim()
	band := 2*w - 1
	s := &MatMul{
		W: w, NBar: t.NBar, PBar: t.PBar, MBar: t.MBar,
		Dim: dim, Band: band,
		T: 3*(dim-1) + w + 1,
	}
	regular := make(map[int]int)
	irregular := make(map[int]int)

	// A c-item for result position (ρ, γ) enters the array at cycle
	// ρ+γ+max(ρ,γ) and accumulates Â[ρ][κ]·B̂[κ][γ] for κ increasing from
	// max(ρ,γ) to min(min(ρ,γ)+w−1, Dim−1) — one term per cycle — before
	// leaving at cycle ρ+γ+min(ρ,γ)+w−1 and becoming available one cycle
	// later. Dependencies (spiral feedback) always point at positions whose
	// availability precedes the consumer's entry, so sorting by entry cycle
	// is a topological order.
	type posOp struct {
		inject int
		op     matmulOp
	}
	ops := make([]posOp, 0, dim*band)
	flat := func(rho, gamma int) int32 { return int32(rho*band + gamma - rho + w - 1) }
	emitOf := func(rho, gamma int) int {
		lo := rho
		if gamma < lo {
			lo = gamma
		}
		return rho + gamma + lo + w
	}
	for rho := 0; rho < dim; rho++ {
		for f := -(w - 1); f <= w-1; f++ {
			gamma := rho + f
			if gamma < 0 || gamma >= dim {
				continue
			}
			k0 := rho
			if gamma > k0 {
				k0 = gamma
			}
			k1 := rho
			if gamma < k1 {
				k1 = gamma
			}
			k1 += w - 1
			if k1 >= dim {
				k1 = dim - 1
			}
			op := matmulOp{
				out:  flat(rho, gamma),
				aOff: int32(rho*w + k0 - rho),
				bOff: int32(gamma*w + k0 - gamma),
				n:    int32(k1 - k0 + 1),
			}
			inject := rho + gamma + k0
			blk, piece, la, lb := t.PieceAt(rho, gamma)
			switch init := t.InitFor(blk, piece); init.Kind {
			case dbt.InitE:
				op.initKind = matmulExt
				op.initIdx = int32(len(s.ExtInits))
				s.ExtInits = append(s.ExtInits, ExtInit{
					R: init.R, S: init.S, P: dbt.EPieceForInit(piece), A: la, B: lb,
				})
			case dbt.InitFeedback:
				srcRho := init.Row*w + la
				srcGamma := init.Row*w + t.PieceColOffset(init.Piece) + lb
				if srcRho < 0 || srcRho >= dim || srcGamma < 0 || srcGamma >= dim {
					panic(fmt.Sprintf("schedule: feedback source (%d,%d) outside band matrix %d", srcRho, srcGamma, dim))
				}
				emit := emitOf(srcRho, srcGamma)
				if emit > inject {
					panic(fmt.Sprintf("schedule: acausal matmul feedback (%d,%d)→(%d,%d): emit %d after inject %d",
						srcRho, srcGamma, rho, gamma, emit, inject))
				}
				op.initKind = matmulFeedback
				op.initIdx = flat(srcRho, srcGamma)
				if init.Irregular {
					irregular[inject-emit]++
				} else {
					regular[inject-emit]++
				}
			}
			s.MACs += int(op.n)
			ops = append(ops, posOp{inject, op})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].inject < ops[j].inject })
	s.ops = make([]matmulOp, len(ops))
	for i, p := range ops {
		s.ops[i] = p.op
	}
	s.regDelays = BinsFromHistogram(regular)
	s.irrDelays = BinsFromHistogram(irregular)
	s.eSrc = make([]cell, len(s.ExtInits))
	for k, ei := range s.ExtInits {
		if !ei.P.Contains(ei.A, ei.B) {
			panic(fmt.Sprintf("schedule: E init %+v outside its piece", ei))
		}
		s.eSrc[k] = cell{int32(ei.R*w + ei.A), int32(ei.S*w + ei.B)}
	}
	s.cSrc = compileCSource(t, flat)
	return s
}

// compileCSource maps every padded C element to the flat output band index
// holding its final value (dbt.MatMul.CSource per block and piece). The
// source piece of a C piece always shares its triangle shape, so one
// membership test per local position places it. Every padded element has
// exactly one source; compilation panics otherwise.
func compileCSource(t *dbt.MatMul, flat func(rho, gamma int) int32) []int32 {
	w, dim := t.W, t.Dim()
	pw := t.MBar * w
	src := make([]int32, t.NBar*w*pw)
	for i := range src {
		src[i] = -1
	}
	for r := 0; r < t.NBar; r++ {
		for iB := 0; iB < t.MBar; iB++ {
			for _, p := range dbt.CPieces {
				row, piece := t.CSource(r, iB, p)
				off := t.PieceColOffset(piece)
				for la := 0; la < w; la++ {
					for lb := 0; lb < w; lb++ {
						if !p.Contains(la, lb) {
							continue
						}
						rho, gamma := row*w+la, row*w+off+lb
						if rho >= dim || gamma < 0 || gamma >= dim {
							panic(fmt.Sprintf("schedule: C source (%d,%d) outside band matrix %d", rho, gamma, dim))
						}
						src[(r*w+la)*pw+iB*w+lb] = flat(rho, gamma)
					}
				}
			}
		}
	}
	if i := slices.Index(src, -1); i >= 0 {
		panic(fmt.Sprintf("schedule: padded C element (%d,%d) has no source", i/pw, i%pw))
	}
	return src
}

// GatherExt fills ext (len ≥ len(ExtInits)) with the E values the plan
// injects, read through the compiled padded-coordinate map; e == nil means
// zero E. e may be any shape up to the padded n̄w × m̄w grid: cells past
// its real dims are padding and read 0.
func (s *MatMul) GatherExt(ext []float64, e *matrix.Dense) {
	ext = ext[:len(s.eSrc)]
	if e == nil {
		clear(ext)
		return
	}
	rows, cols, raw := e.Rows(), e.Cols(), e.Raw()
	for k, c := range s.eSrc {
		v := 0.0
		if int(c.i) < rows && int(c.j) < cols {
			v = raw[int(c.i)*cols+int(c.j)]
		}
		ext[k] = v
	}
}

// ScatterC writes C from an output band filled by Exec into dst, which may
// be any shape up to the padded n̄w × m̄w grid; every element of dst is
// overwritten, so it needs no pre-zeroing.
func (s *MatMul) ScatterC(dst *matrix.Dense, o []float64) {
	pw := s.MBar * s.W
	rows, cols := dst.Rows(), dst.Cols()
	if rows > s.NBar*s.W || cols > pw {
		panic(fmt.Sprintf("schedule: ScatterC dst %d×%d exceeds padded %d×%d", rows, cols, s.NBar*s.W, pw))
	}
	o = o[:s.OLen()]
	for i := 0; i < rows; i++ {
		row := dst.RawRow(i)
		for j, idx := range s.cSrc[i*pw : i*pw+cols] {
			row[j] = o[idx]
		}
	}
}

// OLen returns the length of the flat output band buffer: Dim·(2w−1).
func (s *MatMul) OLen() int { return s.Dim * s.Band }

// Exec runs the compiled schedule over one problem's data. aPack/bPack are
// the packed bands (dbt.PackAHat/PackBHat layouts, len Dim·w), ext the
// resolved E-piece values aligned with ExtInits (nil allowed when empty),
// and o the output band buffer (len ≥ OLen). Exec performs no allocation;
// each position is one contiguous run of both packed bands accumulated in
// increasing-κ (cycle) order from the same initialization the array would
// inject, so results are bit-identical to the structural simulator.
func (s *MatMul) Exec(aPack, bPack, ext, o []float64) {
	if len(aPack) < s.Dim*s.W || len(bPack) < s.Dim*s.W || len(o) < s.OLen() || len(ext) < len(s.ExtInits) {
		panic(fmt.Sprintf("schedule: Exec buffer sizes a=%d b=%d ext=%d o=%d for dim=%d w=%d ext=%d",
			len(aPack), len(bPack), len(ext), len(o), s.Dim, s.W, len(s.ExtInits)))
	}
	for i := range s.ops {
		op := &s.ops[i]
		var v float64
		switch op.initKind {
		case matmulExt:
			v = ext[op.initIdx]
		case matmulFeedback:
			v = o[op.initIdx]
		}
		as := aPack[op.aOff : op.aOff+op.n]
		bs := bPack[op.bOff : op.bOff+op.n]
		// Re-slice so the range body is provably in bounds for both runs.
		bs = bs[:len(as)]
		for k, a := range as {
			v += a * bs[k]
		}
		o[op.out] = v
	}
}

// Bytes returns the resident size of the compiled descriptors — the memory
// the plan cache pays per shape.
func (s *MatMul) Bytes() int {
	return len(s.ops)*20 + len(s.ExtInits)*40 + len(s.eSrc)*8 + len(s.cSrc)*4 +
		(len(s.regDelays)+len(s.irrDelays))*16
}

// Utilization returns MACs/(w²·T) over the measured operation count.
func (s *MatMul) Utilization() float64 {
	if s.T == 0 {
		return 0
	}
	return float64(s.MACs) / (float64(s.W*s.W) * float64(s.T))
}

// CopyDelays returns independent copies of the precomputed sorted delay
// histograms (callers may mutate their stats; the cached schedule must stay
// immutable). One small slice copy each — the former per-call map rebuild
// was the last allocation on the hex stats path.
func (s *MatMul) CopyDelays() (regular, irregular []DelayBin) {
	return copyBins(s.regDelays), copyBins(s.irrDelays)
}
