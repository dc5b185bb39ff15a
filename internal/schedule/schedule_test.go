package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// mustMatVecFor compiles a schedule for a transform that is known valid.
func mustMatVecFor(t *testing.T, tr dbt.Transform, overlap bool) *MatVec {
	t.Helper()
	s, err := MatVecFor(tr, overlap)
	if err != nil {
		t.Fatalf("MatVecFor: %v", err)
	}
	return s
}

// TestCacheReusesShapes: same shape → same cached schedule object; distinct
// shape, variant or overlap → distinct schedules.
func TestCacheReusesShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a1 := matrix.RandomDense(rng, 6, 9, 3)
	a2 := matrix.RandomDense(rng, 6, 9, 5) // same shape, different data
	a3 := matrix.RandomDense(rng, 9, 9, 3) // different shape
	s1 := mustMatVecFor(t, dbt.NewMatVec(a1, 3), false)
	s2 := mustMatVecFor(t, dbt.NewMatVec(a2, 3), false)
	s3 := mustMatVecFor(t, dbt.NewMatVec(a3, 3), false)
	if s1 != s2 {
		t.Fatal("same shape should share one compiled schedule")
	}
	if s1 == s3 {
		t.Fatal("different shapes must not share a schedule")
	}
	if mustMatVecFor(t, dbt.NewMatVec(a1, 3), true) == s1 {
		t.Fatal("overlap schedules must be distinct")
	}
	if mustMatVecFor(t, dbt.NewMatVecByColumns(a1, 3), false) == s1 {
		t.Fatal("by-columns schedules must be distinct")
	}

	b1 := matrix.RandomDense(rng, 9, 6, 3)
	m1 := MatMulFor(dbt.NewMatMul(a1, b1, 3))
	m2 := MatMulFor(dbt.NewMatMul(a2, b1, 3))
	if m1 != m2 {
		t.Fatal("same matmul shape should share one compiled schedule")
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race this checks the compile-once path and the reset are safe.
func TestCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var as []*matrix.Dense
	for i := 0; i < 8; i++ {
		as = append(as, matrix.RandomDense(rng, 2+rng.Intn(8), 2+rng.Intn(8), 3))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := as[(g+i)%len(as)]
				w := 1 + (g+i)%4
				sch, err := MatVecFor(dbt.NewMatVec(a, w), false)
				if err != nil {
					t.Errorf("MatVecFor: %v", err)
					return
				}
				if sch.W != w {
					t.Errorf("schedule w=%d, want %d", sch.W, w)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatVecExecAgainstBlockRecurrence checks the compiled execution against
// the package-independent mathematical reference.
func TestMatVecExecAgainstBlockRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 10; trial++ {
			n := 1 + rng.Intn(4*w)
			m := 1 + rng.Intn(4*w)
			a := matrix.RandomDense(rng, n, m, 5)
			x := matrix.RandomVector(rng, m, 5)
			b := matrix.RandomVector(rng, n, 5)
			tr := dbt.NewMatVec(a, w)
			sch := mustMatVecFor(t, tr, false)
			band := make([]float64, sch.Rows*w)
			tr.PackBand(band)
			y := make([]float64, sch.Rows)
			sch.Exec(band, tr.TransformX(x), b.Pad(sch.BLen), y)
			want := tr.BlockRecurrence(x, b)
			for k, blk := range want {
				for i, v := range blk {
					if y[k*w+i] != v {
						t.Fatalf("w=%d n=%d m=%d: ȳ_%d[%d] = %g, want %g", w, n, m, k, i, y[k*w+i], v)
					}
				}
			}
		}
	}
}

// TestMatMulExecAgainstReferenceRun checks the compiled matmul execution
// against dbt's block-level reference (including E and feedback chaining),
// and the compiled E gather and C scatter against EPieceAt and the
// reference C.
func TestMatMulExecAgainstReferenceRun(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, w := range []int{1, 2, 3} {
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(3*w)
			p := 1 + rng.Intn(3*w)
			m := 1 + rng.Intn(3*w)
			a := matrix.RandomDense(rng, n, p, 4)
			b := matrix.RandomDense(rng, p, m, 4)
			var e *matrix.Dense
			if trial%2 == 0 {
				e = matrix.RandomDense(rng, n, m, 4)
			}
			tr := dbt.NewMatMul(a, b, w)
			sch := MatMulFor(tr)
			aPack := make([]float64, sch.Dim*w)
			bPack := make([]float64, sch.Dim*w)
			tr.PackAHat(aPack)
			tr.PackBHat(bPack)
			ext := make([]float64, len(sch.ExtInits))
			sch.GatherExt(ext, e)
			for i, ei := range sch.ExtInits {
				if want := tr.EPieceAt(e, ei.R, ei.S, ei.P, ei.A, ei.B); ext[i] != want {
					t.Fatalf("w=%d %d×%d·%d×%d (E=%v): ext[%d] = %g, EPieceAt %g", w, n, p, p, m, e != nil, i, ext[i], want)
				}
			}
			o := make([]float64, sch.OLen())
			sch.Exec(aPack, bPack, ext, o)
			rec, c := tr.ReferenceRun(e)
			dst := matrix.NewDense(n, m)
			sch.ScatterC(dst, o)
			if !dst.Equal(c, 0) {
				t.Fatalf("w=%d %d×%d·%d×%d (E=%v): ScatterC differs from the reference C by %g", w, n, p, p, m, e != nil, dst.MaxAbsDiff(c))
			}
			for rho := 0; rho < sch.Dim; rho++ {
				for f := -(w - 1); f <= w-1; f++ {
					gamma := rho + f
					if gamma < 0 || gamma >= sch.Dim {
						continue
					}
					k, piece, la, lb := tr.PieceAt(rho, gamma)
					if got, want := o[rho*sch.Band+f+w-1], rec.At(k, piece, la, lb); got != want {
						t.Fatalf("w=%d %d×%d·%d×%d (E=%v): O[%d][%d] = %g, reference %g",
							w, n, p, p, m, e != nil, rho, gamma, got, want)
					}
				}
			}
		}
	}
}

// TestPackedBandsMatchReaders: the packed exporters must agree element for
// element with the closure readers they replace, including the zero slots
// past the band matrix in the matmul tail rows. The matmul shapes cover
// p̄, m̄ ≥ 2 (the (q+1) mod p̄ wrap and the n̄-fold group copies), exact
// and ragged dims, and single-block grids.
func TestPackedBandsMatchReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range []int{1, 2, 3, 4, 8} {
		a := matrix.RandomDense(rng, 3*w+1, 2*w+1, 5)
		for _, tr := range []dbt.Transform{dbt.NewMatVec(a, w), dbt.NewMatVecByColumns(a, w)} {
			band := make([]float64, tr.BandRows()*w)
			tr.PackBand(band)
			for i := 0; i < tr.BandRows(); i++ {
				for d := 0; d < w; d++ {
					want := 0.0
					if j := i + d; j < tr.BandCols() {
						want = tr.BandAt(i, j)
					}
					if band[i*w+d] != want {
						t.Fatalf("w=%d row %d diag %d: packed %g, reader %g", w, i, d, band[i*w+d], want)
					}
				}
			}
		}
		shapes := [][3]int{
			{3*w + 1, 2*w + 1, 3*w + 1}, // n̄=4 p̄=3 m̄=4, ragged
			{2 * w, 2 * w, 2 * w},       // exact, p̄ = m̄ = 2
			{3*w - 1, w, w},             // trailing-tile shape: p̄ = m̄ = 1
			{w, 3 * w, 2*w - 1},         // n̄ = 1
			{1, 1, 1},
		}
		mm := &dbt.MatMul{} // reused across shapes, as the arenas do
		for _, sh := range shapes {
			am := matrix.RandomDense(rng, sh[0], sh[1], 5)
			bm := matrix.RandomDense(rng, sh[1], sh[2], 5)
			mm.Reset(am, bm, w)
			dim := mm.Dim()
			aPack := make([]float64, dim*w)
			bPack := make([]float64, dim*w)
			for i := range aPack {
				aPack[i], bPack[i] = 99, 99 // stale contents must be overwritten
			}
			mm.PackAHat(aPack)
			mm.PackBHat(bPack)
			for i := 0; i < dim; i++ {
				for d := 0; d < w; d++ {
					wantA, wantB := 0.0, 0.0
					if j := i + d; j < dim {
						wantA, wantB = mm.AHatAt(i, j), mm.BHatAt(j, i)
					}
					if aPack[i*w+d] != wantA {
						t.Fatalf("Â w=%d shape %v (%d,+%d): packed %g, reader %g", w, sh, i, d, aPack[i*w+d], wantA)
					}
					if bPack[i*w+d] != wantB {
						t.Fatalf("B̂ w=%d shape %v (+%d,%d): packed %g, reader %g", w, sh, d, i, bPack[i*w+d], wantB)
					}
				}
			}
		}
	}
}

// brokenTransform wraps a valid transform with a failing Validate — the
// shape an external Transform implementation with a pairing bug would take.
type brokenTransform struct{ dbt.Transform }

func (brokenTransform) Validate() error { return errBroken }

var errBroken = fmt.Errorf("broken pairing")

// TestInvalidTransformErrors: a transform failing §2 validation must come
// back as an error from the compiled path (matching the structural path),
// not a panic.
func TestInvalidTransformErrors(t *testing.T) {
	a := matrix.RandomDense(rand.New(rand.NewSource(6)), 6, 6, 3)
	if _, err := MatVecFor(brokenTransform{dbt.NewMatVec(a, 3)}, false); err != errBroken {
		t.Fatalf("want errBroken, got %v", err)
	}
}

// TestOverlapSplitBoundary: the split must sit at a row band boundary so no
// feedback chain crosses programs.
func TestOverlapSplitBoundary(t *testing.T) {
	for nbar := 2; nbar <= 7; nbar++ {
		for mbar := 1; mbar <= 7; mbar++ {
			h := OverlapSplit(nbar, mbar)
			if h%mbar != 0 {
				t.Fatalf("split %d not at a chain boundary for n̄=%d m̄=%d", h, nbar, mbar)
			}
			if h <= 0 || h >= nbar*mbar {
				t.Fatalf("split %d outside (0,%d)", h, nbar*mbar)
			}
		}
	}
}

// TestTriSolvePlan: the compiled trisolve plan's analytic accounting (T,
// MACs, per-PE activity) and cache identity.
func TestTriSolvePlan(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{0, 1, 2, w, 2*w + 1, 17} {
			s := TriSolveFor(n, w)
			if s.W != w || s.N != n {
				t.Fatalf("shape (%d,%d) compiled as (%d,%d)", n, w, s.N, s.W)
			}
			if n == 0 {
				if s.T != 0 || s.MACs != 0 || s.Divisions != 0 {
					t.Fatalf("n=0: non-empty plan %+v", s)
				}
				continue
			}
			if want := 2*n + w - 2; s.T != want {
				t.Fatalf("n=%d w=%d: T=%d, want %d", n, w, s.T, want)
			}
			if s.Divisions != n {
				t.Fatalf("n=%d w=%d: divisions %d", n, w, s.Divisions)
			}
			act := s.Activity()
			if act.MACs[0] != n || act.Cycles != s.T {
				t.Fatalf("n=%d w=%d: activity %+v", n, w, act)
			}
			total := 0
			for d := 1; d < w; d++ {
				want := n - d
				if want < 0 {
					want = 0
				}
				if act.MACs[d] != want {
					t.Fatalf("n=%d w=%d PE %d: %d MACs, want %d", n, w, d, act.MACs[d], want)
				}
				total += act.MACs[d]
			}
			if s.MACs != total {
				t.Fatalf("n=%d w=%d: MACs %d vs per-PE sum %d", n, w, s.MACs, total)
			}
			if s.Utilization() <= 0 || s.Utilization() > 1 {
				t.Fatalf("n=%d w=%d: utilization %g out of range", n, w, s.Utilization())
			}
			if TriSolveFor(n, w) != s {
				t.Fatalf("n=%d w=%d: same shape should share one compiled plan", n, w)
			}
		}
	}
}

// TestTriSolveExecAgainstSubstitution checks the compiled execution against
// plain forward substitution (exact: small-integer data).
func TestTriSolveExecAgainstSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(4*w)
			l := matrix.NewBand(n, n, -(w - 1), 0)
			for i := 0; i < n; i++ {
				for d := 1; d < w; d++ {
					if j := i - d; j >= 0 {
						l.Set(i, j, float64(rng.Intn(5)-2))
					}
				}
				l.Set(i, i, float64(1+rng.Intn(3)))
			}
			b := matrix.RandomVector(rng, n, 5)
			s := TriSolveFor(n, w)
			lband := make([]float64, n*w)
			dbt.PackTriBand(l, w, lband)
			x := make([]float64, n)
			s.Exec(lband, b, x)
			for i := 0; i < n; i++ {
				v := 0.0
				for d := w - 1; d >= 1; d-- {
					if j := i - d; j >= 0 {
						v += l.At(i, j) * x[j]
					}
				}
				if want := (b[i] - v) / l.At(i, i); x[i] != want {
					t.Fatalf("w=%d n=%d: x[%d] = %g, want %g", w, n, i, x[i], want)
				}
			}
		}
	}
}

// TestUnsupportedWorkloadError: Unsupported errors must match
// ErrUnsupported via errors.Is and carry the workload name.
func TestUnsupportedWorkloadError(t *testing.T) {
	err := Unsupported(WorkloadSparseMatVec, "pattern-dependent schedule")
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("errors.Is(ErrUnsupported) = false for %v", err)
	}
	if !strings.Contains(err.Error(), string(WorkloadSparseMatVec)) {
		t.Fatalf("error %q does not name the workload", err)
	}
}
