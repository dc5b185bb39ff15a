package solve

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// diagonallyDominant builds a strictly diagonally dominant n×n system.
func diagonallyDominant(rng *rand.Rand, n int) (*matrix.Dense, matrix.Vector) {
	a := matrix.RandomDense(rng, n, n, 3)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, rowSum+1+float64(rng.Intn(3)))
	}
	d := matrix.RandomVector(rng, n, 5)
	return a, d
}

func TestJacobiConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{3, 7, 12} {
		a, d := diagonallyDominant(rng, n)
		x, stats, err := Jacobi(a, d, 3, 500, 1e-10, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v (residual %g after %d sweeps)", n, err, stats.Residual, stats.Sweeps)
		}
		if got := a.MulVec(x, nil); !got.Equal(d, 1e-8) {
			t.Errorf("n=%d: residual too large", n)
		}
		if stats.ArraySteps == 0 {
			t.Errorf("n=%d: no array work recorded", n)
		}
	}
}

func TestGaussSeidelConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{3, 8, 13} {
		a, d := diagonallyDominant(rng, n)
		x, stats, err := GaussSeidel(a, d, 3, 500, 1e-10, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := a.MulVec(x, nil); !got.Equal(d, 1e-8) {
			t.Errorf("n=%d: residual too large", n)
		}
		if stats.Sweeps == 0 || stats.ArraySteps == 0 {
			t.Errorf("n=%d: stats not recorded: %+v", n, stats)
		}
	}
}

// TestGaussSeidelFasterThanJacobi: on the same system, Gauss–Seidel needs
// no more sweeps than Jacobi (classical result; here a sanity check that
// the block updates really use fresh values).
func TestGaussSeidelFasterThanJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a, d := diagonallyDominant(rng, 12)
	_, js, err := Jacobi(a, d, 3, 1000, 1e-10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gs, err := GaussSeidel(a, d, 3, 1000, 1e-10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gs.Sweeps > js.Sweeps {
		t.Errorf("Gauss-Seidel %d sweeps vs Jacobi %d", gs.Sweeps, js.Sweeps)
	}
}

func TestJacobiNoConvergence(t *testing.T) {
	// A non-dominant rotation-like system that Jacobi cannot solve in 3 sweeps.
	a := matrix.FromRows([][]float64{{1, 2}, {3, 1}})
	d := matrix.Vector{1, 1}
	_, _, err := Jacobi(a, d, 2, 3, 1e-12, Options{})
	if err == nil {
		t.Error("expected ErrNoConvergence")
	}
}

func TestLowerTriangularSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, n := range []int{1, 4, 9, 14} {
		l := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, float64(rng.Intn(9)-4))
			}
			l.Set(i, i, float64(1+rng.Intn(4)))
		}
		want := matrix.RandomVector(rng, n, 4)
		d := l.MulVec(want, nil)
		y, stats, err := LowerTriangularSolve(l, d, 3, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !y.Equal(want, 1e-9) {
			t.Errorf("n=%d: wrong solution (off by %g)", n, y.MaxAbsDiff(want))
		}
		if n > 3 && stats.ArraySteps == 0 {
			t.Errorf("n=%d: off-diagonal work did not use the array", n)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	a := matrix.NewDense(2, 3)
	if _, _, err := Jacobi(a, make(matrix.Vector, 2), 2, 5, 1e-6, Options{}); err == nil {
		t.Error("expected non-square error")
	}
	sq := matrix.FromRows([][]float64{{0, 1}, {1, 1}})
	if _, _, err := Jacobi(sq, make(matrix.Vector, 2), 2, 5, 1e-6, Options{}); err == nil {
		t.Error("expected zero-diagonal error")
	}
	if _, _, err := GaussSeidel(a, make(matrix.Vector, 2), 2, 5, 1e-6, Options{}); err == nil {
		t.Error("expected non-square error")
	}
	notL := matrix.FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := LowerTriangularSolve(notL, make(matrix.Vector, 2), 2, Options{}); err == nil {
		t.Error("expected not-lower-triangular error")
	}
	sing := matrix.FromRows([][]float64{{1, 0}, {1, 0}})
	_, _, err := LowerTriangularSolve(sing, make(matrix.Vector, 2), 2, Options{})
	if !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	var serr *SingularError
	if !errors.As(err, &serr) || serr.Index != 1 {
		t.Errorf("err = %#v, want a *SingularError at pivot 1", err)
	}
}

// TestNonFiniteNeverMeasuresSmall pins the NaN-propagating ∞-norm: a
// solve or iteration whose answer went non-finite must not report a
// residual of 0 or claim convergence. Before the norm propagated NaN,
// `if v > norm` skipped every NaN term, so each case below returned
// err=nil with Residual=0 (and the refined solve Converged:true).
func TestNonFiniteNeverMeasuresSmall(t *testing.T) {
	tiny := matrix.FromRows([][]float64{{1e-320, 1}, {1, 1}})
	d := matrix.Vector{1, 2}

	x, stats, err := Solve(tiny, d, 2, Options{})
	if err == nil && !math.IsNaN(stats.Residual) {
		t.Errorf("subnormal pivot: x=%v Residual=%v err=nil, want a NaN residual or an error", x, stats.Residual)
	}

	_, _, err = Solve(tiny, d, 2, Options{Refine: RefineOptions{MaxIters: 3}})
	var cerr *IllConditionedError
	if !errors.As(err, &cerr) {
		t.Errorf("refined subnormal pivot: err=%v, want *IllConditionedError", err)
	} else if cerr.Report.Converged {
		t.Errorf("refined subnormal pivot reported convergence: %+v", cerr.Report)
	}

	div := matrix.FromRows([][]float64{{1, 3, 3}, {3, 1, 3}, {3, 3, 1}})
	ones := matrix.Vector{1, 1, 1}
	for name, iterate := range map[string]func() (matrix.Vector, *IterStats, error){
		"Jacobi":      func() (matrix.Vector, *IterStats, error) { return Jacobi(div, ones, 2, 400, 1e-10, Options{}) },
		"GaussSeidel": func() (matrix.Vector, *IterStats, error) { return GaussSeidel(div, ones, 2, 400, 1e-10, Options{}) },
	} {
		x, stats, err := iterate()
		if !errors.Is(err, ErrNoConvergence) {
			t.Errorf("%s on a divergent system: x=%v Residual=%v err=%v, want ErrNoConvergence", name, x, stats.Residual, err)
		}
	}
}
