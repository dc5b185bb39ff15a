package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// raggedDims returns distinct dimensions that all round up to nb blocks of
// w: the exact multiple first, then shorter ones, so a reused arena sees
// its buffers shrink with stale contents left behind.
func raggedDims(nb, w int) []int {
	dims := []int{nb * w}
	for _, d := range []int{nb*w - 1, (nb-1)*w + 1} {
		if d > (nb-1)*w && d != dims[len(dims)-1] {
			dims = append(dims, d)
		}
	}
	return dims
}

// TestMatMulPassRaggedSharedPlan: ragged shapes sharing one plan key
// (same w, n̄, p̄, m̄, different exact dims) replayed back to back on one
// arena. The compiled E gather and C scatter are taken in padded
// coordinates and bounds-tested against the real dims, so every pass must
// match the oracle bit for bit with equal T, with E present or nil, and
// must overwrite every element of a NaN-filled dst.
func TestMatMulPassRaggedSharedPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	blocks := [][3]int{{1, 1, 1}, {2, 2, 1}, {1, 2, 2}, {2, 1, 2}, {2, 2, 2}}
	for _, w := range []int{1, 3, 4, 8} {
		ar := NewArena()
		for _, bl := range blocks {
			nb, pb, mb := bl[0], bl[1], bl[2]
			for _, n := range raggedDims(nb, w) {
				for _, p := range raggedDims(pb, w) {
					for _, m := range raggedDims(mb, w) {
						a := matrix.RandomDense(rng, n, p, 4)
						b := matrix.RandomDense(rng, p, m, 4)
						for _, withE := range []bool{true, false} {
							var e *matrix.Dense
							if withE {
								e = matrix.RandomDense(rng, n, m, 4)
							}
							ctx := fmt.Sprintf("w=%d %d×%d·%d×%d E=%v", w, n, p, p, m, withE)
							want, err := NewMatMulSolver(w).Solve(a, b, MatMulOptions{E: e, Engine: EngineOracle})
							if err != nil {
								t.Fatalf("%s: oracle: %v", ctx, err)
							}
							ar.Reset()
							dst := ar.Dense(n, m)
							for i := range dst.Raw() {
								dst.Raw()[i] = math.NaN()
							}
							steps, err := ar.MatMulPass(dst, a, b, e, w, EngineCompiled)
							if err != nil {
								t.Fatalf("%s: %v", ctx, err)
							}
							if !dst.Equal(want.C, 0) {
								t.Fatalf("%s: compiled pass differs from the oracle by %g", ctx, dst.MaxAbsDiff(want.C))
							}
							if steps != want.Stats.T {
								t.Fatalf("%s: T=%d, oracle T=%d", ctx, steps, want.Stats.T)
							}
						}
						if tr := dbt.NewMatMul(a, b, w); tr.NBar != nb || tr.PBar != pb || tr.MBar != mb {
							t.Fatalf("w=%d %d×%d·%d×%d: grid %d×%d×%d, want the shared key %d×%d×%d", w, n, p, p, m, tr.NBar, tr.PBar, tr.MBar, nb, pb, mb)
						}
					}
				}
			}
		}
	}
}

// TestMatMulPassZeroAllocRagged pins the warm compiled MatMulPass at 0
// allocs/op with E present, alternating two ragged shapes of one plan key
// (a trailing-tile shape: p̄ = m̄ = 1, n̄ = 4).
func TestMatMulPassZeroAllocRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const w = 4
	type pass struct{ dst, a, b, e *matrix.Dense }
	var passes []pass
	for _, n := range []int{4*w - 1, 4*w - 3} {
		m := w - 1
		passes = append(passes, pass{
			dst: matrix.NewDense(n, m),
			a:   matrix.RandomDense(rng, n, w, 4),
			b:   matrix.RandomDense(rng, w, m, 4),
			e:   matrix.RandomDense(rng, n, m, 4),
		})
	}
	ar := NewArena()
	run := func() {
		for _, p := range passes {
			ar.Reset()
			if _, err := ar.MatMulPass(p.dst, p.a, p.b, p.e, w, EngineCompiled); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm ragged MatMulPass: %v allocs/op, want 0", allocs)
	}
}
