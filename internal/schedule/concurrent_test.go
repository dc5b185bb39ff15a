package schedule

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dbt"
	"repro/internal/matrix"
)

// These tests pin the plan cache's concurrency contract now that passes
// replay in parallel inside one solve: many goroutines resolving the same
// shape must all get usable (and eventually shared) plans, and a plan held
// by a replaying goroutine must stay valid while the bounded cache rotates
// underneath it. Run with -race (CI does).

// TestPlanCacheConcurrentSameShape: hammer one shape from many goroutines,
// replaying each resolved plan and checking the numeric result every time.
func TestPlanCacheConcurrentSameShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const w, nm = 3, 4
	a := matrix.RandomDense(rng, nm*w, w, 5)
	x := matrix.RandomVector(rng, w, 5)
	want := a.MulVec(x, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := dbt.NewMatVec(a, w)
			band := make([]float64, tr.BandRows()*w)
			tr.PackBand(band)
			xbar := tr.TransformX(x)
			for i := 0; i < 200; i++ {
				sch, err := MatVecFor(tr, false)
				if err != nil {
					t.Error(err)
					return
				}
				y := make([]float64, sch.Rows)
				b := make([]float64, sch.BLen)
				sch.Exec(band, xbar, b, y)
				got := tr.RecoverYFlat(make(matrix.Vector, tr.N), y)
				if !got.Equal(want, 0) {
					t.Error("concurrent replay produced a wrong result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCacheEvictionWhileInUse: push the bounded cache past its cap
// (forcing the drop-and-rebuild rotation) while other goroutines keep
// replaying plans they resolved before the rotation. Plans are immutable,
// so a rotated-out plan must keep replaying correctly, and re-resolving
// its shape must still work.
func TestPlanCacheEvictionWhileInUse(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the plan cache past its bound")
	}
	const w = 2
	held := TriSolveFor(5, w)
	lband := []float64{2, 0, 1, 3, 1, 1, 2, 1, 1, 2}
	b := []float64{2, 4, 3, 5, 4}
	x := make([]float64, 5)
	held.Exec(lband, b, x)
	want := append([]float64(nil), x...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				held.Exec(lband, b, x2(len(b)))
				if got := TriSolveFor(5, w); got.T != held.T || got.N != held.N {
					t.Error("re-resolved plan disagrees with the held one")
					return
				}
			}
		}()
	}
	// Rotate the cache at least twice over.
	for n := 10; n < 10+2*maxCached+10; n++ {
		TriSolveFor(n, w)
	}
	close(stop)
	wg.Wait()

	held.Exec(lband, b, x)
	for i := range x {
		if x[i] != want[i] {
			t.Fatal("held plan changed behavior after eviction")
		}
	}
}

// x2 allocates a fresh output buffer (keeps the hammer goroutines honest
// about not sharing output state).
func x2(n int) []float64 { return make([]float64, n) }

// TestPlanCacheSharesPlans: a repeated shape gets the same immutable plan
// instance back from the global cache, for every shape-keyed workload —
// including through a distinct transform of the same shape.
func TestPlanCacheSharesPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := matrix.RandomDense(rng, 6, 4, 3)
	first, err := MatVecFor(dbt.NewMatVec(a, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MatVecFor(dbt.NewMatVec(matrix.RandomDense(rng, 6, 4, 3), 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("matvec cache failed to hit on a repeated shape")
	}
	if TriSolveFor(7, 3) != TriSolveFor(7, 3) {
		t.Error("trisolve cache failed to hit on a repeated shape")
	}
	am := matrix.RandomDense(rng, 4, 4, 3)
	bm := matrix.RandomDense(rng, 4, 4, 3)
	if MatMulFor(dbt.NewMatMul(am, bm, 2)) != MatMulFor(dbt.NewMatMul(bm, am, 2)) {
		t.Error("matmul cache failed to hit on a repeated shape")
	}
}

// TestPlanCacheHitZeroAlloc pins the premise that lets every compiled path
// resolve its plan straight from the process-wide caches: a warm hit on
// each of the four caches allocates nothing (the generic cache's sync.Map
// lookup does not box the struct key).
func TestPlanCacheHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	rng := rand.New(rand.NewSource(11))
	mv := dbt.NewMatVec(matrix.RandomDense(rng, 12, 8, 3), 4)
	mm := dbt.NewMatMul(matrix.RandomDense(rng, 8, 8, 3), matrix.RandomDense(rng, 8, 8, 3), 4)
	pat := [][]int{{0, 2}, {1}, {}}
	warm := func() {
		if _, err := MatVecFor(mv, false); err != nil {
			t.Fatal(err)
		}
		MatMulFor(mm)
		TriSolveFor(9, 4)
		if _, err := SparseMatVecFor(4, 3, 3, pat); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	for _, c := range []struct {
		name string
		hit  func()
	}{
		{"MatVecFor", func() { MatVecFor(mv, false) }},
		{"MatMulFor", func() { MatMulFor(mm) }},
		{"TriSolveFor", func() { TriSolveFor(9, 4) }},
		{"SparseMatVecFor", func() { SparseMatVecFor(4, 3, 3, pat) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.hit); allocs != 0 {
			t.Errorf("warm %s hit allocates %v objects/op, want 0", c.name, allocs)
		}
	}
}
