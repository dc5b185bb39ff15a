package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/matrix"
)

// TestExecutorRunsEveryTask: every submitted task runs exactly once before
// Barrier returns, across several steps, and worker indices stay in range.
func TestExecutorRunsEveryTask(t *testing.T) {
	ex := NewExecutor(3)
	defer ex.Close()
	if ex.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", ex.Workers())
	}
	for step := 0; step < 5; step++ {
		const tasks = 17
		var ran [tasks]atomic.Int32
		for i := 0; i < tasks; i++ {
			i := i
			ex.Submit(func(worker int, ar *Arena) {
				if worker < 0 || worker >= 3 {
					t.Errorf("worker index %d out of range", worker)
				}
				if ar == nil {
					t.Error("nil arena")
				}
				ran[i].Add(1)
			})
		}
		ex.Barrier()
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("step %d task %d ran %d times", step, i, got)
			}
		}
	}
}

// TestExecutorArenaIsolation: each array keeps its own arena across tasks
// (same pointer per worker, different pointers across workers).
func TestExecutorArenaIsolation(t *testing.T) {
	const workers = 4
	ex := NewExecutor(workers)
	defer ex.Close()
	var seen [workers]atomic.Pointer[Arena]
	for i := 0; i < 64; i++ {
		ex.Submit(func(worker int, ar *Arena) {
			if old := seen[worker].Swap(ar); old != nil && old != ar {
				t.Errorf("worker %d switched arenas", worker)
			}
		})
	}
	ex.Barrier()
	ptrs := map[*Arena]bool{}
	for w := range seen {
		if p := seen[w].Load(); p != nil {
			if ptrs[p] {
				t.Fatal("two workers share one arena")
			}
			ptrs[p] = true
		}
	}
}

// TestExecutorDefaultWorkers: workers < 1 sizes the pool to GOMAXPROCS.
func TestExecutorDefaultWorkers(t *testing.T) {
	ex := NewExecutor(0)
	defer ex.Close()
	if ex.Workers() < 1 {
		t.Fatalf("Workers() = %d", ex.Workers())
	}
}

// TestArenaPassesMatchSolvers: the arena pass API must be bit-identical to
// the public solvers on both engines — values and step counts — and the
// two engines must agree with each other, shape by shape.
func TestArenaPassesMatchSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewArena()
	for trial := 0; trial < 40; trial++ {
		w := 1 + rng.Intn(4)
		n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
		a := matrix.RandomDense(rng, n, m, 5)
		x := matrix.RandomVector(rng, m, 5)
		b := matrix.RandomVector(rng, n, 5)
		if rng.Intn(3) == 0 {
			b = nil
		}
		ref, err := NewMatVecSolver(w).Solve(a, x, b, MatVecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var prev matrix.Vector
		for _, eng := range []Engine{EngineCompiled, EngineOracle} {
			ar.Reset()
			dst := make(matrix.Vector, n)
			steps, err := ar.MatVecPass(dst, a, x, b, w, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(ref.Y, 0) {
				t.Fatalf("%v MatVecPass differs from Solve (w=%d n=%d m=%d)", eng, w, n, m)
			}
			if steps != ref.Stats.T {
				t.Fatalf("%v MatVecPass T=%d, Solve T=%d", eng, steps, ref.Stats.T)
			}
			if prev != nil && !dst.Equal(prev, 0) {
				t.Fatal("engines disagree in MatVecPass")
			}
			prev = dst
		}

		p := 1 + rng.Intn(2*w)
		am := matrix.RandomDense(rng, n, p, 4)
		bm := matrix.RandomDense(rng, p, m, 4)
		var e *matrix.Dense
		if rng.Intn(2) == 0 {
			e = matrix.RandomDense(rng, n, m, 4)
		}
		mref, err := NewMatMulSolver(w).Solve(am, bm, MatMulOptions{E: e})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineCompiled, EngineOracle} {
			ar.Reset()
			dst := matrix.NewDense(n, m)
			steps, err := ar.MatMulPass(dst, am, bm, e, w, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(mref.C, 0) {
				t.Fatalf("%v MatMulPass differs from Solve (w=%d n=%d p=%d m=%d)", eng, w, n, p, m)
			}
			if steps != mref.Stats.T {
				t.Fatalf("%v MatMulPass T=%d, Solve T=%d", eng, steps, mref.Stats.T)
			}
		}
	}
}

// TestArenaScratchReuse: Floats and Dense hand out distinct buffers within
// one Reset window and recycle them across windows.
func TestArenaScratchReuse(t *testing.T) {
	ar := NewArena()
	a := ar.Floats(8)
	b := ar.Floats(4)
	if &a[0] == &b[0] {
		t.Fatal("Floats returned overlapping buffers in one window")
	}
	m1 := ar.Dense(2, 3)
	m2 := ar.Dense(2, 3)
	if m1 == m2 {
		t.Fatal("Dense returned the same matrix twice in one window")
	}
	ar.Reset()
	if a2 := ar.Floats(6); &a2[0] != &a[0] {
		t.Fatal("Floats did not recycle the first slot after Reset")
	}
	if m := ar.Dense(3, 2); m != m1 {
		t.Fatal("Dense did not recycle the first slot after Reset")
	}
}

// TestPooledArenaConcurrentShapes: the one-shot compiled solvers borrow
// their transforms and scratch from the shared arena pool. Goroutines
// cycling through random shapes — so every borrowed arena's transforms are
// rebuilt and its slabs regrown for a shape it last saw at another size —
// must still match the structural oracle bit for bit, results and stats.
func TestPooledArenaConcurrentShapes(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				w := 1 + rng.Intn(4)
				n, m := 1+rng.Intn(3*w), 1+rng.Intn(3*w)
				a := matrix.RandomDense(rng, n, m, 5)
				x := matrix.RandomVector(rng, m, 5)
				b := matrix.RandomVector(rng, n, 5)
				mv := NewMatVecSolver(w)
				got, err := mv.Solve(a, x, b, MatVecOptions{Engine: EngineCompiled})
				if err != nil {
					t.Error(err)
					return
				}
				want, err := mv.Solve(a, x, b, MatVecOptions{Engine: EngineOracle})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pooled matvec w=%d %d×%d diverges from the oracle", w, n, m)
					return
				}

				p := 1 + rng.Intn(2*w)
				bm := matrix.RandomDense(rng, m, p, 4)
				mm := NewMatMulSolver(w)
				gotC, err := mm.Solve(a, bm, MatMulOptions{Engine: EngineCompiled})
				if err != nil {
					t.Error(err)
					return
				}
				wantC, err := mm.Solve(a, bm, MatMulOptions{Engine: EngineOracle})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(gotC, wantC) {
					t.Errorf("pooled matmul w=%d %d×%d·%d×%d diverges from the oracle", w, n, m, m, p)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
}

// TestExecutorParallelPasses: independent passes fanned across the
// executor produce exactly the serial results — the substrate guarantee
// the blocked solvers build on.
func TestExecutorParallelPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const w, count = 3, 24
	as := make([]*matrix.Dense, count)
	xs := make([]matrix.Vector, count)
	want := make([]matrix.Vector, count)
	s := NewMatVecSolver(w)
	for i := range as {
		n, m := 1+rng.Intn(9), 1+rng.Intn(9)
		as[i] = matrix.RandomDense(rng, n, m, 5)
		xs[i] = matrix.RandomVector(rng, m, 5)
		res, err := s.Solve(as[i], xs[i], nil, MatVecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Y
	}
	for _, workers := range []int{1, 2, 5} {
		ex := NewExecutor(workers)
		got := make([]matrix.Vector, count)
		errs := make([]error, count)
		for i := range as {
			i := i
			got[i] = make(matrix.Vector, as[i].Rows())
			ex.Submit(func(_ int, ar *Arena) {
				_, errs[i] = ar.MatVecPass(got[i], as[i], xs[i], nil, w, EngineCompiled)
			})
		}
		ex.Barrier()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !got[i].Equal(want[i], 0) {
				t.Fatalf("workers=%d pass %d differs from serial", workers, i)
			}
		}
		ex.Close()
	}
}

// TestExecutorSubmitAfterBarrier: the executor is reusable across step
// barriers (submit → barrier → submit → barrier), the pattern the blocked
// solvers drive it with.
func TestExecutorSubmitAfterBarrier(t *testing.T) {
	ex := NewExecutor(2)
	defer ex.Close()
	var total atomic.Int64
	for step := 1; step <= 4; step++ {
		for i := 0; i < step; i++ {
			ex.Submit(func(int, *Arena) { total.Add(1) })
		}
		ex.Barrier()
		if want := int64(step * (step + 1) / 2); total.Load() != want {
			t.Fatalf("after step %d: %d tasks ran, want %d", step, total.Load(), want)
		}
	}
}

func ExampleExecutor() {
	ex := NewExecutor(2)
	defer ex.Close()
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	x := matrix.Vector{1, 1}
	ys := make([]matrix.Vector, 2)
	for i := range ys {
		i := i
		ys[i] = make(matrix.Vector, 2)
		ex.Submit(func(_ int, ar *Arena) {
			ar.MatVecPass(ys[i], a, x, nil, 2, EngineAuto)
		})
	}
	ex.Barrier()
	fmt.Println(ys[0], ys[1])
	// Output: [3 7] [3 7]
}
