package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
)

// TestShardClamping: zero and negative shard counts and queue bounds fall
// back to the documented defaults instead of panicking or deadlocking.
func TestShardClamping(t *testing.T) {
	for _, shards := range []int{0, -3} {
		s := New(Config{Shards: shards, QueueBound: -1})
		if got, want := s.Shards(), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("Shards(%d) clamps to %d, want GOMAXPROCS=%d", shards, got, want)
		}
		a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
		tk, err := s.SubmitMatVec(2, core.MatVecProblem{A: a, X: matrix.Vector{1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Y.Equal(matrix.Vector{3, 7}, 0) {
			t.Errorf("clamped scheduler solved wrong: %v", res.Y)
		}
		s.Close()
	}
}

// TestSubmitAfterClose: every submission path reports ErrClosed after
// Close, and Close is idempotent.
func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Shards: 2})
	s.Close()
	s.Close() // idempotent
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := s.SubmitMatVec(2, core.MatVecProblem{A: a, X: matrix.Vector{1, 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatVec after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitMatMul(2, core.MatMulProblem{A: a, B: a}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatMul after Close: %v, want ErrClosed", err)
	}
	dst := make(matrix.Vector, 2)
	if _, err := s.SubmitMatVecInto(dst, a, matrix.Vector{1, 1}, nil, 2, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatVecInto after Close: %v, want ErrClosed", err)
	}
	mdst := matrix.NewDense(2, 2)
	if _, err := s.SubmitMatMulInto(mdst, a, a, nil, 2, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitMatMulInto after Close: %v, want ErrClosed", err)
	}
	tr := sparse.NewMatVec(a, 2)
	if _, err := s.SubmitSparseMatVec(tr, matrix.Vector{1, 1}, nil, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseMatVec after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSparseMatVecInto(dst, tr, matrix.Vector{1, 1}, nil, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseMatVecInto after Close: %v, want ErrClosed", err)
	}
	xs := []matrix.Vector{{1, 1}}
	if _, err := s.SubmitSparseBatch(tr, xs, nil, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSparseBatchInto([]matrix.Vector{dst}, tr, xs, nil, core.EngineAuto); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSparseBatchInto after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSolveOpts(a, matrix.Vector{1, 1}, 2, solve.Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSolveOpts after Close: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitSolveIntoOpts(dst, a, matrix.Vector{1, 1}, 2, solve.Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitSolveIntoOpts after Close: %v, want ErrClosed", err)
	}
}

// TestSaturation: under the Shed policy a scheduler whose single shard is
// occupied and whose queue is full fails fast with ErrSaturated, resumes
// accepting once drained, and counts the shed submissions.
func TestSaturation(t *testing.T) {
	s := New(Config{Shards: 1, QueueBound: 1, Policy: Shed})
	defer s.Close()
	// Occupy the only shard through a scheduler-backed executor pass.
	gate := make(chan struct{})
	running := make(chan struct{})
	ex := s.NewExecutor()
	ex.Submit(func(int, *core.Arena) {
		close(running)
		<-gate
	})
	<-running
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	p := core.MatVecProblem{A: a, X: matrix.Vector{1, 1}}
	// One job fits the queue; the next must shed.
	tk1, err := s.SubmitMatVec(2, p)
	if err != nil {
		t.Fatalf("first submit should queue: %v", err)
	}
	if _, err := s.SubmitMatVec(2, p); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second submit: %v, want ErrSaturated", err)
	}
	dst := make(matrix.Vector, 2)
	if _, err := s.SubmitMatVecInto(dst, a, matrix.Vector{1, 1}, nil, 2, core.EngineAuto); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Into submit while saturated: %v, want ErrSaturated", err)
	}
	tr := sparse.NewMatVec(a, 2)
	if _, err := s.SubmitSparseMatVec(tr, matrix.Vector{1, 1}, nil, core.EngineAuto); !errors.Is(err, ErrSaturated) {
		t.Fatalf("sparse submit while saturated: %v, want ErrSaturated", err)
	}
	if _, err := s.SubmitSparseMatVecInto(dst, tr, matrix.Vector{1, 1}, nil, core.EngineAuto); !errors.Is(err, ErrSaturated) {
		t.Fatalf("sparse Into submit while saturated: %v, want ErrSaturated", err)
	}
	close(gate)
	ex.Barrier()
	if res, err := tk1.Wait(); err != nil || !res.Y.Equal(matrix.Vector{3, 7}, 0) {
		t.Fatalf("queued job after drain: %v %v", res, err)
	}
	// Admission works again once the queue has space.
	tk2, err := s.SubmitMatVec(2, p)
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if _, err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Shed != 4 || st.Submitted != 2 {
		t.Errorf("stats %+v, want 4 shed and 2 submitted", st)
	}
}

// TestAffinityHammer pounds one shape from many goroutines at once — the
// contended steady-state path (shared shard queue, plan memo hits, pooled
// jobs) that the -race job checks for data races — and verifies every
// result.
func TestAffinityHammer(t *testing.T) {
	s := New(Config{Shards: 2, QueueBound: 8})
	defer s.Close()
	const goroutines, perG = 8, 40
	w := 3
	a := matrix.FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
		{13, 14, 15, 16},
	})
	x := matrix.Vector{1, -1, 2, -2}
	want := a.MulVec(x, nil)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(matrix.Vector, a.Rows())
			for i := 0; i < perG; i++ {
				tk, err := s.SubmitMatVecInto(dst, a, x, nil, w, core.EngineCompiled)
				if err != nil {
					errs[g] = err
					return
				}
				if _, err := tk.Wait(); err != nil {
					errs[g] = err
					return
				}
				if !dst.Equal(want, 0) {
					errs[g] = errors.New("wrong result under contention")
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if st := s.Stats(); st.Completed != goroutines*perG {
		t.Errorf("completed %d jobs, want %d", st.Completed, goroutines*perG)
	}
}

// TestInvalidDst: the Into submissions validate destination shapes at the
// submission boundary (a panic inside a shard would take the fleet down).
func TestInvalidDst(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := s.SubmitMatVecInto(make(matrix.Vector, 3), a, matrix.Vector{1, 1}, nil, 2, core.EngineAuto); err == nil {
		t.Error("matvec dst length mismatch should fail at submit")
	}
	if _, err := s.SubmitMatMulInto(matrix.NewDense(3, 3), a, a, nil, 2, core.EngineAuto); err == nil {
		t.Error("matmul dst shape mismatch should fail at submit")
	}
	if _, err := s.SubmitSparseMatVecInto(make(matrix.Vector, 3), sparse.NewMatVec(a, 2), matrix.Vector{1, 1}, nil, core.EngineAuto); err == nil {
		t.Error("sparse dst length mismatch should fail at submit")
	}
}

// sparseStencil builds a block-tridiagonal test matrix — the repeated
// stencil whose pattern the affinity routing should keep on one shard.
func sparseStencil(nb, w int) *matrix.Dense {
	a := matrix.NewDense(nb*w, nb*w)
	for r := 0; r < nb; r++ {
		for _, s := range []int{r - 1, r, r + 1} {
			if s < 0 || s >= nb {
				continue
			}
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					a.Set(r*w+i, s*w+j, float64((r+2*s+i*j)%7-3))
				}
			}
		}
	}
	return a
}

// TestSparseAffinityHammer pounds one retained-block pattern from many
// goroutines through schedulers at shard counts {1, 2, NumCPU} under both
// admission policies — the contended pattern-affinity steady state (shared
// shard queue, pattern-keyed memo hits, pooled jobs) the -race job checks —
// verifying every result against the serial references.
func TestSparseAffinityHammer(t *testing.T) {
	w := 3
	a := sparseStencil(4, w)
	tr := sparse.NewMatVec(a, w)
	x := make(matrix.Vector, a.Cols())
	for i := range x {
		x[i] = float64(i%5 - 2)
	}
	want := a.MulVec(x, nil)
	serial, err := tr.SolveEngine(x, nil, core.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, pol := range []Policy{Block, Shed} {
			s := New(Config{Shards: shards, QueueBound: 8, Policy: pol})
			const goroutines, perG = 6, 30
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make(matrix.Vector, tr.N)
					for i := 0; i < perG; i++ {
						// Alternate the Into fast path and the full-result
						// ticket; under Shed, retry sheds (load is bursty).
						if i%2 == 0 {
							tk, err := s.SubmitSparseMatVecInto(dst, tr, x, nil, core.EngineCompiled)
							for errors.Is(err, ErrSaturated) {
								tk, err = s.SubmitSparseMatVecInto(dst, tr, x, nil, core.EngineCompiled)
							}
							if err != nil {
								errs[g] = err
								return
							}
							if _, err := tk.Wait(); err != nil {
								errs[g] = err
								return
							}
							if !dst.Equal(want, 0) {
								errs[g] = errors.New("wrong Into result under contention")
								return
							}
						} else {
							tk, err := s.SubmitSparseMatVec(tr, x, nil, core.EngineCompiled)
							for errors.Is(err, ErrSaturated) {
								tk, err = s.SubmitSparseMatVec(tr, x, nil, core.EngineCompiled)
							}
							if err != nil {
								errs[g] = err
								return
							}
							res, err := tk.Wait()
							if err != nil {
								errs[g] = err
								return
							}
							if !reflect.DeepEqual(res, serial) {
								errs[g] = errors.New("full ticket differs from serial solve")
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("shards=%d policy=%v goroutine %d: %v", shards, pol, g, err)
				}
			}
			s.Close()
		}
	}
}

// redeem submits-and-waits one ticket, for the allocation table below.
func redeem[T any](tk Ticket[T], err error) error {
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// TestStreamZeroAllocSteadyState pins the stream acceptance criterion on
// every Into kind: once the affinity shard is warm on the shape or pattern, a
// compiled Into job — submit, execute, redeem — allocates nothing, with no
// QoS and with a live deadline (the QoS rides in the pooled job;
// DeadlineError is only built on the failure paths). A second QoS value is
// rejected with ErrExtraQoS before anything is enqueued.
func TestStreamZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	s := New(Config{Shards: 2})
	defer s.Close()
	rng := rand.New(rand.NewSource(789))

	a := matrix.NewDense(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			a.Set(i, j, float64(i+j+1))
		}
	}
	x := make(matrix.Vector, 16)
	for i := range x {
		x[i] = float64(i)
	}
	dst := make(matrix.Vector, 16)

	ma, mb := matrix.RandomDense(rng, 8, 8, 4), matrix.RandomDense(rng, 8, 8, 4)
	mdst := matrix.NewDense(8, 8)

	sa := sparseStencil(6, 4)
	tr := sparse.NewMatVec(sa, 4)
	sx := make(matrix.Vector, sa.Cols())
	for i := range sx {
		sx[i] = float64(i)
	}
	sdst := make(matrix.Vector, tr.N)
	xs, bs := batchVectors(tr, 4)
	dsts := make([]matrix.Vector, len(xs))
	for v := range dsts {
		dsts[v] = make(matrix.Vector, tr.N)
	}

	ga, gd := ddSystem(rng, 8)
	gdst := make(matrix.Vector, 8)
	// Pivoting and refinement ride the same pooled job and the shard
	// workspace's reused buffers, so the warm guarantee survives both.
	pa, pd := permuteRows(rng, ga, gd)
	popts := solve.Options{
		Engine: core.EngineCompiled,
		Pivot:  solve.PivotPartial,
		Refine: solve.RefineOptions{MaxIters: 3},
	}
	solveWant := func(a *matrix.Dense, d matrix.Vector, opts solve.Options) error {
		want, _, err := solve.Solve(a, d, 2, opts)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(gdst, want) {
			return errors.New("warm solve stream produced a wrong solution")
		}
		return nil
	}

	cases := []struct {
		name  string
		run   func(q ...QoS) error
		check func() error
	}{
		{"matvec", func(q ...QoS) error {
			return redeem(s.SubmitMatVecInto(dst, a, x, nil, 4, core.EngineCompiled, q...))
		}, func() error {
			if !dst.Equal(a.MulVec(x, nil), 0) {
				return errors.New("warm matvec stream produced a wrong result")
			}
			return nil
		}},
		{"matmul", func(q ...QoS) error {
			return redeem(s.SubmitMatMulInto(mdst, ma, mb, nil, 4, core.EngineCompiled, q...))
		}, func() error {
			want, err := core.NewMatMulSolver(4).Solve(ma, mb, core.MatMulOptions{Engine: core.EngineCompiled})
			if err != nil {
				return err
			}
			if !mdst.Equal(want.C, 0) {
				return errors.New("warm matmul stream produced a wrong result")
			}
			return nil
		}},
		{"sparse", func(q ...QoS) error {
			return redeem(s.SubmitSparseMatVecInto(sdst, tr, sx, nil, core.EngineCompiled, q...))
		}, func() error {
			if !sdst.Equal(sa.MulVec(sx, nil), 0) {
				return errors.New("warm sparse stream produced a wrong result")
			}
			return nil
		}},
		{"sparse-batch", func(q ...QoS) error {
			return redeem(s.SubmitSparseBatchInto(dsts, tr, xs, bs, core.EngineCompiled, q...))
		}, func() error {
			for v := range dsts {
				want, err := tr.SolveEngine(xs[v], bs[v], core.EngineCompiled)
				if err != nil {
					return err
				}
				if !dsts[v].Equal(want.Y, 0) {
					return fmt.Errorf("warm batch vector %d wrong", v)
				}
			}
			return nil
		}},
		{"solve", func(q ...QoS) error {
			return redeem(s.SubmitSolveIntoOpts(gdst, ga, gd, 2, solve.Options{Engine: core.EngineCompiled}, q...))
		}, func() error {
			return solveWant(ga, gd, solve.Options{Engine: core.EngineCompiled})
		}},
		{"solve-pivoted", func(q ...QoS) error {
			return redeem(s.SubmitSolveIntoOpts(gdst, pa, pd, 2, popts, q...))
		}, func() error {
			return solveWant(pa, pd, popts)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, qc := range []struct {
				name string
				q    []QoS
			}{
				{"no-qos", nil},
				{"deadline", []QoS{{Deadline: time.Now().Add(time.Hour)}}},
			} {
				t.Run(qc.name, func(t *testing.T) {
					roundTrip := func() {
						if err := c.run(qc.q...); err != nil {
							t.Fatal(err)
						}
					}
					// Warm every shard on the shape (stealing can land
					// early jobs anywhere) before the measured steady state.
					for i := 0; i < 32; i++ {
						roundTrip()
					}
					if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
						t.Errorf("steady-state %s job allocates %v objects/op, want 0", c.name, allocs)
					}
					if err := c.check(); err != nil {
						t.Error(err)
					}
				})
			}
			before := s.Stats()
			if err := c.run(QoS{}, QoS{Priority: Low}); !errors.Is(err, ErrExtraQoS) {
				t.Errorf("two QoS values: %v, want ErrExtraQoS", err)
			}
			if after := s.Stats(); after != before {
				t.Errorf("a rejected extra QoS moved the counters: %+v → %+v", before, after)
			}
		})
	}
}
