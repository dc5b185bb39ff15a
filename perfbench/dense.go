package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
)

// shape is one (n, w) problem shape: an n×n system on a w-PE array.
type shape struct{ n, w int }

func (s shape) String() string { return fmt.Sprintf("n%d.w%d", s.n, s.w) }

// denseShapes are solve-dense's shapes: n ∈ {32, 48, 64, 96} × w ∈ {4, 8}.
var denseShapes = []shape{{32, 4}, {32, 8}, {48, 4}, {48, 8}, {64, 4}, {64, 8}, {96, 4}, {96, 8}}

// denseRotation is the order shapes are solved in, one round of ten: every
// shape once, plus n = 64, w = 8 and n = 96, w = 4 a second time. The
// shapes' solve times are about 2× apart in a chain, so with eight equal
// shares p50 would fall exactly between the fourth and fifth fastest
// shapes and p90 near a boundary too, jumping between them from run to
// run; the doubled shapes (fifth fastest and slowest) put p50 and p90 in
// the middle of one shape's samples.
var denseRotation = []int{0, 1, 2, 3, 4, 5, 5, 6, 6, 7}

// simPrefix is how many problems of a workload's seeded schedule the
// sim_steps mean covers, 25 rounds of the rotation: a fixed prefix, so
// the count never depends on how fast the host ran.
const simPrefix = 250

// problem is one solve-dense input choice.
type problem struct {
	shape         int
	pivot, refine bool
	index         int
}

// solveSteps is the simulated array step count a solve reports.
func solveSteps(st *solve.SolveStats) int {
	return st.LU.ArraySteps + st.TriSteps + st.MatVecSteps
}

// optionsFor maps a problem's knobs onto solve options on the compiled
// engine.
func optionsFor(pivot, refine bool) solve.Options {
	opts := solve.Options{Engine: core.EngineCompiled}
	if pivot {
		opts.Pivot = solve.PivotPartial
	}
	if refine {
		opts.Refine = solve.RefineOptions{MaxIters: 3}
	}
	return opts
}

// denseBench is the solve-dense workload: one caller in a closed loop over
// serial solve.Workspace.Solve, shapes rotating, fresh values every call.
type denseBench struct {
	ws   []*solve.Workspace
	a    []*matrix.Dense
	d    []matrix.Vector
	vals *rand.Rand
	mix  *rand.Rand
	next int
}

func newDenseBench(seed uint64) *denseBench {
	return &denseBench{vals: newRNG(seed, streamDenseValues), mix: newRNG(seed, streamDenseMix)}
}

// setup builds one workspace per shape and solves one refined system on
// each, which compiles every plan the timed phase replays: the trailing
// tile matmuls, the triangular panels and diagonal blocks, and the n×n
// refinement matvec.
func (b *denseBench) setup() error {
	warm := newRNG(0, streamDenseValues)
	for _, s := range denseShapes {
		ws := solve.NewWorkspace(s.w)
		a, d := matrix.NewDense(s.n, s.n), matrix.NewVector(s.n)
		fillSystem(warm, a, d, false)
		x, _, err := ws.Solve(a, d, optionsFor(false, true))
		if err != nil {
			return fmt.Errorf("solve-dense warm-up %v: %w", s, err)
		}
		if _, ok := residualOK(a, x, d); !ok {
			return fmt.Errorf("solve-dense warm-up %v: residual check failed", s)
		}
		b.ws, b.a, b.d = append(b.ws, ws), append(b.a, a), append(b.d, d)
	}
	return nil
}

// draw returns the next problem of the seeded schedule: shapes rotate
// through denseRotation,
// about a quarter are row-scrambled and pivoted, about an eighth refined.
func (b *denseBench) draw() problem {
	p := problem{shape: denseRotation[b.next%len(denseRotation)], index: b.next}
	p.pivot = b.mix.IntN(4) == 0
	p.refine = b.mix.IntN(8) == 0
	b.next++
	return p
}

// denseRun is what one timed phase of solve-dense measured.
type denseRun struct {
	samples     series // per-solve latency in ms
	span        time.Duration
	attempted   int
	failed      int
	wrong       int
	simSteps    int
	simCount    int
	rowSwaps    int
	refineIters int
	errs        []string
}

// measure runs the closed loop for dur. A non-nil tracer records one span
// per Solve call.
func (b *denseBench) measure(dur time.Duration, tr *Tracer) *denseRun {
	r := &denseRun{span: dur}
	start := time.Now()
	end := start.Add(dur)
	for time.Now().Before(end) {
		p := b.draw()
		a, d := b.a[p.shape], b.d[p.shape]
		fillSystem(b.vals, a, d, p.pivot)
		opts := optionsFor(p.pivot, p.refine)
		span := tr.Begin("solve.Solve", -1, int64(p.index))
		t0 := time.Now()
		x, st, err := b.ws[p.shape].Solve(a, d, opts)
		el := time.Since(t0)
		tr.End(span)
		r.attempted++
		r.samples.add(time.Since(start), float64(el)/float64(time.Millisecond), 1)
		if err != nil {
			r.failed++
			r.errs = appendErr(r.errs, fmt.Sprintf("solve %d %v: %v", p.index, denseShapes[p.shape], err))
			continue
		}
		if res, ok := residualOK(a, x, d); !ok {
			r.failed++
			r.wrong++
			r.errs = appendErr(r.errs, fmt.Sprintf("solve %d %v: residual %g over bound", p.index, denseShapes[p.shape], res))
			continue
		}
		if p.index < simPrefix {
			r.simSteps += solveSteps(st)
			r.simCount++
		}
		r.rowSwaps += st.LU.RowSwaps
		r.refineIters += st.Refine.Iters
	}
	return r
}

// appendErr keeps the first few failure messages for the report.
func appendErr(errs []string, msg string) []string {
	if len(errs) < 8 {
		errs = append(errs, msg)
	}
	return errs
}

// denseWorkload adapts denseBench to the bench interface.
type denseWorkload struct {
	*denseBench
	seed uint64
}

func newDenseWorkload(seed uint64) *denseWorkload {
	return &denseWorkload{denseBench: newDenseBench(seed), seed: seed}
}

// prepare has nothing to do: every solve-dense answer is checked inline
// by its residual.
func (b *denseWorkload) prepare() error { return nil }

func (b *denseWorkload) check(*result) {}

func (b *denseWorkload) close() {}

func (b *denseWorkload) ladderInputs() ladderSample {
	return buildLadderSample(b.seed, denseShapes)
}

func (b *denseWorkload) e2e(dur time.Duration) *result {
	return b.traced(dur, nil)
}

func (b *denseWorkload) traced(dur time.Duration, tr *Tracer) *result {
	run := b.measure(dur, tr)
	res := newResult()
	res.attempted, res.failed, res.wrong = run.attempted, run.failed, run.wrong
	res.errs = run.errs
	res.ops = run.attempted - run.failed
	bs := run.samples.blocks(run.span, 1e-3)
	perS, p50, p90 := medianBlocks(bs)
	s := summarize(append([]float64(nil), run.samples.lat...))
	sim := float64(run.simSteps) / float64(max(run.simCount, 1))
	res.e2e["ops_per_s"] = perS
	res.e2e["p50_ms"] = p50
	res.e2e["p90_ms"] = p90
	res.e2e["sim_steps"] = sim
	res.addLine("solves_per_s", perS, "1/s", res.ops, "median block: solves per second inside Solve, one caller")
	res.addLine("solve_p50_ms", p50, "ms", s.N, fmt.Sprintf("median block; whole run p50=%.4g", s.P50))
	res.addLine("solve_p90_ms", p90, "ms", s.N, fmt.Sprintf("median block; whole run p90=%.4g %s", s.P90, tailNote(s, "ms")))
	res.addLine("sim_steps", sim, "steps", run.simCount, fmt.Sprintf("mean over the first %d problems of the schedule", simPrefix))
	res.layers["solve.row_swaps"] = float64(run.rowSwaps) / float64(max(res.ops, 1))
	res.layers["solve.refine_iters"] = float64(run.refineIters) / float64(max(res.ops, 1))
	return res
}
