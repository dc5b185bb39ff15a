package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/solve"
	"repro/internal/solved"
	"repro/internal/sparse"
	"repro/internal/stream"
	"repro/internal/trisolve"
)

// The layer ladder replays a seeded sample of a workload's inputs through
// each rung of the stack separately — schedule exec → dbt pack → core arena
// pass → trisolve/solve workspace → stream ticket → HTTP round trip — and
// reports each rung's cost and its overhead against the rung below. Every
// timed call is recorded as a span. The ladder also recounts every solve's
// simulated steps from the plans it replays and requires the sum to equal
// the SolveStats the solver reported.

const (
	// ladderReps is how many timed repetitions each rung call gets; the
	// fastest is used, the estimate least disturbed by other tenants of a
	// shared host.
	ladderReps = 7
	// minRep is the shortest repetition the ladder times: calls faster
	// than this are looped inside one repetition so the clock's own cost
	// stays below a percent.
	minRep = 20 * time.Microsecond
)

type ladderDense struct {
	s    shape
	a    *matrix.Dense
	d    matrix.Vector
	opts solve.Options
}

type ladderSparse struct {
	name string
	a    *matrix.Dense
	w    int
	xs   []matrix.Vector
}

// ladderSample is the seeded input sample one ladder run replays.
type ladderSample struct {
	dense  []ladderDense
	sparse []ladderSparse
	fresh  []ladderSparse
}

// buildLadderSample draws one unpivoted system per dense shape, the
// recurring sparse patterns with a full x pool each, and 16 never-seen
// sparse patterns for the compile and NewMatVec rungs.
func buildLadderSample(seed uint64, shapes []shape) ladderSample {
	rng := newRNG(seed, streamLadder)
	var ls ladderSample
	for _, s := range shapes {
		a, d := matrix.NewDense(s.n, s.n), matrix.NewVector(s.n)
		fillSystem(rng, a, d, false)
		ls.dense = append(ls.dense, ladderDense{s: s, a: a, d: d, opts: optionsFor(false, false)})
	}
	for _, p := range sparsePatterns {
		sp := ladderSparse{name: p.name, a: buildPattern(rng, p), w: p.w}
		for i := 0; i < poolSize; i++ {
			sp.xs = append(sp.xs, randVector(rng, p.n))
		}
		ls.sparse = append(ls.sparse, sp)
	}
	for i := 0; i < 16; i++ {
		a, w := freshPattern(rng)
		ls.fresh = append(ls.fresh, ladderSparse{name: fmt.Sprintf("fresh%d", i), a: a, w: w})
	}
	return ls
}

// ladder times the rungs and accumulates per-layer metrics.
type ladder struct {
	tr       *Tracer
	res      *result
	req      int64
	mismatch int
}

// tm returns the time of one call of f in microseconds: the fastest of
// ladderReps repetitions, each looping f enough times to last minRep.
// Every repetition is recorded as a span named name.
func (l *ladder) tm(name string, f func()) float64 {
	start := time.Now()
	f()
	inner := 1
	if once := time.Since(start); once < minRep {
		inner = int(minRep/max(once, 1)) + 1
	}
	best := 0.0
	for r := 0; r < ladderReps; r++ {
		t0 := l.tr.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		t1 := l.tr.Now()
		l.tr.Add(name, t0, t1, -1, l.req)
		if us := float64(t1-t0) / 1e3 / float64(inner); r == 0 || us < best {
			best = us
		}
	}
	return best
}

func (l *ladder) fail(msg string) {
	l.res.failed++
	l.res.wrong++
	l.res.errs = appendErr(l.res.errs, "ladder: "+msg)
}

// denseTotals accumulates the dense rungs over the sample.
type denseTotals struct {
	problems                     int
	solve, blocklu, lower, upper float64
	mmPasses                     int
	mmPass, mmPack, mmExec       float64
	mmMACs, packBytes            int
	mvPasses                     int
	mvPass, mvExec               float64
	mvMACs                       int
	triExec                      float64
	serial, parallel             float64
	planBytes                    map[string]int
}

// runDense replays one dense problem through the schedule, dbt, core,
// trisolve and solve rungs.
func (l *ladder) runDense(p ladderDense, t *denseTotals) matrix.Vector {
	eng := core.EngineCompiled
	n, w := p.s.n, p.s.w
	ws := solve.NewWorkspace(w)
	x, st, err := ws.Solve(p.a, p.d, p.opts)
	if err != nil {
		l.fail(fmt.Sprintf("solve %v: %v", p.s, err))
		return nil
	}
	if _, ok := residualOK(p.a, x, p.d); !ok {
		l.fail(fmt.Sprintf("solve %v: residual over bound", p.s))
	}
	x = append(matrix.Vector(nil), x...)
	wantSteps := solveSteps(st)
	t.problems++
	solveUS := l.tm("ladder.solve.Solve", func() { _, _, _ = ws.Solve(p.a, p.d, p.opts) })
	t.solve += solveUS
	t.blocklu += l.tm("ladder.solve.BlockLU", func() { _, _, _, _ = ws.BlockLU(p.a, p.opts) })

	exec := core.NewExecutor(2)
	wsx := solve.NewWorkspaceExecutor(w, exec)
	_, _, _ = wsx.Solve(p.a, p.d, p.opts)
	t.serial += solveUS
	t.parallel += l.tm("ladder.solve.Solve.executor2", func() { _, _, _ = wsx.Solve(p.a, p.d, p.opts) })
	exec.Close()

	lf, uf, _, err := ws.BlockLU(p.a, p.opts)
	if err != nil {
		l.fail(fmt.Sprintf("BlockLU %v: %v", p.s, err))
		return nil
	}
	lm, um := lf.Clone(), uf.Clone()
	tri := trisolve.NewWorkspace(w)
	y, xx := matrix.NewVector(n), matrix.NewVector(n)
	_, _ = tri.SolveLowerInto(y, lm, p.d, eng)
	_, _ = tri.SolveUpperInto(xx, um, y, eng)
	t.lower += l.tm("ladder.trisolve.SolveLowerInto", func() { _, _ = tri.SolveLowerInto(y, lm, p.d, eng) })
	t.upper += l.tm("ladder.trisolve.SolveUpperInto", func() { _, _ = tri.SolveUpperInto(xx, um, y, eng) })

	steps := 0
	ar := core.NewArena()
	mmT := &dbt.MatMul{}
	// BlockLU's trailing updates: one matmul pass per w-wide column tile
	// of each elimination step.
	for k0 := 0; k0+w < n; k0 += w {
		k1 := k0 + w
		aop := lm.Slice(k1, n, k0, k1)
		for j0 := k1; j0 < n; j0 += w {
			j1 := min(j0+w, n)
			bop, eop := um.Slice(k0, k1, j0, j1), p.a.Slice(k1, n, j0, j1)
			dst := matrix.NewDense(n-k1, j1-j0)
			ar.Reset()
			if _, err := ar.MatMulPass(dst, aop, bop, eop, w, eng); err != nil {
				l.fail(fmt.Sprintf("MatMulPass %v: %v", p.s, err))
				return nil
			}
			t.mmPass += l.tm("ladder.core.MatMulPass", func() {
				ar.Reset()
				_, _ = ar.MatMulPass(dst, aop, bop, eop, w, eng)
			})
			mmT.Reset(aop, bop, w)
			plan := schedule.MatMulFor(mmT)
			aPack, bPack := make([]float64, plan.Dim*w), make([]float64, plan.Dim*w)
			t.mmPack += l.tm("ladder.dbt.pack", func() {
				mmT.Reset(aop, bop, w)
				mmT.PackAHat(aPack)
				mmT.PackBHat(bPack)
			})
			ext, o := make([]float64, len(plan.ExtInits)), make([]float64, plan.OLen())
			t.mmExec += l.tm("ladder.schedule.MatMul.Exec", func() { plan.Exec(aPack, bPack, ext, o) })
			t.mmPasses++
			t.mmMACs += plan.MACs
			t.packBytes += 2 * plan.Dim * w * 8
			t.planBytes[fmt.Sprintf("mm%d.%d.%d.%d", plan.W, plan.NBar, plan.PBar, plan.MBar)] = plan.Bytes()
			steps += plan.T
		}
	}
	// One triangular phase: a diagonal block on the triangular array and
	// the panel matvecs below it, per block row. Solve runs two phases
	// whose pass shapes are identical (the upper one mirrors U onto the
	// lower solver), so each phase cost counts twice.
	mvT := &dbt.MatVec{}
	nb := (n + w - 1) / w
	for rb := 0; rb < nb; rb++ {
		lo, hi := rb*w, min((rb+1)*w, n)
		tplan := schedule.TriSolveFor(hi-lo, w)
		lpack := make([]float64, (hi-lo)*w)
		for r := 0; r < hi-lo; r++ {
			for k := 0; k < w && r-k >= 0; k++ {
				lpack[r*w+k] = lm.At(lo+r, lo+r-k)
			}
		}
		rhs, out := append(matrix.Vector(nil), p.d[lo:hi]...), make([]float64, hi-lo)
		t.triExec += 2 * l.tm("ladder.schedule.TriSolve.Exec", func() { tplan.Exec(lpack, rhs, out) })
		steps += 2 * tplan.T
		for jb := rb + 1; jb < nb; jb++ {
			jlo, jhi := jb*w, min((jb+1)*w, n)
			panel, xs := lm.Slice(jlo, jhi, lo, hi), p.d[lo:hi]
			mv := matrix.NewVector(jhi - jlo)
			ar.Reset()
			if _, err := ar.MatVecPass(mv, panel, xs, nil, w, eng); err != nil {
				l.fail(fmt.Sprintf("MatVecPass %v: %v", p.s, err))
				return nil
			}
			t.mvPass += 2 * l.tm("ladder.core.MatVecPass", func() {
				ar.Reset()
				_, _ = ar.MatVecPass(mv, panel, xs, nil, w, eng)
			})
			mvT.Reset(panel, w)
			plan, err := schedule.MatVecFor(mvT, false)
			if err != nil {
				l.fail(fmt.Sprintf("MatVecFor %v: %v", p.s, err))
				return nil
			}
			xp := make([]float64, mvT.MBar*w)
			copy(xp, xs)
			bp, yb := make([]float64, plan.BLen), make([]float64, plan.Rows)
			var execUS float64
			if plan.GridReplay() {
				aflat := mvT.Grid.Padded().Raw()
				execUS = l.tm("ladder.schedule.MatVec.ExecGrid", func() { plan.ExecGrid(aflat, xp, bp, yb) })
			} else {
				band := make([]float64, plan.Rows*w)
				mvT.PackBand(band)
				xbar := mvT.TransformXInto(make([]float64, mvT.BandCols()), xs)
				execUS = l.tm("ladder.schedule.MatVec.Exec", func() { plan.Exec(band, xbar, bp, yb) })
			}
			t.mvExec += 2 * execUS
			t.mvPasses += 2
			t.mvMACs += 2 * plan.MACs
			t.planBytes[fmt.Sprintf("mv%d.%d.%d", plan.W, plan.NBar, plan.MBar)] = plan.Bytes()
			steps += 2 * plan.T
		}
	}
	if steps != wantSteps {
		l.mismatch++
		l.fail(fmt.Sprintf("%v: plans replayed %d steps, SolveStats reported %d", p.s, steps, wantSteps))
	}
	return x
}

// sparseTotals accumulates the sparse rungs over the sample.
type sparseTotals struct {
	pats                 int
	pass, passMany, exec float64
	execMany             float64
	macs                 int
	util                 float64
	newUS, compileUS     []float64
	planBytes            int
}

// runSparse replays one recurring pattern through the schedule and sparse
// rungs.
func (l *ladder) runSparse(p ladderSparse, t *sparseTotals) *sparse.MatVec {
	eng := core.EngineCompiled
	mv := sparse.NewMatVec(p.a, p.w)
	ar := core.NewArena()
	dst := matrix.NewVector(mv.N)
	if _, err := mv.PassInto(ar, dst, p.xs[0], nil, eng); err != nil {
		l.fail(fmt.Sprintf("PassInto %s: %v", p.name, err))
		return nil
	}
	k := len(p.xs)
	dsts := make([]matrix.Vector, k)
	for i := range dsts {
		dsts[i] = matrix.NewVector(mv.N)
	}
	if _, err := mv.PassManyInto(ar, dsts, p.xs, nil, eng); err != nil {
		l.fail(fmt.Sprintf("PassManyInto %s: %v", p.name, err))
		return nil
	}
	t.pass += l.tm("ladder.sparse.PassInto", func() { _, _ = mv.PassInto(ar, dst, p.xs[0], nil, eng) })
	t.passMany += l.tm("ladder.sparse.PassManyInto", func() { _, _ = mv.PassManyInto(ar, dsts, p.xs, nil, eng) })

	plan, err := schedule.SparseMatVecFor(mv.W, mv.NBar, mv.MBar, mv.Retained)
	if err != nil {
		l.fail(fmt.Sprintf("SparseMatVecFor %s: %v", p.name, err))
		return nil
	}
	w := mv.W
	xw, yw := mv.MBar*w, mv.NBar*w
	aflat := mv.Grid.Padded().Raw()
	xp, bp := make([]float64, k*xw), make([]float64, k*yw)
	for v, x := range p.xs {
		copy(xp[v*xw:], x)
	}
	y, ybar := make([]float64, k*yw), make([]float64, k*plan.MaxBandRows)
	t.exec += l.tm("ladder.schedule.SparseMatVec.Exec", func() { plan.Exec(aflat, xp[:xw], bp[:yw], y[:yw], ybar[:plan.MaxBandRows]) })
	t.execMany += l.tm("ladder.schedule.SparseMatVec.ExecMany", func() { plan.ExecMany(aflat, xp, bp, y, ybar, k) })
	t.macs += plan.MACs
	t.util += plan.Utilization()
	t.planBytes += plan.Bytes()
	t.pats++
	return mv
}

// runFresh times NewMatVec and the plan compile on never-seen patterns.
func (l *ladder) runFresh(p ladderSparse, t *sparseTotals) {
	t.newUS = append(t.newUS, l.tm("ladder.sparse.NewMatVec", func() { _ = sparse.NewMatVec(p.a, p.w) }))
	mv := sparse.NewMatVec(p.a, p.w)
	start := l.tr.Now()
	_, err := schedule.SparseMatVecFor(mv.W, mv.NBar, mv.MBar, mv.Retained)
	end := l.tr.Now()
	l.tr.Add("ladder.schedule.compile", start, end, -1, l.req)
	if err != nil {
		l.fail(fmt.Sprintf("compile %s: %v", p.name, err))
		return
	}
	t.compileUS = append(t.compileUS, float64(end-start)/1e3)
}

// depthSampler samples a scheduler's total queue depth every 200µs until
// stopped.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
	max  int
}

func startDepthSampler(s *stream.Scheduler) *depthSampler {
	ds := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ds.done)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-ds.stop:
				return
			case <-tick.C:
				d := 0
				for i := 0; i < s.Shards(); i++ {
					d += s.QueueDepth(i)
				}
				ds.sum += float64(d)
				ds.n++
				ds.max = max(ds.max, d)
			}
		}
	}()
	return ds
}

// finish stops the sampler and returns the mean and max depth.
func (ds *depthSampler) finish() (mean float64, mx int) {
	close(ds.stop)
	<-ds.done
	return ds.sum / float64(max(ds.n, 1)), ds.max
}

// runLadder replays sample through every rung and fills res.layers,
// leaving any key the traced workload phase already set.
func runLadder(sample ladderSample, tr *Tracer, res *result) {
	l := &ladder{tr: tr, res: res}
	set := func(name string, v float64) {
		if _, ok := res.layers[name]; !ok {
			res.layers[name] = v
		}
	}
	dt := &denseTotals{planBytes: map[string]int{}}
	xs := make([]matrix.Vector, len(sample.dense))
	for i, p := range sample.dense {
		l.req = int64(i)
		xs[i] = l.runDense(p, dt)
	}
	st := &sparseTotals{}
	mvs := make([]*sparse.MatVec, len(sample.sparse))
	for i, p := range sample.sparse {
		l.req = int64(i)
		mvs[i] = l.runSparse(p, st)
	}
	for _, p := range sample.fresh {
		l.runFresh(p, st)
	}

	// Allocation count of warm serial solves.
	wss := make([]*solve.Workspace, len(sample.dense))
	for i, p := range sample.dense {
		wss[i] = solve.NewWorkspace(p.s.w)
		_, _, _ = wss[i].Solve(p.a, p.d, p.opts)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < ladderReps; r++ {
		for i, p := range sample.dense {
			_, _, _ = wss[i].Solve(p.a, p.d, p.opts)
		}
	}
	runtime.ReadMemStats(&ms1)
	set("solve.allocs_per_solve", float64(ms1.Mallocs-ms0.Mallocs)/float64(ladderReps*len(sample.dense)))

	np := float64(max(dt.problems, 1))
	set("solve.solve_us", dt.solve/np)
	set("solve.blocklu_us", dt.blocklu/np)
	set("solve.tri_phases_us", (dt.solve-dt.blocklu)/np)
	set("solve.row_swaps", 0)
	set("solve.refine_iters", 0)
	set("trisolve.lower_us", dt.lower/np)
	set("trisolve.upper_us", dt.upper/np)
	set("core.matmul_pass_us", dt.mmPass/float64(max(dt.mmPasses, 1)))
	set("core.matvec_pass_us", dt.mvPass/float64(max(dt.mvPasses, 1)))
	set("core.pass_overhead_us", (dt.mmPass-dt.mmPack-dt.mmExec)/float64(max(dt.mmPasses, 1)))
	set("core.executor_speedup", dt.serial/dt.parallel)
	set("dbt.pack_us", dt.mmPack/float64(max(dt.mmPasses, 1)))
	set("dbt.pack_bytes", float64(dt.packBytes)/np)
	set("schedule.matmul_ns_per_mac", dt.mmExec*1e3/float64(max(dt.mmMACs, 1)))
	set("schedule.matvec_ns_per_mac", dt.mvExec*1e3/float64(max(dt.mvMACs, 1)))
	set("schedule.exec_share", (dt.mmExec+dt.mvExec+dt.triExec)/dt.solve)
	set("schedule.steps_mismatch", float64(l.mismatch))
	set("schedule.sparse_ns_per_mac", st.exec*1e3/float64(max(st.macs, 1)))
	set("schedule.sparse_many_ns_per_mac", st.execMany*1e3/float64(max(st.macs*poolSize, 1)))
	set("schedule.compile_us", median(st.compileUS))
	planBytes := st.planBytes
	for _, b := range dt.planBytes {
		planBytes += b
	}
	set("schedule.plan_bytes", float64(planBytes))
	ns := float64(max(st.pats, 1))
	set("sparse.pass_us", st.pass/ns)
	set("sparse.pass_many_us", st.passMany/ns)
	set("sparse.new_us", median(st.newUS))
	set("sparse.batch_gain", poolSize*st.pass/st.passMany)
	set("sparse.fresh_share", 0)
	set("sparse.utilization", st.util/ns)

	l.runStream(sample, xs, mvs, dt, st, set)
}

// runStream is the stream-ticket and HTTP rungs, on a fresh two-shard
// stream: serial tickets (one in flight) so the ticket overhead over the
// rung below is not queueing.
func (l *ladder) runStream(sample ladderSample, xs []matrix.Vector, mvs []*sparse.MatVec, dt *denseTotals, st *sparseTotals, set func(string, float64)) {
	s := stream.New(stream.Config{Shards: 2})
	defer s.Close()
	stats0 := s.Stats()
	ds := startDepthSampler(s)
	// Per sampled input the fastest ticket counts, matching the rungs
	// below, so the overhead is not host noise.
	var submit, solveTicket, sparseTicket, predErr []float64
	for i, p := range sample.dense {
		if xs[i] == nil {
			continue
		}
		best := 0.0
		for r := 0; r <= ladderReps; r++ {
			pred := predictedWait(s)
			span := l.tr.Begin("ladder.stream.solve_ticket", -1, int64(i))
			sub := l.tr.Begin("ladder.stream.SubmitSolveOpts", span, int64(i))
			t0 := time.Now()
			tk, err := s.SubmitSolveOpts(p.a, p.d, p.s.w, p.opts, stream.QoS{})
			t1 := time.Now()
			l.tr.End(sub)
			var x matrix.Vector
			if err == nil {
				x, _, err = tk.Wait()
			}
			t2 := time.Now()
			l.tr.End(span)
			if err != nil || !bitEqual(x, xs[i]) {
				l.fail(fmt.Sprintf("stream solve %v: %v (or answer differs from Workspace.Solve)", p.s, err))
				break
			}
			if r == 0 {
				continue // warm-up: the shard builds its workspace
			}
			submit = append(submit, float64(t1.Sub(t0))/1e3)
			best = minPos(best, float64(t2.Sub(t0))/1e3)
			predErr = append(predErr, relErr(pred, t2.Sub(t1)))
		}
		solveTicket = append(solveTicket, best)
	}
	for i, mv := range mvs {
		if mv == nil {
			continue
		}
		p := sample.sparse[i]
		dst := matrix.NewVector(mv.N)
		best := 0.0
		for r := 0; r <= ladderReps; r++ {
			span := l.tr.Begin("ladder.stream.sparse_ticket", -1, int64(i))
			sub := l.tr.Begin("ladder.stream.SubmitSparseMatVecInto", span, int64(i))
			t0 := time.Now()
			tk, err := s.SubmitSparseMatVecInto(dst, mv, p.xs[0], nil, core.EngineCompiled)
			t1 := time.Now()
			l.tr.End(sub)
			if err == nil {
				_, err = tk.Wait()
			}
			t2 := time.Now()
			l.tr.End(span)
			if err != nil {
				l.fail(fmt.Sprintf("stream sparse %s: %v", p.name, err))
				break
			}
			if r == 0 {
				continue
			}
			submit = append(submit, float64(t1.Sub(t0))/1e3)
			best = minPos(best, float64(t2.Sub(t0))/1e3)
		}
		sparseTicket = append(sparseTicket, best)
	}
	mean, mx := ds.finish()
	stats1 := s.Stats()
	set("stream.submit_us", median(submit))
	set("stream.ticket_us", mean64(sparseTicket))
	set("stream.overhead_us", mean64(sparseTicket)-st.pass/float64(max(st.pats, 1)))
	set("stream.solve_ticket_us", mean64(solveTicket))
	set("stream.solve_overhead_us", mean64(solveTicket)-dt.solve/float64(max(dt.problems, 1)))
	set("stream.queue_depth_mean", mean)
	set("stream.queue_depth_max", float64(mx))
	set("stream.shed", float64(stats1.Shed-stats0.Shed))
	set("stream.expired", float64(stats1.Expired-stats0.Expired))
	set("stream.panics", float64(stats1.Panics-stats0.Panics))
	set("stream.pred_wait_err", median(predErr))

	l.runHTTP(s, sample, xs, set)
}

// runHTTP is the HTTP rung: each sampled system POSTed to a solved.Server
// over one connection, one request at a time. The client's round-trip
// span is the parent of the handler span.
func (l *ladder) runHTTP(s *stream.Scheduler, sample ladderSample, xs []matrix.Vector, set func(string, float64)) {
	srv := solved.New(solved.Config{Stream: s})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.fail("listen: " + err.Error())
		return
	}
	tr := l.tr
	hs := &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		tracedServe(tr, srv, rw, req)
	})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	defer func() {
		_ = hs.Close()
		wg.Wait()
	}()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/solve"
	var rt, reqBytes, respBytes []float64
	statuses := map[int]int{}
	for i, p := range sample.dense {
		if xs[i] == nil {
			continue
		}
		body := append(encodeSystem(p.a, p.d), fmt.Sprintf(`,"w":%d,"engine":"compiled"}`, p.s.w)...)
		for r := 0; r <= ladderReps; r++ {
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				l.fail(err.Error())
				return
			}
			span := tr.Begin("http.roundtrip", -1, int64(i))
			setSpanHeaders(req, span, int64(i))
			t0 := time.Now()
			resp, err := client.Do(req)
			var out []byte
			if err == nil {
				out, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			el := time.Since(t0)
			tr.End(span)
			if err != nil {
				l.fail(fmt.Sprintf("http %v: %v", p.s, err))
				return
			}
			statuses[resp.StatusCode]++
			x, derr := decodeX(out)
			if resp.StatusCode != http.StatusOK || derr != nil || !bitEqual(x, xs[i]) {
				l.fail(fmt.Sprintf("http %v: status %d, answer differs from Workspace.Solve", p.s, resp.StatusCode))
				continue
			}
			if r == 0 {
				continue
			}
			rt = append(rt, float64(el)/1e3)
			reqBytes = append(reqBytes, float64(len(body)))
			respBytes = append(respBytes, float64(len(out)))
		}
	}
	set("solved.req_bytes", median(reqBytes))
	set("solved.resp_bytes", median(respBytes))
	addStatuses(statuses, set)
	set("solved.roundtrip_us", mean64(rt))
}

// addStatuses folds HTTP status counts into the solved.status_* metrics.
func addStatuses(statuses map[int]int, set func(string, float64)) {
	var c200, c4xx, c429, c504, c5xx float64
	for code, n := range statuses {
		switch {
		case code == http.StatusOK:
			c200 += float64(n)
		case code == http.StatusTooManyRequests:
			c429 += float64(n)
		case code == http.StatusGatewayTimeout:
			c504 += float64(n)
		case code >= 400 && code < 500:
			c4xx += float64(n)
		default:
			c5xx += float64(n)
		}
	}
	set("solved.status_200", c200)
	set("solved.status_4xx", c4xx)
	set("solved.status_429", c429)
	set("solved.status_504", c504)
	set("solved.status_5xx", c5xx)
}

// decodeX returns the solution of a 200 /solve body.
func decodeX(body []byte) (matrix.Vector, error) {
	var r solved.Response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return r.X, nil
}

// relErr is |pred − obs| / obs.
func relErr(pred, obs time.Duration) float64 {
	if obs <= 0 {
		return 0
	}
	d := float64(pred - obs)
	if d < 0 {
		d = -d
	}
	return d / float64(obs)
}

// minPos is min(best, v) where best == 0 means unset.
func minPos(best, v float64) float64 {
	if best == 0 || v < best {
		return v
	}
	return best
}

func mean64(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
