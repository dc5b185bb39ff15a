package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// patternSpec is one recurring band pattern of sparse-stream.
type patternSpec struct {
	name string
	n, w int
	// band is the element half-bandwidth (1 = tridiagonal, 2 =
	// pentadiagonal); zero means block-banded with blockBand.
	band, blockBand int
}

// sparsePatterns are the recurring patterns: tri- and penta-diagonal
// stencils and block-banded matrices with n̄ from 8 to 32, w ∈ {4, 8}.
var sparsePatterns = []patternSpec{
	{name: "tri.n64.w4", n: 64, w: 4, band: 1},
	{name: "tri.n128.w8", n: 128, w: 8, band: 1},
	{name: "penta.n96.w4", n: 96, w: 4, band: 2},
	{name: "penta.n64.w8", n: 64, w: 8, band: 2},
	{name: "blk.nb8.w4", n: 32, w: 4, blockBand: 1},
	{name: "blk.nb32.w4", n: 128, w: 4, blockBand: 1},
	{name: "blk.nb16.w8", n: 128, w: 8, blockBand: 1},
	{name: "blk.nb12.w8", n: 96, w: 8, blockBand: 2},
}

const (
	// poolSize is how many x vectors each recurring pattern cycles through;
	// their oracle answers are computed before the timed phase.
	poolSize = 16
	// window is how many sparse tickets the loop keeps in flight.
	window = 8
	// freshEvery: one job in each deck of this many carries a never-seen
	// pattern (about 1.6%).
	freshEvery = 64
	// sparseSimPrefix is how many jobs of the schedule sim_steps averages.
	sparseSimPrefix = 4096
	// freshKeep is how many fresh-pattern answers are kept for the oracle
	// check after the timed phase.
	freshKeep = 24
	// traceEvery: a traced phase records the spans of one job in this
	// many; all of them would be millions of spans.
	traceEvery = 16
)

// buildPattern returns a matrix with spec's structure and seeded values.
func buildPattern(rng *rand.Rand, p patternSpec) *matrix.Dense {
	a := matrix.NewDense(p.n, p.n)
	for i := 0; i < p.n; i++ {
		for j := 0; j < p.n; j++ {
			keep := false
			if p.band > 0 {
				keep = abs(i-j) <= p.band
			} else {
				keep = abs(i/p.w-j/p.w) <= p.blockBand
			}
			if keep {
				a.Set(i, j, 2*rng.Float64()-1)
			}
		}
	}
	return a
}

// freshPattern returns a matrix whose block pattern is almost surely new:
// n̄ from 8 to 16, w ∈ {4, 8}, every diagonal block plus about a third of
// the off-diagonal blocks.
func freshPattern(rng *rand.Rand) (*matrix.Dense, int) {
	w := 4 << rng.IntN(2)
	nbar := 8 + rng.IntN(9)
	n := nbar * w
	a := matrix.NewDense(n, n)
	for r := 0; r < nbar; r++ {
		for s := 0; s < nbar; s++ {
			if r != s && rng.IntN(3) != 0 {
				continue
			}
			for i := r * w; i < (r+1)*w; i++ {
				for j := s * w; j < (s+1)*w; j++ {
					a.Set(i, j, 2*rng.Float64()-1)
				}
			}
		}
	}
	return a, w
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func randVector(rng *rand.Rand, n int) matrix.Vector {
	v := matrix.NewVector(n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// recurring is one recurring pattern with its x pool and the oracle's
// answers for it.
type recurring struct {
	spec patternSpec
	mv   *sparse.MatVec
	xs   []matrix.Vector
	ref  []matrix.Vector
	refT int
}

type jobKind uint8

const (
	jobSingle jobKind = iota
	jobBatch4
	jobBatch16
	jobFresh
)

func (k jobKind) vectors() int {
	switch k {
	case jobBatch4:
		return 4
	case jobBatch16:
		return 16
	}
	return 1
}

// slot is one in-flight ticket of the window.
type slot struct {
	busy   bool
	kind   jobKind
	pat    int
	off    int
	index  int
	submit time.Time
	tk     stream.PassTicket
	span   int
	tr     *Tracer // the job's tracer; nil when the job is not traced
	pred   time.Duration
	fresh  *sparse.MatVec
	freshA *matrix.Dense
	freshX matrix.Vector
	dsts   []matrix.Vector
	bufs   [][]float64
}

// freshCheck is a fresh-pattern job kept for the oracle check.
type freshCheck struct {
	mv *sparse.MatVec
	x  matrix.Vector
	y  matrix.Vector
	t  int
}

// sparseWorkload is sparse-stream: one goroutine keeps a fixed window of
// sparse tickets in flight on a two-shard stream, cycling the recurring
// patterns as single passes and k ∈ {4, 16} batches, with a never-seen
// pattern in about one job in 64.
type sparseWorkload struct {
	seed   uint64
	s      *stream.Scheduler
	pats   []*recurring
	mix    *rand.Rand
	vals   *rand.Rand
	kinds  *deck[jobKind]
	fresh  *deck[bool]
	next   int
	start  time.Time
	slots  [window]slot
	checks []freshCheck
}

func newSparseWorkload(seed uint64) *sparseWorkload {
	mix := newRNG(seed, streamSparseMix)
	fresh := make([]bool, freshEvery)
	fresh[0] = true
	return &sparseWorkload{
		seed:  seed,
		mix:   mix,
		vals:  newRNG(seed, streamSparseValues),
		kinds: newDeck(mix, []jobKind{jobSingle, jobSingle, jobBatch4, jobBatch16}),
		fresh: newDeck(mix, fresh),
	}
}

// setup starts the stream and submits every recurring pattern once as a
// single pass and once as a batch, which compiles each pattern's plan on
// its affinity shard.
func (b *sparseWorkload) setup() error {
	b.s = stream.New(stream.Config{Shards: 2})
	rng := newRNG(b.seed, streamSparseValues+100)
	for _, p := range sparsePatterns {
		a := buildPattern(rng, p)
		r := &recurring{spec: p, mv: sparse.NewMatVec(a, p.w)}
		for i := 0; i < poolSize; i++ {
			r.xs = append(r.xs, randVector(rng, p.n))
		}
		b.pats = append(b.pats, r)
	}
	dst := matrix.NewVector(0)
	for _, r := range b.pats {
		dst = matrix.ReuseVec(dst, r.spec.n)
		tk, err := b.s.SubmitSparseMatVecInto(dst, r.mv, r.xs[0], nil, core.EngineCompiled)
		if err == nil {
			_, err = tk.Wait()
		}
		if err != nil {
			return fmt.Errorf("sparse-stream warm-up %s: %w", r.spec.name, err)
		}
		dsts := make([]matrix.Vector, 4)
		for i := range dsts {
			dsts[i] = matrix.NewVector(r.spec.n)
		}
		btk, err := b.s.SubmitSparseBatchInto(dsts, r.mv, r.xs[:4], nil, core.EngineCompiled)
		if err == nil {
			_, err = btk.Wait()
		}
		if err != nil {
			return fmt.Errorf("sparse-stream warm-up batch %s: %w", r.spec.name, err)
		}
	}
	maxN := 0
	for _, p := range sparsePatterns {
		maxN = max(maxN, p.n)
	}
	for i := range b.slots {
		sl := &b.slots[i]
		sl.dsts = make([]matrix.Vector, 16)
		sl.bufs = make([][]float64, 16)
		for v := range sl.bufs {
			sl.bufs[v] = make([]float64, 0, 16*maxN)
		}
	}
	return nil
}

// prepare computes the oracle engine's answer for every pooled x of every
// recurring pattern, so each timed answer is compared bit for bit.
func (b *sparseWorkload) prepare() error {
	for _, r := range b.pats {
		for _, x := range r.xs {
			res, err := r.mv.Solve(x, nil)
			if err != nil {
				return fmt.Errorf("oracle %s: %w", r.spec.name, err)
			}
			r.ref = append(r.ref, res.Y)
			r.refT = res.T
		}
	}
	return nil
}

func (b *sparseWorkload) scheduler() *stream.Scheduler { return b.s }

func (b *sparseWorkload) ladderInputs() ladderSample {
	return buildLadderSample(b.seed, denseShapes)
}

func (b *sparseWorkload) close() {
	if b.s != nil {
		b.s.Close()
	}
}

// sparseRun is what one timed phase of sparse-stream measured.
type sparseRun struct {
	samples   series // submit → Wait in µs, vectors per job
	vectors   int
	jobs      int
	fresh     int
	attempted int
	failed    int
	wrong     int
	simSteps  int
	simCount  int
	elapsed   time.Duration
	errs      []string
	predErr   []float64
}

// measure runs the closed loop for dur. With a tracer it records, for one
// job in traceEvery, a stream.ticket span with a stream.submit child, and
// compares the stream's admission prediction with the observed wait.
func (b *sparseWorkload) measure(dur time.Duration, tr *Tracer) *sparseRun {
	r := &sparseRun{}
	start := time.Now()
	b.start = start
	end := start.Add(dur)
	head := 0
	for {
		sl := &b.slots[head]
		if sl.busy {
			b.complete(sl, r)
		}
		if !time.Now().Before(end) {
			break
		}
		b.submit(sl, r, tr)
		head = (head + 1) % window
	}
	for i := 0; i < window; i++ {
		sl := &b.slots[(head+i)%window]
		if sl.busy {
			b.complete(sl, r)
		}
	}
	r.elapsed = dur
	return r
}

// submit fills sl with the schedule's next job and submits it.
func (b *sparseWorkload) submit(sl *slot, r *sparseRun, tr *Tracer) {
	idx := b.next
	b.next++
	sl.index, sl.pat, sl.fresh = idx, idx%len(b.pats), nil
	sl.kind = b.kinds.next()
	if b.fresh.next() {
		sl.kind = jobFresh
		a, w := freshPattern(b.vals)
		sl.freshA, sl.fresh = a, sparse.NewMatVec(a, w)
		sl.freshX = randVector(b.vals, a.Rows())
	}
	k := sl.kind.vectors()
	sl.off = 0
	if sl.kind == jobBatch4 || sl.kind == jobSingle {
		sl.off = b.mix.IntN(poolSize/k) * k
	}
	var mv *sparse.MatVec
	var xs []matrix.Vector
	if sl.kind == jobFresh {
		mv, xs = sl.fresh, []matrix.Vector{sl.freshX}
	} else {
		pr := b.pats[sl.pat]
		mv, xs = pr.mv, pr.xs[sl.off:sl.off+k]
	}
	for v := 0; v < k; v++ {
		sl.dsts[v] = sl.bufs[v][:mv.N]
	}
	if idx%traceEvery != 0 {
		tr = nil
	}
	sl.tr = tr
	if tr != nil {
		sl.pred = predictedWait(b.s)
	}
	sl.span = tr.Begin("stream.ticket", -1, int64(idx))
	sub := tr.Begin("stream.submit", sl.span, int64(idx))
	sl.submit = time.Now()
	var err error
	if k == 1 {
		sl.tk, err = b.s.SubmitSparseMatVecInto(sl.dsts[0], mv, xs[0], nil, core.EngineCompiled)
	} else {
		sl.tk, err = b.s.SubmitSparseBatchInto(sl.dsts[:k], mv, xs, nil, core.EngineCompiled)
	}
	tr.End(sub)
	r.attempted++
	r.jobs++
	if err != nil {
		tr.End(sl.span)
		r.failed++
		r.errs = appendErr(r.errs, fmt.Sprintf("job %d submit: %v", idx, err))
		return
	}
	sl.busy = true
}

// complete redeems sl's ticket and checks its answers.
func (b *sparseWorkload) complete(sl *slot, r *sparseRun) {
	sl.busy = false
	tr := sl.tr
	steps, err := sl.tk.Wait()
	done := time.Now()
	el := done.Sub(sl.submit)
	tr.End(sl.span)
	if tr != nil {
		r.predErr = append(r.predErr, relErr(sl.pred, el))
	}
	if err != nil {
		r.failed++
		r.errs = appendErr(r.errs, fmt.Sprintf("job %d: %v", sl.index, err))
		return
	}
	k := sl.kind.vectors()
	ok := true
	if sl.kind == jobFresh {
		r.fresh++
		y := sl.dsts[0]
		want := sl.freshA.MulVec(sl.freshX, nil)
		if !closeTo(y, want) {
			ok = false
		}
		if len(b.checks) < freshKeep {
			b.checks = append(b.checks, freshCheck{mv: sl.fresh, x: sl.freshX, y: append(matrix.Vector(nil), y...), t: steps})
		}
	} else {
		pr := b.pats[sl.pat]
		if steps != pr.refT {
			ok = false
		}
		for v := 0; v < k; v++ {
			if !bitEqual(sl.dsts[v], pr.ref[sl.off+v]) {
				ok = false
			}
		}
	}
	sl.fresh, sl.freshA, sl.freshX = nil, nil, nil
	if !ok {
		r.failed++
		r.wrong++
		r.errs = appendErr(r.errs, fmt.Sprintf("job %d (kind %d, pattern %d): wrong answer or step count", sl.index, sl.kind, sl.pat))
		return
	}
	r.vectors += k
	r.samples.add(done.Sub(b.start), float64(el)/float64(time.Microsecond), k)
	if sl.index < sparseSimPrefix {
		r.simSteps += steps
		r.simCount++
	}
}

// predictedWait is the admission model's prediction for a job submitted
// now, ServiceEWMA·(depth+1), averaged over the shards: the public API
// does not say which shard a job is routed to.
func predictedWait(s *stream.Scheduler) time.Duration {
	var sum time.Duration
	for i := 0; i < s.Shards(); i++ {
		sum += s.ServiceEWMA(i) * time.Duration(s.QueueDepth(i)+1)
	}
	return sum / time.Duration(s.Shards())
}

func bitEqual(a, b matrix.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// closeTo compares y with a host reference to 1e-12 relative to the
// reference's ∞-norm (the array sums in another order than the host).
func closeTo(y, want matrix.Vector) bool {
	if len(y) != len(want) {
		return false
	}
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range y {
		if !(math.Abs(y[i]-want[i]) <= 1e-12*scale) {
			return false
		}
	}
	return true
}

// check runs the kept fresh-pattern answers through the oracle engine and
// compares them bit for bit, step count included.
func (b *sparseWorkload) check(res *result) {
	for i, c := range b.checks {
		ref, err := c.mv.Solve(c.x, nil)
		if err != nil || !bitEqual(c.y, ref.Y) || ref.T != c.t {
			res.failed++
			res.wrong++
			res.errs = appendErr(res.errs, fmt.Sprintf("fresh pattern check %d: compiled answer differs from the oracle", i))
		}
	}
	res.addLine("sparse_oracle_checks", float64(len(b.checks)), "count", len(b.checks), "fresh-pattern answers compared bit for bit with the oracle after the timed phase")
	b.checks = nil
}

func (b *sparseWorkload) e2e(dur time.Duration) *result {
	return b.traced(dur, nil)
}

func (b *sparseWorkload) traced(dur time.Duration, tr *Tracer) *result {
	run := b.measure(dur, tr)
	res := newResult()
	res.attempted, res.failed, res.wrong = run.attempted, run.failed, run.wrong
	res.errs = run.errs
	res.ops = run.vectors
	bs := run.samples.blocks(run.elapsed, 0)
	perS, p50, p90 := medianBlocks(bs)
	s := summarize(run.samples.lat)
	sim := float64(run.simSteps) / float64(max(run.simCount, 1))
	res.e2e["ops_per_s"] = perS
	res.e2e["p50_ms"] = p50 / 1e3
	res.e2e["p90_ms"] = p90 / 1e3
	res.e2e["sim_steps"] = sim
	res.addLine("sparse_vectors_per_s", perS, "1/s", run.vectors, fmt.Sprintf("median block; %d jobs, window %d, 2 shards", run.jobs, window))
	res.addLine("sparse_p50_us", p50, "us", s.N, fmt.Sprintf("median block; whole run p50=%.4g", s.P50))
	res.addLine("sparse_p90_us", p90, "us", s.N, fmt.Sprintf("median block; whole run p90=%.4g %s", s.P90, tailNote(s, "us")))
	res.addLine("sim_steps", sim, "steps", run.simCount, fmt.Sprintf("mean T per job over the first %d jobs", sparseSimPrefix))
	res.layers["sparse.fresh_share"] = float64(run.fresh) / float64(max(run.jobs, 1))
	if len(run.predErr) > 0 {
		res.layers["stream.pred_wait_err"] = median(run.predErr)
	}
	return res
}
