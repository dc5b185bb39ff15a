package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
	"repro/internal/sparse"
)

// ErrExtraQoS is returned by a Submit* call handed more than one QoS
// value. Nothing was enqueued and no admission counter moved.
var ErrExtraQoS = errors.New("stream: a submission takes at most one QoS")

// work is what one job kind contributes to the pooled job: run executes
// the job on the running shard's arena and returns the ticket's result,
// key names the shape the job routes by. Everything else — admission,
// expiry, fault injection, service timing, panic delivery and recycling —
// is the job's, once for every kind.
type work[T any] interface {
	run(ar *core.Arena) (T, error)
	key() routeKey
}

// header is the kind-independent half of a pooled job: the admission
// state execution needs, the result's error and the completion signal.
type header struct {
	s        *Scheduler
	seq      uint64 // injector determinism
	deadline time.Time
	err      error
	// done carries exactly one completion signal per submission; the
	// ticket's Wait consumes it, keeping the channel clean for reuse.
	done chan struct{}
}

// begin opens a job's execution on worker: a job whose deadline passed
// while it sat queued is resolved with the typed expiry error and reported
// dead — its workload never runs, its caller buffer stays untouched. A
// live job gets its start time, taken before the injected faults so their
// delays land in the shard's EWMA like any other slowdown.
func (h *header) begin(worker int) (time.Time, bool) {
	if !h.deadline.IsZero() && !time.Now().Before(h.deadline) {
		h.err = &DeadlineError{Expired: true}
		h.s.expired.Add(1)
		h.finish()
		return time.Time{}, false
	}
	start := time.Now()
	if in := h.s.inject; in != nil {
		in.perturb(worker, h.seq)
	}
	return start, true
}

// finish counts the job complete and signals its ticket; the job must not
// be touched afterwards (its redeemer may already be recycling it).
func (h *header) finish() {
	h.s.completed.Add(1)
	h.done <- struct{}{}
}

// JobPanicked implements core.PanicCarrier: a panic the fleet recovered
// from this job resolves the ticket with the structured *core.PanicError
// (value + stack) and counts toward Stats.Panics. The shard that ran the
// job keeps serving — one poisoned job can never take it down.
func (h *header) JobPanicked(err *core.PanicError) {
	h.err = err
	h.s.panics.Add(1)
	h.finish()
}

// job is one unit of stream work, pooled per kind so the steady state of a
// warmed stream submits without allocating. It implements core.Pass and
// runs on the shard's goroutine with the shard's arena.
type job[T any, W work[T]] struct {
	header
	work W
	res  T
	pool *jobPool[T, W]
}

// RunPass executes the job on the running shard's arena, folds its service
// time into the executing shard's EWMA (which admission multiplies by
// queue depth to predict waits) and signals the ticket.
func (j *job[T, W]) RunPass(worker int, ar *core.Arena) {
	start, live := j.begin(worker)
	if !live {
		return
	}
	j.res, j.err = j.work.run(ar)
	j.s.observe(worker, time.Since(start))
	j.finish()
}

// wait blocks for the completion signal, takes the result and recycles the
// job.
func (j *job[T, W]) wait() (T, error) {
	<-j.done
	res, err := j.res, j.err
	j.release()
	return res, err
}

// release scrubs the job and returns it to its pool. Only wait and failed
// admissions release jobs — a never-redeemed ticket's job is dropped to
// the garbage collector rather than recycled with a stale completion
// signal.
func (j *job[T, W]) release() {
	*j = job[T, W]{header: header{done: j.done}, pool: j.pool}
	j.pool.Put(j)
}

// jobPool recycles the jobs of one kind; the type parameters tie each pool
// to the job type it holds.
type jobPool[T any, W work[T]] struct{ sync.Pool }

// get draws a recycled job or builds a fresh one.
func (p *jobPool[T, W]) get() *job[T, W] {
	if j, ok := p.Get().(*job[T, W]); ok {
		return j
	}
	return &job[T, W]{header: header{done: make(chan struct{}, 1)}, pool: p}
}

// One pool per job kind, shared by every scheduler (a drawn job is bound
// to its scheduler at submit).
var (
	matVecJobs          jobPool[*core.MatVecResult, matVecWork]
	matVecIntoJobs      jobPool[int, matVecIntoWork]
	matMulJobs          jobPool[*core.MatMulResult, matMulWork]
	matMulIntoJobs      jobPool[int, matMulIntoWork]
	sparseJobs          jobPool[*sparse.Result, sparseWork]
	sparseIntoJobs      jobPool[int, sparseIntoWork]
	sparseBatchJobs     jobPool[[]*sparse.Result, sparseBatchWork]
	sparseBatchIntoJobs jobPool[int, sparseBatchIntoWork]
	solveJobs           jobPool[solveResult, solveWork]
	solveIntoJobs       jobPool[solve.SolveStats, solveIntoWork]
)

// submit is the one submission path: it checks the optional QoS, draws a
// pooled job of w's kind, stamps its sequence number and routes it to its
// affinity shard under the scheduler's admission rules.
func submit[T any, W work[T]](s *Scheduler, pool *jobPool[T, W], w W, q []QoS) (Ticket[T], error) {
	var qos QoS
	switch len(q) {
	case 0:
	case 1:
		qos = q[0]
	default:
		return Ticket[T]{}, fmt.Errorf("%w, got %d", ErrExtraQoS, len(q))
	}
	j := pool.get()
	j.s, j.seq, j.deadline, j.work = s, s.seq.Add(1), qos.Deadline, w
	if err := s.enqueue(j, j.seq, qos, shardOf(s.fleet.Shards(), w.key())); err != nil {
		j.release()
		return Ticket[T]{}, err
	}
	return Ticket[T]{j}, nil
}

// Ticket is the one-shot future of a submitted job.
type Ticket[T any] struct {
	j interface{ wait() (T, error) }
}

// Wait blocks until the job finishes and returns its result — exactly what
// the serial call the job stands for would return, statistics included —
// or the job's error. A job that expired or panicked returns its error
// with T's zero value. Each ticket must be redeemed at most once;
// the zero ticket (returned alongside a Submit error) must not be waited
// on.
func (t Ticket[T]) Wait() (T, error) { return t.j.wait() }

// PassTicket is the ticket of a matvec, matmul or sparse Into job: the
// result lands in the buffer the caller handed to Submit, Wait returns the
// measured step count T.
type PassTicket = Ticket[int]

// matVecWork runs one full matvec problem through the same core solver a
// serial caller would use (global plan cache, fresh result).
type matVecWork struct {
	w int
	p core.MatVecProblem
}

func (m matVecWork) run(*core.Arena) (*core.MatVecResult, error) {
	return core.NewMatVecSolver(m.w).Solve(m.p.A, m.p.X, m.p.B, m.p.Opts)
}

func (m matVecWork) key() routeKey {
	return routeKey{0, m.w, m.p.A.Rows(), m.p.A.Cols(), int(m.p.Opts.Engine)}
}

// SubmitMatVec enqueues one y = A·x + b problem for a w-PE linear array
// and returns its ticket, whose Wait returns exactly what the serial
// core.MatVecSolver.Solve would. An optional QoS attaches a deadline and a
// priority class (see QoS); more than one fails with ErrExtraQoS. The
// problem's inputs must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitMatVec(w int, p core.MatVecProblem, q ...QoS) (Ticket[*core.MatVecResult], error) {
	return submit(s, &matVecJobs, matVecWork{w, p}, q)
}

// matVecIntoWork replays one matvec pass on the shard's arena into the
// caller's buffer.
type matVecIntoWork struct {
	dst  matrix.Vector
	a    *matrix.Dense
	x, b matrix.Vector
	w    int
	eng  core.Engine
}

func (m matVecIntoWork) run(ar *core.Arena) (int, error) {
	return ar.MatVecPass(m.dst, m.a, m.x, m.b, m.w, m.eng)
}

func (m matVecIntoWork) key() routeKey {
	return routeKey{2, m.w, m.a.Rows(), m.a.Cols(), int(m.eng)}
}

// SubmitMatVecInto enqueues one y = A·x + b pass (b may be nil) writing
// into dst (len = A.Rows(), which must not alias x or b) on the selected
// engine — the zero-allocation stream path: once the affinity shard is
// warm on the shape, submit, execution and redemption allocate nothing,
// with or without a QoS (it rides in the pooled job). Inputs and dst must
// stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitMatVecInto(dst matrix.Vector, a *matrix.Dense, x, b matrix.Vector, w int, eng core.Engine, q ...QoS) (PassTicket, error) {
	if len(dst) != a.Rows() {
		return PassTicket{}, fmt.Errorf("stream: dst len %d, want %d", len(dst), a.Rows())
	}
	return submit(s, &matVecIntoJobs, matVecIntoWork{dst, a, x, b, w, eng}, q)
}

// matMulWork runs one full matmul problem through the serial core solver.
type matMulWork struct {
	w int
	p core.MatMulProblem
}

func (m matMulWork) run(*core.Arena) (*core.MatMulResult, error) {
	return core.NewMatMulSolver(m.w).Solve(m.p.A, m.p.B, m.p.Opts)
}

func (m matMulWork) key() routeKey {
	return routeKey{1, m.w, m.p.A.Rows(), m.p.B.Cols(), m.p.A.Cols()}
}

// SubmitMatMul enqueues one C = A·B [+ E] problem for a w×w hexagonal
// array and returns its ticket; QoS and redemption rules are those of
// SubmitMatVec.
func (s *Scheduler) SubmitMatMul(w int, p core.MatMulProblem, q ...QoS) (Ticket[*core.MatMulResult], error) {
	return submit(s, &matMulJobs, matMulWork{w, p}, q)
}

// matMulIntoWork replays one matmul pass on the shard's arena into the
// caller's matrix.
type matMulIntoWork struct {
	dst, a, b, e *matrix.Dense
	w            int
	eng          core.Engine
}

func (m matMulIntoWork) run(ar *core.Arena) (int, error) {
	return ar.MatMulPass(m.dst, m.a, m.b, m.e, m.w, m.eng)
}

func (m matMulIntoWork) key() routeKey {
	return routeKey{3, m.w, m.a.Rows(), m.b.Cols(), m.a.Cols()}
}

// SubmitMatMulInto enqueues one C = A·B + E pass (e may be nil) writing
// into dst (A.Rows()×B.Cols(), which must not alias a, b or e) on the
// selected engine; QoS and allocation behavior match SubmitMatVecInto.
// Inputs and dst must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitMatMulInto(dst, a, b, e *matrix.Dense, w int, eng core.Engine, q ...QoS) (PassTicket, error) {
	if dst.Rows() != a.Rows() || dst.Cols() != b.Cols() {
		return PassTicket{}, fmt.Errorf("stream: dst %d×%d, want %d×%d", dst.Rows(), dst.Cols(), a.Rows(), b.Cols())
	}
	return submit(s, &matMulIntoJobs, matMulIntoWork{dst, a, b, e, w, eng}, q)
}

// sparseKey routes a sparse job by pattern affinity: shape plus the
// retained-block pattern digest, so a repeating sparsity pattern replays
// on the shard whose arena scratch is already sized for it.
func sparseKey(salt int, t *sparse.MatVec) routeKey {
	k := t.Key()
	return routeKey{salt, int(k.Digest), k.W, k.NBar, k.MBar}
}

// sparseWork is one full-result sparse solve (fresh result, exactly the
// serial SolveEngine's).
type sparseWork struct {
	t    *sparse.MatVec
	x, b matrix.Vector
	eng  core.Engine
}

func (m sparseWork) run(*core.Arena) (*sparse.Result, error) {
	return m.t.SolveEngine(m.x, m.b, m.eng)
}

func (m sparseWork) key() routeKey { return sparseKey(4, m.t) }

// SubmitSparseMatVec enqueues one sparse y = A·x + b problem (paper §4,
// b may be nil) on the selected engine and returns its ticket, whose Wait
// returns exactly what the serial sparse.MatVec.SolveEngine would. Jobs
// are routed by pattern affinity — same retained-block pattern, same
// shard. QoS rules are those of SubmitMatVec. The transformation and
// inputs must stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitSparseMatVec(t *sparse.MatVec, x, b matrix.Vector, eng core.Engine, q ...QoS) (Ticket[*sparse.Result], error) {
	return submit(s, &sparseJobs, sparseWork{t, x, b, eng}, q)
}

// sparseIntoWork replays one sparse pass into the caller's buffer.
type sparseIntoWork struct {
	dst  matrix.Vector
	t    *sparse.MatVec
	x, b matrix.Vector
	eng  core.Engine
}

func (m sparseIntoWork) run(ar *core.Arena) (int, error) {
	return m.t.PassInto(ar, m.dst, m.x, m.b, m.eng)
}

func (m sparseIntoWork) key() routeKey { return sparseKey(5, m.t) }

// SubmitSparseMatVecInto enqueues one sparse y = A·x + b pass (b may be
// nil) writing into dst (len = A.Rows(), which must not alias x or b) on
// the selected engine — the zero-allocation sparse stream path once the
// pattern-affinity shard is warm. The transformation, inputs and dst must
// stay untouched until the ticket is redeemed.
func (s *Scheduler) SubmitSparseMatVecInto(dst matrix.Vector, t *sparse.MatVec, x, b matrix.Vector, eng core.Engine, q ...QoS) (PassTicket, error) {
	if len(dst) != t.N {
		return PassTicket{}, fmt.Errorf("stream: dst len %d, want %d", len(dst), t.N)
	}
	return submit(s, &sparseIntoJobs, sparseIntoWork{dst, t, x, b, eng}, q)
}

// checkBatch validates a sparse batch's x/b lengths at submit.
func checkBatch(xs, bs []matrix.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("stream: empty sparse batch")
	}
	if bs != nil && len(bs) != len(xs) {
		return fmt.Errorf("stream: batch has %d x vectors but %d b vectors", len(xs), len(bs))
	}
	return nil
}

// sparseBatchWork replays the pattern-keyed plan once over every vector of
// the batch (fresh results).
type sparseBatchWork struct {
	t      *sparse.MatVec
	xs, bs []matrix.Vector
	eng    core.Engine
}

func (m sparseBatchWork) run(*core.Arena) ([]*sparse.Result, error) {
	return m.t.SolveMany(m.xs, m.bs, m.eng)
}

func (m sparseBatchWork) key() routeKey { return sparseKey(8, m.t) }

// SubmitSparseBatch enqueues k sparse solves y_v = A·x_v + b_v sharing one
// transformation as a single batched job — one ticket, one queue slot, one
// admission decision (and one deadline) for the whole batch. The shard
// replays the pattern-keyed plan once over all k vectors
// (sparse.MatVec.SolveMany); each returned Result is bit-identical to an
// independent SubmitSparseMatVec of that vector. bs may be nil (every b is
// zero) or hold nil entries; otherwise len(bs) must equal len(xs).
// Routing follows the single-vector sparse jobs' pattern affinity. The
// transformation and every vector must stay untouched until the ticket is
// redeemed.
func (s *Scheduler) SubmitSparseBatch(t *sparse.MatVec, xs, bs []matrix.Vector, eng core.Engine, q ...QoS) (Ticket[[]*sparse.Result], error) {
	if err := checkBatch(xs, bs); err != nil {
		return Ticket[[]*sparse.Result]{}, err
	}
	return submit(s, &sparseBatchJobs, sparseBatchWork{t, xs, bs, eng}, q)
}

// sparseBatchIntoWork replays one batched sparse pass into the caller's
// buffers.
type sparseBatchIntoWork struct {
	dsts   []matrix.Vector
	t      *sparse.MatVec
	xs, bs []matrix.Vector
	eng    core.Engine
}

func (m sparseBatchIntoWork) run(ar *core.Arena) (int, error) {
	return m.t.PassManyInto(ar, m.dsts, m.xs, m.bs, m.eng)
}

func (m sparseBatchIntoWork) key() routeKey { return sparseKey(9, m.t) }

// SubmitSparseBatchInto is the Into form of SubmitSparseBatch: the shard
// writes dsts[v] = A·xs[v] + bs[v] for every vector in one batched pass
// (sparse.MatVec.PassManyInto) and the ticket returns the per-pass step
// count — the zero-allocation batch path once the pattern-affinity shard
// is warm. Every dst must have length A.Rows() and must not alias any x or
// b; the transformation, inputs and dsts must stay untouched until the
// ticket is redeemed.
func (s *Scheduler) SubmitSparseBatchInto(dsts []matrix.Vector, t *sparse.MatVec, xs, bs []matrix.Vector, eng core.Engine, q ...QoS) (PassTicket, error) {
	if err := checkBatch(xs, bs); err != nil {
		return PassTicket{}, err
	}
	if len(dsts) != len(xs) {
		return PassTicket{}, fmt.Errorf("stream: batch has %d dst vectors but %d x vectors", len(dsts), len(xs))
	}
	for v := range dsts {
		if len(dsts[v]) != t.N {
			return PassTicket{}, fmt.Errorf("stream: batch dst %d len %d, want %d", v, len(dsts[v]), t.N)
		}
	}
	return submit(s, &sparseBatchIntoJobs, sparseBatchIntoWork{dsts, t, xs, bs, eng}, q)
}
