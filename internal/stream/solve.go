package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solve"
)

// Solve-as-a-service: the paper's headline workload — the full direct
// solve, BlockLU plus both triangular phases — streamed through the same
// sharded runtime as the matvec/matmul/sparse tickets. Each shard's arena
// keeps a small pool of warm solve.Workspaces, one per recently used array
// size (built on first use via solve.NewWorkspaceArena, cached with
// core.Arena.Keep), so a repeating stream of solves reuses the shard's
// compiled plans and, on the Into variant, allocates nothing once warm.
// Solve jobs participate in EWMA admission, priority classes,
// expiry-while-queued and panic isolation exactly like every other job
// kind: they share the one pooled job.

// solveKeepKey is the core.Arena Keep key of a shard's solvePool. Nothing
// else in the repository keys it.
const solveKeepKey uint64 = 0x50

// keptSolveWorkspaces bounds the warm solve workspaces one shard keeps.
// Each holds n×n work, L and U buffers for the largest system it has
// solved, so keeping one per distinct array size would let a stream of
// distinct sizes pin memory without limit.
const keptSolveWorkspaces = 4

// solvePool is a shard's warm solve workspaces, one per array size, the
// least recently used evicted when a new size needs a slot.
type solvePool struct {
	ws    [keptSolveWorkspaces]*solve.Workspace
	w     [keptSolveWorkspaces]int
	used  [keptSolveWorkspaces]uint64
	clock uint64
}

// arenaSolveWorkspace returns the running shard's warm solve workspace for
// array size w, building one on the shard's arena when the shard's pool
// holds none for that size. The workspace shares the arena's scratch with
// the shard's pass jobs and survives arena Resets, so every later solve of
// the same size on this shard is scratch-warm while the size stays among
// the pool's keptSolveWorkspaces most recently used. The hit path is one map
// lookup, one type assertion and a scan of the pool — no allocation.
func arenaSolveWorkspace(ar *core.Arena, w int) *solve.Workspace {
	p, _ := ar.Kept(solveKeepKey).(*solvePool)
	if p == nil {
		p = &solvePool{}
		ar.Keep(solveKeepKey, p)
	}
	p.clock++
	victim := 0
	for i, ws := range p.ws {
		if ws != nil && p.w[i] == w {
			p.used[i] = p.clock
			return ws
		}
		if p.used[i] < p.used[victim] {
			victim = i
		}
	}
	ws := solve.NewWorkspaceArena(w, ar)
	p.ws[victim], p.w[victim], p.used[victim] = ws, w, p.clock
	return ws
}

// validateSolve checks a solve submission's shapes and the option
// combinations the stream cannot honor synchronously, so a malformed
// request fails at Submit instead of poisoning a ticket.
func validateSolve(a *matrix.Dense, d matrix.Vector, w int, opts solve.Options) error {
	if w < 1 {
		return fmt.Errorf("stream: invalid array size %d", w)
	}
	n := a.Rows()
	if a.Cols() != n {
		return fmt.Errorf("stream: solve needs a square matrix, got %d×%d", n, a.Cols())
	}
	if len(d) != n {
		return fmt.Errorf("stream: len(d)=%d, want %d", len(d), n)
	}
	if opts.Executor != nil {
		return fmt.Errorf("stream: solve options must not carry an executor (a stream job cannot block on one backed by its own scheduler)")
	}
	if opts.Pivot != solve.PivotNone && opts.Pivot != solve.PivotPartial {
		return fmt.Errorf("stream: unknown pivot policy %d", int(opts.Pivot))
	}
	if opts.Refine.MaxIters < 0 {
		return fmt.Errorf("stream: negative refinement budget %d", opts.Refine.MaxIters)
	}
	return nil
}

// solveResult is a full solve job's result: caller-owned copies of the
// solution and stats.
type solveResult struct {
	x     matrix.Vector
	stats solve.SolveStats
}

// SolveTicket is the one-shot future of a SubmitSolveOpts job.
type SolveTicket struct{ t Ticket[solveResult] }

// Wait blocks until the solve finishes and returns the solution and stats —
// exactly what the serial one-shot solve.Solve would return, residual and
// pivot permutation included. The returned vector and stats are fresh
// copies owned by the caller; on error both are nil. See Ticket.Wait for
// the redemption rules.
func (t SolveTicket) Wait() (matrix.Vector, *solve.SolveStats, error) {
	r, err := t.t.Wait()
	if err != nil {
		return nil, nil, err
	}
	return r.x, &r.stats, nil
}

// solveWork runs one full direct solve on the running shard's warm
// arena-pooled workspace (serial pass decomposition — a stream job must
// not block on an executor backed by its own scheduler — so results and
// stats are bit-identical to one-shot solve.Solve).
type solveWork struct {
	a    *matrix.Dense
	d    matrix.Vector
	w    int
	opts solve.Options
}

func (m solveWork) run(ar *core.Arena) (solveResult, error) {
	x, stats, err := arenaSolveWorkspace(ar, m.w).Solve(m.a, m.d, m.opts)
	if err != nil {
		return solveResult{}, err
	}
	// x and stats are workspace-owned; the caller gets fresh copies — the
	// pivot permutation included (it aliases the workspace the next solve
	// on this shard will scribble on).
	r := solveResult{x: append(matrix.Vector(nil), x...), stats: *stats}
	r.stats.LU.Perm = append([]int(nil), stats.LU.Perm...)
	return r, nil
}

func (m solveWork) key() routeKey {
	return routeKey{6, m.w, m.a.Rows(), m.a.Cols(), int(m.opts.Engine)}
}

// SubmitSolveOpts enqueues one full direct solve A·x = d (BlockLU plus
// both triangular phases, paper §4's complete pipeline) for array size w
// with the full solver options — engine, pivot policy, iterative
// refinement — and an optional QoS (see QoS; more than one fails with
// ErrExtraQoS). Solves route by shape affinity — same (n, w, engine), same
// shard — so a repeating stream of solves replays the shard workspace's
// compiled plans. A zero pivot resolves the ticket with an errors.As-
// matchable *solve.SingularError carrying the pivot index, and a
// refinement that fails to converge with the typed
// *solve.IllConditionedError carrying its ConditionReport — never an
// unconverged solution; either way the shard keeps serving.
// opts.Executor must be nil — a stream job cannot block on an executor
// backed by its own scheduler. Inputs must stay untouched until the ticket
// is redeemed.
func (s *Scheduler) SubmitSolveOpts(a *matrix.Dense, d matrix.Vector, w int, opts solve.Options, q ...QoS) (SolveTicket, error) {
	if err := validateSolve(a, d, w, opts); err != nil {
		return SolveTicket{}, err
	}
	t, err := submit(s, &solveJobs, solveWork{a, d, w, opts}, q)
	return SolveTicket{t}, err
}

// solveIntoWork runs one full direct solve like solveWork, writing the
// solution into the caller's buffer.
type solveIntoWork struct {
	dst matrix.Vector
	solveWork
}

func (m solveIntoWork) run(ar *core.Arena) (solve.SolveStats, error) {
	x, stats, err := arenaSolveWorkspace(ar, m.w).Solve(m.a, m.d, m.opts)
	if err != nil {
		return solve.SolveStats{}, err
	}
	copy(m.dst, x)
	st := *stats
	// The zero-alloc path can neither copy the workspace-owned permutation
	// nor alias it (the pooled workspace outlives the ticket); RowSwaps
	// still reports the pivoting work.
	st.LU.Perm = nil
	return st, nil
}

func (m solveIntoWork) key() routeKey {
	return routeKey{7, m.w, m.a.Rows(), m.a.Cols(), int(m.opts.Engine)}
}

// SubmitSolveIntoOpts is SubmitSolveOpts writing the solution into dst
// (len = n, which must not alias d) — the zero-allocation solve stream
// path: once the affinity shard is warm on the shape, submit, execution
// and redemption allocate nothing, with pivoting, refinement and a QoS
// enabled (all ride in the pooled job and the shard workspace's reused
// buffers). Wait returns the stats by value, reporting the pivoting work
// as LU.RowSwaps but with a nil LU.Perm — the permutation slice is owned
// by the pooled shard workspace and handing it out would alias the next
// solve; use SubmitSolveOpts when the permutation itself is needed. Inputs
// and dst must stay untouched until the ticket is redeemed; on error dst
// is untouched.
func (s *Scheduler) SubmitSolveIntoOpts(dst matrix.Vector, a *matrix.Dense, d matrix.Vector, w int, opts solve.Options, q ...QoS) (Ticket[solve.SolveStats], error) {
	if err := validateSolve(a, d, w, opts); err != nil {
		return Ticket[solve.SolveStats]{}, err
	}
	if len(dst) != a.Rows() {
		return Ticket[solve.SolveStats]{}, fmt.Errorf("stream: dst len %d, want %d", len(dst), a.Rows())
	}
	return submit(s, &solveIntoJobs, solveIntoWork{dst, solveWork{a, d, w, opts}}, q)
}
