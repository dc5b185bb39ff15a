package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
)

// qosProblem returns a small matvec problem with its serial reference.
func qosProblem(t *testing.T) (core.MatVecProblem, matrix.Vector) {
	t.Helper()
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	p := core.MatVecProblem{A: a, X: matrix.Vector{1, 1}}
	return p, matrix.Vector{3, 7}
}

// TestExpiryWhileQueued: a job admitted in time whose deadline passes while
// it sits behind a stalled shard is skipped — its ticket resolves to the
// typed expiry error, Stats.Expired counts it, and the workload never runs.
func TestExpiryWhileQueued(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	p, _ := qosProblem(t)

	// Occupy the only shard so the job queues behind the gate.
	gate := make(chan struct{})
	running := make(chan struct{})
	ex := s.NewExecutor()
	ex.Submit(func(int, *core.Arena) {
		close(running)
		<-gate
	})
	<-running

	deadline := time.Now().Add(10 * time.Millisecond)
	tk, err := s.SubmitMatVec(2, p, QoS{Deadline: deadline})
	if err != nil {
		t.Fatalf("submit with live deadline should queue: %v", err)
	}
	// Hold the gate until the deadline is unambiguously in the past.
	for !time.Now().After(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	ex.Barrier()

	res, err := tk.Wait()
	if res != nil {
		t.Error("expired job still produced a result")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ticket error = %v, want ErrDeadlineExceeded", err)
	}
	var derr *DeadlineError
	if !errors.As(err, &derr) || !derr.Expired {
		t.Fatalf("expired ticket error = %#v, want &DeadlineError{Expired: true}", err)
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Errorf("Stats.Expired = %d, want 1", st.Expired)
	}
	if st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("stats %+v: expired job must still complete exactly once", st)
	}
}

// TestPredictedWaitShedding: when every shard's predicted wait (queue depth
// × service-time EWMA) exceeds the deadline slack, admission sheds the job
// synchronously with the prediction attached — failing in nanoseconds
// instead of after the deadline has already passed.
func TestPredictedWaitShedding(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	p, want := qosProblem(t)

	// Teach admission that the only shard is slow (as the injector's
	// stalled-shard fault would, without the wall-clock cost).
	s.observe(0, 500*time.Millisecond)

	start := time.Now()
	_, err := s.SubmitMatVec(2, p, QoS{Deadline: time.Now().Add(50 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("submit = %v, want ErrDeadlineExceeded", err)
	}
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("submit error %#v is not a *DeadlineError", err)
	}
	if derr.Expired {
		t.Error("predicted-wait shed mislabeled as expiry")
	}
	if derr.PredictedWait < 100*time.Millisecond {
		t.Errorf("PredictedWait = %v, want the ~500ms EWMA prediction", derr.PredictedWait)
	}
	if elapsed > derr.PredictedWait {
		t.Errorf("shed took %v — longer than the %v wait it predicted", elapsed, derr.PredictedWait)
	}
	st := s.Stats()
	if st.Shed != 1 || st.ShedHigh != 1 {
		t.Errorf("stats %+v, want exactly one High shed", st)
	}

	// A job with enough slack — or none at all — is still admitted.
	tk, err := s.SubmitMatVec(2, p)
	if err != nil {
		t.Fatalf("deadline-free submit after a shed: %v", err)
	}
	if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("post-shed job: %v %v", res, err)
	}
}

// TestDeadlineReroute: when the affinity shard cannot make the deadline
// but a sibling can, admission reroutes instead of shedding.
func TestDeadlineReroute(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	p, want := qosProblem(t)

	affinity := shardOf(2, matVecWork{2, p}.key())
	s.observe(affinity, time.Second) // the affinity shard is hopeless
	// The sibling has no history → optimistic zero prediction.

	tk, err := s.SubmitMatVec(2, p, QoS{Deadline: time.Now().Add(5 * time.Second)})
	if err != nil {
		t.Fatalf("submit should reroute to the fast sibling, got %v", err)
	}
	if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("rerouted job: %v %v", res, err)
	}
	if st := s.Stats(); st.Shed != 0 || st.Expired != 0 {
		t.Errorf("stats %+v, want no sheds or expiries after a reroute", st)
	}
}

// TestPriorityClasses: under Block, a Low job never blocks — it sheds at
// its first full queue and is counted in ShedLow — while a High job blocks
// until space frees and then completes.
func TestPriorityClasses(t *testing.T) {
	s := New(Config{Shards: 1, QueueBound: 1, Policy: Block})
	defer s.Close()
	p, want := qosProblem(t)

	gate := make(chan struct{})
	running := make(chan struct{})
	ex := s.NewExecutor()
	ex.Submit(func(int, *core.Arena) {
		close(running)
		<-gate
	})
	<-running
	// Fill the single queue slot.
	tk0, err := s.SubmitMatVec(2, p)
	if err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}

	// Low sheds immediately even under the Block policy.
	if _, err := s.SubmitMatVec(2, p, QoS{Priority: Low}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Low submit into a full queue = %v, want ErrSaturated", err)
	}

	// High blocks; it must still be waiting until the gate opens.
	var highDone atomic.Bool
	highTk := make(chan Ticket[*core.MatVecResult], 1)
	go func() {
		tk, err := s.SubmitMatVec(2, p)
		highDone.Store(true)
		if err != nil {
			t.Errorf("blocked High submit failed: %v", err)
		}
		highTk <- tk
	}()
	time.Sleep(20 * time.Millisecond)
	if highDone.Load() {
		t.Fatal("High submit returned while the queue was still full")
	}
	close(gate)
	ex.Barrier()

	if res, err := tk0.Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("queued job: %v %v", res, err)
	}
	if res, err := (<-highTk).Wait(); err != nil || !res.Y.Equal(want, 0) {
		t.Fatalf("unblocked High job: %v %v", res, err)
	}
	st := s.Stats()
	if st.ShedLow != 1 || st.ShedHigh != 0 {
		t.Errorf("stats %+v, want exactly one Low shed and no High sheds", st)
	}
	if st.Submitted != 2 || st.Completed != 2 {
		t.Errorf("stats %+v, want 2 submitted and completed", st)
	}
}

// TestQoSFromContext: a context deadline becomes the QoS deadline; a
// deadline-free context yields the zero QoS.
func TestQoSFromContext(t *testing.T) {
	if q := QoSFromContext(context.Background()); q != (QoS{}) {
		t.Errorf("QoSFromContext(Background) = %+v, want zero", q)
	}
	d := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), d)
	defer cancel()
	q := QoSFromContext(ctx)
	if !q.Deadline.Equal(d) {
		t.Errorf("QoSFromContext deadline = %v, want %v", q.Deadline, d)
	}
	if q.Priority != High {
		t.Errorf("QoSFromContext priority = %v, want High", q.Priority)
	}
}

// TestSubmitWithRetry covers the retry helper: saturation is retried with
// backoff until success, attempt caps and deadlines bound the loop, and
// non-retryable errors return immediately.
func TestSubmitWithRetry(t *testing.T) {
	t.Run("succeeds after transient saturation", func(t *testing.T) {
		calls := 0
		err := SubmitWithRetry(context.Background(), Retry{Base: time.Microsecond, Cap: 10 * time.Microsecond}, time.Time{}, func() error {
			if calls++; calls < 4 {
				return ErrSaturated
			}
			return nil
		})
		if err != nil || calls != 4 {
			t.Fatalf("err=%v calls=%d, want nil after 4 attempts", err, calls)
		}
	})
	t.Run("attempt cap returns the last saturation", func(t *testing.T) {
		calls := 0
		err := SubmitWithRetry(context.Background(), Retry{Base: time.Microsecond, Attempts: 3}, time.Time{}, func() error {
			calls++
			return ErrSaturated
		})
		if !errors.Is(err, ErrSaturated) || calls != 3 {
			t.Fatalf("err=%v calls=%d, want ErrSaturated after exactly 3 attempts", err, calls)
		}
	})
	t.Run("deadline bounds the loop", func(t *testing.T) {
		err := SubmitWithRetry(context.Background(), Retry{Base: 10 * time.Millisecond}, time.Now().Add(time.Millisecond), func() error {
			return ErrSaturated
		})
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("err=%v, want ErrDeadlineExceeded", err)
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("err=%v must still match the underlying ErrSaturated", err)
		}
	})
	t.Run("already-expired deadline never submits", func(t *testing.T) {
		// Regression: the deadline used to be checked only before sleeping,
		// so a loop entered with a dead deadline still burned an attempt.
		calls := 0
		err := SubmitWithRetry(context.Background(), Retry{}, time.Now().Add(-time.Millisecond), func() error {
			calls++
			return nil
		})
		if !errors.Is(err, ErrDeadlineExceeded) || calls != 0 {
			t.Fatalf("err=%v calls=%d, want ErrDeadlineExceeded before any attempt", err, calls)
		}
		var de *DeadlineError
		if !errors.As(err, &de) || !de.Expired {
			t.Fatalf("err=%v, want a *DeadlineError with Expired set", err)
		}
	})
	t.Run("already-expired deadline never submits with context", func(t *testing.T) {
		calls := 0
		err := SubmitWithRetry(context.Background(), Retry{}, time.Now().Add(-time.Millisecond), func() error {
			calls++
			return nil
		})
		if !errors.Is(err, ErrDeadlineExceeded) || calls != 0 {
			t.Fatalf("err=%v calls=%d, want ErrDeadlineExceeded before any attempt", err, calls)
		}
		var de *DeadlineError
		if !errors.As(err, &de) || !de.Expired {
			t.Fatalf("err=%v, want a *DeadlineError with Expired set", err)
		}
	})
	t.Run("non-retryable errors return immediately", func(t *testing.T) {
		calls := 0
		err := SubmitWithRetry(context.Background(), Retry{Base: time.Microsecond}, time.Time{}, func() error {
			calls++
			return ErrClosed
		})
		if !errors.Is(err, ErrClosed) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want ErrClosed after 1 attempt", err, calls)
		}
	})
	t.Run("context cancellation interrupts the backoff sleep", func(t *testing.T) {
		// Base of a minute: if cancellation did not interrupt the sleep
		// (the old behavior), this test would hang for ~30–60s.
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		start := time.Now()
		err := SubmitWithRetry(ctx, Retry{Base: time.Minute, Cap: time.Minute}, time.Time{}, func() error {
			calls++
			cancel()
			return ErrSaturated
		})
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancelled retry still slept %v", elapsed)
		}
		if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrSaturated) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want context.Canceled wrapping ErrSaturated after 1 attempt", err, calls)
		}
	})
	t.Run("already-cancelled context never submits", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		calls := 0
		err := SubmitWithRetry(ctx, Retry{}, time.Time{}, func() error {
			calls++
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls != 0 {
			t.Fatalf("err=%v calls=%d, want context.Canceled before any attempt", err, calls)
		}
	})
	t.Run("context deadline surfaces as context.DeadlineExceeded", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		err := SubmitWithRetry(ctx, Retry{Base: 50 * time.Millisecond, Cap: 50 * time.Millisecond}, time.Time{}, func() error {
			return ErrSaturated
		})
		if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrSaturated) {
			t.Fatalf("err=%v, want context.DeadlineExceeded wrapping ErrSaturated", err)
		}
	})
	t.Run("integrates with a saturated scheduler", func(t *testing.T) {
		s := New(Config{Shards: 1, QueueBound: 1, Policy: Shed})
		defer s.Close()
		p, want := qosProblem(t)
		gate := make(chan struct{})
		running := make(chan struct{})
		ex := s.NewExecutor()
		ex.Submit(func(int, *core.Arena) {
			close(running)
			<-gate
		})
		<-running
		if _, err := s.SubmitMatVec(2, p); err != nil {
			t.Fatalf("queue-filling submit: %v", err)
		}
		opened := false
		var tk Ticket[*core.MatVecResult]
		err := SubmitWithRetry(context.Background(), Retry{Base: time.Millisecond, Cap: 2 * time.Millisecond}, time.Time{}, func() error {
			var err error
			tk, err = s.SubmitMatVec(2, p)
			if !opened {
				// Open the gate after the first saturation so a retry lands.
				opened = true
				close(gate)
			}
			return err
		})
		if err != nil {
			t.Fatalf("SubmitWithRetry: %v", err)
		}
		ex.Barrier()
		if res, err := tk.Wait(); err != nil || !res.Y.Equal(want, 0) {
			t.Fatalf("retried job: %v %v", res, err)
		}
		s.Flush()
	})
}
