package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Retry shapes SubmitWithRetry's backoff. The zero value gets the
// defaults: 100µs base, 10ms cap, unlimited attempts (bounded by the
// deadline).
type Retry struct {
	// Base is the first backoff sleep (default 100µs); each retry doubles
	// it up to Cap.
	Base time.Duration
	// Cap bounds the backoff growth (default 10ms).
	Cap time.Duration
	// Attempts, when > 0, caps the number of submission attempts; 0 means
	// retry until the deadline (or forever, if there is none).
	Attempts int
}

// SubmitWithRetry runs submit until it succeeds, retrying saturation with
// capped exponential backoff and jitter. Only ErrSaturated is retried —
// any other error (ErrClosed, a deadline shed, a dimension mismatch) is
// the caller's problem and returns immediately. A non-zero deadline bounds
// the whole loop: a deadline that has already passed fails fast with a
// *DeadlineError (matched by errors.Is against ErrDeadlineExceeded)
// before any submission attempt runs, and when the next backoff sleep
// would overrun the deadline, the last ErrSaturated is returned wrapped
// with ErrDeadlineExceeded so callers can match either sentinel. ctx
// bounds the loop as well: cancellation interrupts a backoff sleep
// immediately and is checked before each attempt, and a cancelled loop
// returns the context's error (matched by errors.Is against
// context.Canceled or context.DeadlineExceeded) wrapped with the last
// submission error when there was one. The submit closure should capture
// a Submit* call and return its error:
//
//	err := stream.SubmitWithRetry(ctx, stream.Retry{}, deadline, func() error {
//		var err error
//		tk, err = s.SubmitMatVec(w, p, q)
//		return err
//	})
func SubmitWithRetry(ctx context.Context, r Retry, deadline time.Time, submit func() error) error {
	if r.Base <= 0 {
		r.Base = 100 * time.Microsecond
	}
	if r.Cap <= 0 {
		r.Cap = 10 * time.Millisecond
	}
	// A deadline that passed before the loop even starts: fail fast with
	// the typed expiry instead of burning a submission attempt the caller's
	// deadline already disallows.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return fmt.Errorf("stream: retry deadline already passed: %w", &DeadlineError{Expired: true})
	}
	backoff := r.Base
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stream: retry cancelled before attempt %d: %w", attempt, err)
		}
		err := submit()
		if err == nil || !errors.Is(err, ErrSaturated) {
			return err
		}
		if r.Attempts > 0 && attempt >= r.Attempts {
			return err
		}
		// Full jitter over [backoff/2, backoff] decorrelates competing
		// submitters without giving up the exponential envelope.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if !deadline.IsZero() && time.Now().Add(sleep).After(deadline) {
			return fmt.Errorf("stream: retry gave up after %d attempts: %w: %w", attempt, ErrDeadlineExceeded, err)
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("stream: retry cancelled after %d attempts: %w: %w", attempt, ctx.Err(), err)
		case <-timer.C:
		}
		if backoff *= 2; backoff > r.Cap {
			backoff = r.Cap
		}
	}
}
