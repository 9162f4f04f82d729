package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/guard"
)

// cellAttempts is how many times a grid cell runs before it is declared
// failed: a budget trip (liveness watchdog or per-cell deadline) on the
// first attempt earns one immediate re-run at a doubled budget.
const cellAttempts = 2

// cellGuard resolves the grid-level hardening options for one cell: a
// non-zero chaos seed is decorrelated per cell with DeriveSeed, so each
// cell perturbs a private stream and results stay independent of
// execution order.
func cellGuard(o guard.Options, cell int) guard.Options {
	if o.ChaosSeed != 0 {
		o.ChaosSeed = DeriveSeed(o.ChaosSeed, cell)
	}
	return o
}

// withCellDeadline applies the per-cell wall-clock budget (-cell-timeout)
// for the given 1-based attempt: the budget doubles per retry, the same
// escalation discipline as the watchdog window. A non-positive timeout
// returns ctx unchanged.
func withCellDeadline(ctx context.Context, timeout time.Duration, attempt int) (context.Context, context.CancelFunc, time.Duration) {
	if timeout <= 0 {
		return ctx, func() {}, 0
	}
	d := time.Duration(guard.Escalate(int64(timeout), attempt-1))
	cctx, cancel := context.WithTimeout(ctx, d)
	return cctx, cancel, d
}

// classifyDeadline reinterprets a cancellation artifact from a cell run:
// if the *cell's* deadline fired while the caller's context was still
// live, the error becomes a typed guard.OpDeadline failure — a diagnosed
// cell FAIL, retried once at a doubled budget and then counted against
// the exit code — rather than a SKIP. A genuine caller cancellation
// (SIGINT drain, first-error cancel) passes through untouched.
func classifyDeadline(parent, cell context.Context, d time.Duration, err error) error {
	if err == nil || d <= 0 || !guard.IsCancellation(err) {
		return err
	}
	if parent.Err() != nil || cell.Err() != context.DeadlineExceeded {
		return err
	}
	de := guard.NewSimError(guard.OpDeadline, fmt.Errorf("cell exceeded its %v wall-clock budget", d))
	if se := guard.AsSimError(err); se != nil {
		de = de.At(se.Cycle)
	}
	return de
}

// failureStrings renders a cell failure: the one-line error, plus the
// structured diagnostic when the error chain carries one (watchdog trips
// and invariant violations do).
func failureStrings(err error) (failure, diagnostic string) {
	if err == nil {
		return "", ""
	}
	failure = err.Error()
	if se := guard.AsSimError(err); se != nil && se.Diag != nil {
		diagnostic = se.Diag.String()
	}
	return failure, diagnostic
}
