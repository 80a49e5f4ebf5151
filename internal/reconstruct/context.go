package reconstruct

import (
	"context"
	"errors"
	"fmt"
)

// Typed cancellation errors returned by the Prepared solvers.
// They wrap the standard context sentinels, so callers may test with
// errors.Is against either this package's errors or context.Canceled /
// context.DeadlineExceeded.
var (
	// ErrCanceled reports that the caller canceled the reconstruction
	// before the solver converged or exhausted its iteration budget.
	ErrCanceled = errors.New("reconstruct: canceled")
	// ErrDeadline reports that the caller's deadline expired mid-solve.
	ErrDeadline = errors.New("reconstruct: deadline exceeded")
)

// ContextErr translates ctx's termination cause into this package's
// typed errors (nil while ctx is live). Exported so wrappers that stand
// in for a solver — e.g. fault-injection shims — can fail with the same
// error surface the real solvers use.
func ContextErr(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}
