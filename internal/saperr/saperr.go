// Package saperr defines the library's typed error taxonomy and the panic
// containment helper used at every solver boundary.
//
// The taxonomy is deliberately tiny — three sentinels cover everything a
// caller can sensibly branch on:
//
//   - ErrCancelled: the solve stopped because its context was cancelled or
//     its deadline expired. Partial results may still accompany it.
//   - ErrInfeasibleInput: the instance failed validation at the untrusted
//     input gate (model.Validate) — the caller's data is at fault.
//   - ErrInternal: a solver bug or corrupt state surfaced as a panic and was
//     contained at a boundary; the *Internal error carries the recovered
//     value and stack.
//
// All richer errors wrap one of the sentinels, so errors.Is works across the
// whole stack. The package depends only on the standard library so every
// layer (model, par, solvers, CLIs) can import it without cycles.
package saperr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Sentinels. Match with errors.Is.
var (
	// ErrCancelled reports cooperative cancellation (context cancelled or
	// deadline exceeded). Errors wrapping it also wrap the context cause,
	// so errors.Is(err, context.DeadlineExceeded) keeps working.
	ErrCancelled = errors.New("solve cancelled")

	// ErrInfeasibleInput reports input rejected by the validation gate.
	ErrInfeasibleInput = errors.New("infeasible input")

	// ErrInternal reports a contained panic — a solver bug, not user error.
	ErrInternal = errors.New("internal solver error")

	// ErrCorruptStore reports persisted solve-store state that failed its
	// integrity checks: a record hash that does not match its bytes, a
	// Merkle batch root or chain link that does not verify, or a segment
	// that cannot be parsed. A torn tail caused by a crash mid-flush is
	// the *recoverable* spelling — the store truncates it on open and
	// records an ErrCorruptStore-wrapping error in its stats rather than
	// failing — while corruption anywhere before the tail is unrecoverable
	// and surfaces directly from Open/Verify.
	ErrCorruptStore = errors.New("corrupt solve store")
)

// cancelled wraps both ErrCancelled and the underlying context cause.
type cancelled struct{ cause error }

func (e *cancelled) Error() string { return "solve cancelled: " + e.cause.Error() }

// Unwrap exposes both the sentinel and the cause (multi-error unwrap).
func (e *cancelled) Unwrap() []error { return []error{ErrCancelled, e.cause} }

// Cancelled wraps cause (typically ctx.Err()) into the ErrCancelled chain.
// A nil cause defaults to context.Canceled.
func Cancelled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &cancelled{cause: cause}
}

// FromContext returns a typed ErrCancelled if ctx is done, else nil.
// Solver loops use it for cheap cooperative checks:
//
//	if nodes&1023 == 0 {
//		if err := saperr.FromContext(ctx); err != nil { ... }
//	}
func FromContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return Cancelled(err)
	}
	return nil
}

// IsCancelled reports whether err is a cancellation in any spelling —
// the typed sentinel or a raw context error.
func IsCancelled(err error) bool {
	return errors.Is(err, ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Input builds an error wrapping ErrInfeasibleInput.
func Input(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInfeasibleInput, fmt.Sprintf(format, args...))
}

// CorruptStore builds an error wrapping ErrCorruptStore.
func CorruptStore(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptStore, fmt.Sprintf(format, args...))
}

// IsCorruptStore reports whether err is a store-integrity error.
func IsCorruptStore(err error) bool { return errors.Is(err, ErrCorruptStore) }

// Internal is a contained panic. It wraps ErrInternal and records the
// recovered value plus the goroutine stack at recovery time.
type Internal struct {
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() captured inside the recover
}

func (e *Internal) Error() string {
	return fmt.Sprintf("internal solver error: panic: %v", e.Value)
}

func (e *Internal) Unwrap() error { return ErrInternal }

// Contain is the boundary defer: it converts a panic on the current
// goroutine into a typed error stored in *errp.
//
//	func solveArm(...) (err error) {
//		defer saperr.Contain(&err)
//		...
//	}
//
// A panic whose value already carries a typed error (ErrCancelled or
// ErrInfeasibleInput in its chain) keeps that type; anything else becomes
// an *Internal wrapping ErrInternal with the recovered stack. Contain never
// masks an error already present in *errp unless a panic occurred.
func Contain(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if err, ok := r.(error); ok &&
		(errors.Is(err, ErrCancelled) || errors.Is(err, ErrInfeasibleInput)) {
		*errp = err
		return
	}
	*errp = &Internal{Value: r, Stack: debug.Stack()}
}
