package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// A TransientError marks a failure worth retrying: the same attempt may
// succeed next time (a flaky worker, an injected chaos fault, a resource
// blip). Anything not transient is permanent — the simulators are
// deterministic, so a sim error that happened once will happen every
// time, and retrying it is a hot loop around a certainty.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// A PanicError is a worker panic recovered by the supervisor: the job
// survives as a typed error instead of the panic taking down the
// process. It is classified transient — a panicked worker is the failure
// mode supervision exists for, and the shard is re-queued with backoff
// until the retry budget rules it permanent.
type PanicError struct {
	Recovered any
	Stack     []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("worker panicked: %v", e.Recovered) }

// IsTransient is the permanent-failure classifier: true only for
// explicitly transient errors and recovered panics. Deterministic
// failures — scenario generation errors, infeasible allocations, context
// cancellation — classify permanent and fail fast instead of looping.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *TransientError
	var pe *PanicError
	return errors.As(err, &te) || errors.As(err, &pe)
}

// A RetryPolicy shapes the exponential backoff between attempts of a
// transient-failed shard: Base doubles per retry up to Max, plus up to
// half that again of hashed jitter so a thundering herd of retries
// decorrelates deterministically (same shard, same schedule — retry
// timing is part of the reproducible record).
type RetryPolicy struct {
	MaxRetries int           // retry budget per shard (beyond the first attempt)
	Base       time.Duration // first backoff
	Max        time.Duration // backoff ceiling
}

// DefaultRetryPolicy is the documented policy: 3 retries, 50 ms base,
// 2 s ceiling.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Base: 50 * time.Millisecond, Max: 2 * time.Second}
}

// Backoff returns the delay before retry attempt (1-based), for the
// given job/shard identity: Base·2^(attempt-1) capped at Max, plus a
// deterministic jitter in [0, delay/2).
func (p RetryPolicy) Backoff(fp string, shard, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base << uint(attempt-1)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	if d <= 0 {
		return 0
	}
	// FNV over the shard identity: decorrelated across shards, identical
	// across runs. The leading 1 is a fixed salt: changing it moves every
	// retry schedule.
	h := fnv.New64a()
	fmt.Fprintf(h, "1|%s|%d|%d", fp, shard, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}

// A ChaosConfig injects seeded failures ahead of shard execution — the
// fault-campaign discipline (internal/fault) applied to the control
// plane itself. At Rate, an attempt fails before the simulator runs:
// even attempts as a transient error, odd ones as a genuine worker panic
// (exercising the supervisor). Injection is pre-execution, so results
// are never corrupted — a chaos campaign must complete with byte-
// identical artifacts, just more slowly.
type ChaosConfig struct {
	Rate float64 // per-attempt injection probability (0 disables)
	Seed int64
}

// trip decides deterministically whether to inject a failure into this
// attempt, and which kind: 0 none, 1 transient error, 2 panic.
func (c ChaosConfig) trip(fp string, shard, attempt int) int {
	if c.Rate <= 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", c.Seed, fp, shard, attempt)
	v := h.Sum64()
	if float64(v%1_000_000)/1e6 >= c.Rate {
		return 0
	}
	return 1 + int((v/1_000_000)%2)
}
