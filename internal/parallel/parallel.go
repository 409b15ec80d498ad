package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Jobs canonicalises a -j flag value: any value below 1 (the "pick for me"
// convention) resolves to GOMAXPROCS, the number of OS threads the Go
// runtime will actually execute on.
func Jobs(j int) int {
	if j < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// A JobError is a worker job that panicked. The panic is recovered on the
// worker goroutine and surfaced as the point's error, so one poisoned
// point reports itself instead of taking down the whole sweep (and the
// process): the sweep's other points still run and still return results.
// Recovered holds the panic value, Stack the worker's stack at the point
// of the panic.
type JobError struct {
	Index     int
	Recovered any
	Stack     []byte
}

func (e *JobError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", e.Index, e.Recovered)
}

// call runs one point, converting a panic into a *JobError.
func call[T any](fn func(i int) (T, error), i int) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Index: i, Recovered: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) on up to jobs workers and returns
// the results in index order. fn must be safe to call from multiple
// goroutines for distinct indices; each call must own everything it
// mutates (in a simulation sweep: the engine, the network, the use case).
//
// Every point executes even when another point fails — n is a sweep, not a
// pipeline — and the error of the lowest-indexed failed point is returned,
// so failures are as reproducible as results. A panicking point is
// recovered into a typed *JobError rather than crashing the sweep. With
// jobs <= 1 (or n <= 1) the points run inline on the calling goroutine in
// index order.
func Map[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), jobs, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with cancellation: once ctx is done, points that have not
// yet started are skipped and report ctx.Err() as their error, while
// points already running finish (fn observes ctx itself for finer-grained
// cancellation). Workers always exit before MapCtx returns, so a
// cancelled sweep leaks no goroutines. With a never-cancelled ctx the
// semantics are exactly Map's.
func MapCtx[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	point := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		out[i], errs[i] = call(func(i int) (T, error) { return fn(ctx, i) }, i)
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			point(i)
		}
		return finish(out, errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				point(i)
			}
		}()
	}
	wg.Wait()
	return finish(out, errs)
}

func finish[T any](out []T, errs []error) ([]T, error) {
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
