package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestCtxCancelledUpFront pins the contract shared by every Ctx entry
// point: a context that is already done yields the context's error and no
// work.
func TestCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ScaleStudyCtx(ctx, SmokeScaleConfig(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScaleStudyCtx err = %v, want context.Canceled", err)
	}
	if _, err := CompareStudyCtx(ctx, SmokeCompareConfig(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompareStudyCtx err = %v, want context.Canceled", err)
	}
}

// TestCtxMidFlightCancelLeaksNoGoroutines cancels a comparison study
// while its cells are in flight and verifies the call returns the context
// error with every worker goroutine reaped — the cancellation path
// aelite-serve's per-job deadlines ride on.
func TestCtxMidFlightCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CompareStudyCtx(ctx, DefaultCompareConfig(), 2)
		done <- err
	}()
	// Let the first cells start, then cancel mid-flight.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// A cancelled study reports either the context error or, rarely,
		// every cell finished before the cancel landed.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("study err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("cancelled study did not return")
	}

	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after cancelled study", before, runtime.NumGoroutine())
}
