package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 64} {
		got, err := Map(jobs, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != 100 {
			t.Fatalf("jobs=%d: len = %d", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: got[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapResultsIdenticalAcrossJobCounts(t *testing.T) {
	ref, err := Map(1, 37, func(i int) (string, error) {
		return fmt.Sprintf("point-%03d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 3, 8, 16} {
		got, err := Map(jobs, 37, func(i int) (string, error) {
			return fmt.Sprintf("point-%03d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("jobs=%d: result %d = %q, want %q", jobs, i, got[i], ref[i])
			}
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	e3 := errors.New("point 3")
	e7 := errors.New("point 7")
	for _, jobs := range []int{1, 4, 16} {
		_, err := Map(jobs, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, e3
			case 7:
				return 0, e7
			}
			return i, nil
		})
		if err != e3 {
			t.Fatalf("jobs=%d: err = %v, want the lowest-indexed error %v", jobs, err, e3)
		}
	}
}

func TestMapRunsEveryPointDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(4, 20, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first point fails")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d points, want all 20 (a sweep is not a pipeline)", got)
	}
}

func TestMapInlineWhenSerial(t *testing.T) {
	// jobs<=1 must run on the calling goroutine, in index order: this is
	// the reference execution parallel runs are compared against.
	last := -1
	_, err := Map(1, 16, func(i int) (int, error) {
		if i != last+1 {
			t.Fatalf("out-of-order inline execution: %d after %d", i, last)
		}
		last = i
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(8, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestJobs(t *testing.T) {
	if got := Jobs(4); got != 4 {
		t.Fatalf("Jobs(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, j := range []int{0, -1} {
		if got := Jobs(j); got != want {
			t.Fatalf("Jobs(%d) = %d, want GOMAXPROCS %d", j, got, want)
		}
	}
}

func TestMapRecoversPanicsIntoJobError(t *testing.T) {
	// A panicking point must not take down the sweep: the other points
	// still run, and the panic surfaces as the typed *JobError of the
	// lowest-indexed panicked point.
	for _, jobs := range []int{1, 4, 16} {
		var ran atomic.Int64
		_, err := Map(jobs, 20, func(i int) (int, error) {
			ran.Add(1)
			if i == 5 || i == 11 {
				panic(fmt.Sprintf("poisoned point %d", i))
			}
			return i, nil
		})
		if got := ran.Load(); got != 20 {
			t.Fatalf("jobs=%d: ran %d points, want all 20 despite panics", jobs, got)
		}
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("jobs=%d: err = %v (%T), want *JobError", jobs, err, err)
		}
		if je.Index != 5 {
			t.Fatalf("jobs=%d: JobError.Index = %d, want the lowest-indexed panic 5", jobs, je.Index)
		}
		if je.Recovered != "poisoned point 5" {
			t.Fatalf("jobs=%d: JobError.Recovered = %v", jobs, je.Recovered)
		}
		if len(je.Stack) == 0 {
			t.Fatalf("jobs=%d: JobError.Stack is empty", jobs)
		}
	}
}

func TestMapCtxCancellationSkipsUnstartedPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started // cancel as soon as the first point is in flight
		cancel()
	}()
	_, err := MapCtx(ctx, 2, 64, func(ctx context.Context, i int) (int, error) {
		once.Do(func() { close(started) })
		ran.Add(1)
		<-ctx.Done() // simulate a long point that observes cancellation
		return i, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 3 {
		t.Fatalf("%d points ran after cancellation, want at most the in-flight workers", got)
	}
}

func TestMapCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 8, 32, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d points ran under a cancelled context, want 0", ran.Load())
	}
}

func TestMapCtxLeavesNoGoroutinesBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, _ = MapCtx(ctx, 8, 1000, func(ctx context.Context, i int) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
			return i, nil
		}
	})
	// Workers must all have exited by return; allow the runtime a moment
	// to reap them before comparing.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after cancelled sweep", before, runtime.NumGoroutine())
}
