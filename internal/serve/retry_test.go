package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestIsTransientClassifier(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain deterministic error", errors.New("infeasible allocation"), false},
		{"context cancelled", context.Canceled, false},
		{"context deadline", context.DeadlineExceeded, false},
		{"wrapped cancellation", Transient(context.Canceled), false},
		{"marked transient", Transient(errors.New("blip")), true},
		{"recovered panic", &PanicError{Recovered: "boom"}, true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("%s: IsTransient = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := DefaultRetryPolicy()
	prevBase := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := p.Backoff("fp", 0, attempt)
		d2 := p.Backoff("fp", 0, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %s vs %s", attempt, d1, d2)
		}
		if d1 > p.Max+p.Max/2 {
			t.Fatalf("attempt %d: backoff %s exceeds ceiling %s + jitter", attempt, d1, p.Max)
		}
		base := p.Base << uint(attempt-1)
		if base > p.Max || base <= 0 {
			base = p.Max
		}
		if d1 < base {
			t.Fatalf("attempt %d: backoff %s below base %s", attempt, d1, base)
		}
		if base < prevBase {
			t.Fatalf("attempt %d: base shrank", attempt)
		}
		prevBase = base
	}
	if a, b := p.Backoff("fp", 0, 1), p.Backoff("fp", 1, 1); a == b {
		t.Fatal("jitter identical across shards; want decorrelation")
	}
	// The schedule itself is part of the reproducible record.
	for attempt, want := range []time.Duration{50608363, 105839311, 287451993} {
		if got := p.Backoff("fp", 0, attempt+1); got != want {
			t.Errorf("attempt %d: backoff %d ns, want %d ns", attempt+1, got, want)
		}
	}
}

func TestChaosTripDeterministicAndOff(t *testing.T) {
	off := ChaosConfig{}
	for i := 0; i < 10; i++ {
		if off.trip("fp", i, 0) != 0 {
			t.Fatal("disabled chaos tripped")
		}
	}
	on := ChaosConfig{Rate: 0.5, Seed: 7}
	saw := map[int]bool{}
	for shard := 0; shard < 64; shard++ {
		v := on.trip("fp", shard, 0)
		if v != on.trip("fp", shard, 0) {
			t.Fatal("chaos trip not deterministic")
		}
		saw[v] = true
	}
	if !saw[0] || (!saw[1] && !saw[2]) {
		t.Fatalf("rate 0.5 over 64 attempts saw %v; want both outcomes", saw)
	}
}
