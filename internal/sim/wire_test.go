package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestWireCommit(t *testing.T) {
	w := NewWire[string]("w")
	if w.Name() != "w" {
		t.Errorf("Name = %q", w.Name())
	}
	w.Drive("x")
	if got := w.Read(); got != "" {
		t.Errorf("value visible before commit: %q", got)
	}
	w.commit()
	if got := w.Read(); got != "x" {
		t.Errorf("after commit: %q", got)
	}
	// Commit without a pending drive keeps the value.
	w.commit()
	if got := w.Read(); got != "x" {
		t.Errorf("idempotent commit: %q", got)
	}
}

func TestBisyncVisibilityDelay(t *testing.T) {
	b := NewBisync[int]("b", 4, 1000)
	b.Push(0, 42)
	if b.Valid(999) {
		t.Error("word visible before forwarding delay")
	}
	if !b.Valid(1000) {
		t.Error("word not visible at forwarding delay")
	}
	if got := b.Peek(1000); got != 42 {
		t.Errorf("Peek = %d", got)
	}
	if got := b.Pop(1000); got != 42 {
		t.Errorf("Pop = %d", got)
	}
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestBisyncOrderAndOccupancy(t *testing.T) {
	b := NewBisync[int]("b", 4, 10)
	for i := 0; i < 4; i++ {
		b.Push(clock.Time(i), i)
	}
	if b.CanPush() {
		t.Error("CanPush on full FIFO")
	}
	if b.MaxOccupancy() != 4 {
		t.Errorf("MaxOccupancy = %d", b.MaxOccupancy())
	}
	if !b.ValidAt(100, 3) {
		t.Error("ValidAt(3) false after delay")
	}
	if b.ValidAt(100, 4) {
		t.Error("ValidAt(4) true beyond occupancy")
	}
	for i := 0; i < 4; i++ {
		if got := b.Pop(100); got != i {
			t.Errorf("pop %d = %d", i, got)
		}
	}
}

func TestBisyncOverflowPanics(t *testing.T) {
	b := NewBisync[int]("b", 1, 10)
	b.Push(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on overflow")
		}
	}()
	b.Push(0, 2)
}

func TestBisyncPopEmptyPanics(t *testing.T) {
	b := NewBisync[int]("b", 1, 10)
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty pop")
		}
	}()
	b.Pop(0)
}

func TestBisyncZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero capacity")
		}
	}()
	NewBisync[int]("b", 0, 10)
}

// TestBisyncFIFOQuick: random interleavings of pushes and delayed pops
// always pop in push order and never see a word early.
func TestBisyncFIFOQuick(t *testing.T) {
	f := func(ops []bool, delay uint8) bool {
		d := clock.Duration(delay%50) + 1
		b := NewBisync[int]("q", 1024, d)
		now := clock.Time(0)
		pushed, popped := 0, 0
		for _, isPush := range ops {
			now += 25
			if isPush {
				b.Push(now, pushed)
				pushed++
			} else if b.Valid(now) {
				if got := b.Pop(now); got != popped {
					return false
				}
				popped++
			}
		}
		// Drain: everything becomes visible eventually.
		now += clock.Time(d)
		for b.Valid(now) {
			if got := b.Pop(now); got != popped {
				return false
			}
			popped++
		}
		return popped == pushed
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTokenChannel(t *testing.T) {
	ch := NewTokenChannel[string]("ch", 2, 100)
	if ch.Name() != "ch" {
		t.Errorf("Name = %q", ch.Name())
	}
	ch.Prime("init")
	if !ch.Valid(0) {
		t.Error("primed token not immediately visible")
	}
	*ch.Push(50) = "x"
	if ch.CanPush() {
		t.Error("CanPush on full channel")
	}
	if got := *ch.Pop(0); got != "init" {
		t.Errorf("Pop = %q", got)
	}
	if ch.Valid(100) {
		t.Error("pushed token visible before delay")
	}
	if got := *ch.Pop(150); got != "x" {
		t.Errorf("Pop = %q", got)
	}
	if ch.Len() != 0 {
		t.Errorf("Len = %d", ch.Len())
	}
}

// TestTokenChannelPanics: overflow and empty-pop stay fatal, and a pop of a
// token still in flight says when it lands instead of "empty".
func TestTokenChannelPanics(t *testing.T) {
	for name, tc := range map[string]struct {
		f    func()
		want string
	}{
		"zero capacity": {func() { NewTokenChannel[int]("x", 0, 1) }, "capacity must be positive"},
		"overflow": {func() {
			ch := NewTokenChannel[int]("x", 1, 1)
			ch.Push(0)
			ch.Push(0)
		}, "overflow (capacity 1) at t=0 ps"},
		"prime overflow": {func() {
			ch := NewTokenChannel[int]("x", 1, 1)
			ch.Prime(1)
			ch.Prime(2)
		}, "overflow while priming"},
		"empty pop": {func() { NewTokenChannel[int]("x", 1, 1).Pop(5) }, "pop on empty at t=5 ps"},
		"early pop": {func() {
			ch := NewTokenChannel[int]("x", 1, 100)
			ch.Push(50)
			ch.Pop(149)
		}, "pop at t=149 ps of a token not visible until t=150 ps"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want it to contain %q", name, msg, tc.want)
				}
			}()
			tc.f()
		}()
	}
}

// sliceChannel is the TokenChannel this package had before the ring: a
// slice appended to on push and shifted down on pop, tokens held by value.
// It is the reference the ring is checked against.
type sliceChannel struct {
	capacity int
	delay    clock.Duration
	entries  []bisyncEntry[int]
}

func (t *sliceChannel) CanPush() bool { return len(t.entries) < t.capacity }
func (t *sliceChannel) Prime(v int)   { t.entries = append(t.entries, bisyncEntry[int]{v: v}) }
func (t *sliceChannel) Push(now clock.Time, v int) {
	t.entries = append(t.entries, bisyncEntry[int]{v: v, visible: now + t.delay})
}
func (t *sliceChannel) Valid(now clock.Time) bool {
	return len(t.entries) > 0 && t.entries[0].visible <= now
}
func (t *sliceChannel) Pop() int {
	v := t.entries[0].v
	copy(t.entries, t.entries[1:])
	t.entries = t.entries[:len(t.entries)-1]
	return v
}

// TestTokenChannelMatchesSliceModel drives the ring and the slice model
// with the same random Prime/Push/Pop sequences — capacities 1 to 6, so the
// ring wraps many times — and requires equal Valid, CanPush and Len after
// every step, equal popped values, and a panic from the ring exactly where
// the model would overflow or has no visible head.
func TestTokenChannelMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	panics := func(f func()) (did bool) {
		defer func() { did = recover() != nil }()
		f()
		return
	}
	for trial := 0; trial < 300; trial++ {
		capacity, delay := 1+rng.Intn(6), clock.Duration(rng.Intn(60))
		ring := NewTokenChannel[int]("ring", capacity, delay)
		model := &sliceChannel{capacity: capacity, delay: delay}
		now := clock.Time(0)
		for step := 0; step < 400; step++ {
			now += clock.Time(rng.Intn(40))
			v := rng.Int()
			switch op := rng.Intn(5); {
			case op == 0 && step < 8: // priming happens at reset only
				if !model.CanPush() {
					if !panics(func() { ring.Prime(v) }) {
						t.Fatalf("trial %d step %d: Prime on a full ring did not panic", trial, step)
					}
					continue
				}
				ring.Prime(v)
				model.Prime(v)
			case op <= 2:
				if !model.CanPush() {
					if !panics(func() { ring.Push(now) }) {
						t.Fatalf("trial %d step %d: Push on a full ring did not panic", trial, step)
					}
					continue
				}
				*ring.Push(now) = v
				model.Push(now, v)
			default:
				if !model.Valid(now) {
					if !panics(func() { ring.Pop(now) }) {
						t.Fatalf("trial %d step %d: Pop without a visible head did not panic", trial, step)
					}
					continue
				}
				if got, want := *ring.Pop(now), model.Pop(); got != want {
					t.Fatalf("trial %d step %d: Pop = %d, model %d", trial, step, got, want)
				}
			}
			for _, at := range []clock.Time{now, now + delay/2, now + delay} {
				if ring.Valid(at) != model.Valid(at) {
					t.Fatalf("trial %d step %d: Valid(%d) = %v, model %v", trial, step, at, ring.Valid(at), model.Valid(at))
				}
			}
			if ring.CanPush() != model.CanPush() || ring.Len() != len(model.entries) {
				t.Fatalf("trial %d step %d: CanPush %v Len %d, model %v %d",
					trial, step, ring.CanPush(), ring.Len(), model.CanPush(), len(model.entries))
			}
		}
	}
}
