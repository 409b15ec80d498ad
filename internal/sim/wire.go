package sim

import (
	"fmt"

	"repro/internal/clock"
)

// A Wire carries a value of type T between two components in the same
// clock domain with register-transfer semantics: a value driven during
// Update at instant t becomes visible to Read at instants > t.
//
// Wires must be registered with Engine.AddWire or Engine.AddWireClocked so
// their drives commit at the end of an instant.
type Wire[T any] struct {
	name string
	// buf[cur] is the committed value, buf[cur^1] takes the pending drive:
	// a commit flips cur instead of copying a value (a flit is 168 bytes).
	buf     [2]T
	cur     uint8
	pending bool

	// set is the commit state the wire reports drives and intercepts to:
	// its clock group's once the engine has scheduled it, own before.
	set *wireSet
	own wireSet

	// intercept, when non-nil, observes and may override the wire's
	// effective value at every commit (fault injection: drop, corrupt or
	// replay values in place, without adding a pipeline stage that would
	// perturb timing by itself). driven reports whether a component drove
	// the wire this instant.
	intercept func(v T, driven bool) T
}

// A wireSet is the commit state of a clock group's wires: the ones driven
// since the group's last commit, in drive order, and how many have an
// intercept. A group without intercepts commits only its driven wires.
type wireSet struct {
	driven []AnyWire
	hooks  int
}

// NewWire returns a wire carrying the zero value of T.
func NewWire[T any](name string) *Wire[T] {
	w := &Wire[T]{name: name}
	w.set = &w.own
	return w
}

// Name returns the wire's diagnostic name.
func (w *Wire[T]) Name() string { return w.name }

// Read returns the currently committed value. Components call this during
// Update.
func (w *Wire[T]) Read() T { return w.buf[w.cur&1] }

// Ref returns the committed value in place, for a reader that looks at part
// of a large value. It stays valid until the wire's next commit, and the
// caller must not write through it.
func (w *Wire[T]) Ref() *T { return &w.buf[w.cur&1] }

// Drive buffers a new value; it becomes visible after the commit phase of
// the current instant. Components call this during Update.
func (w *Wire[T]) Drive(v T) { w.DriveFrom(&v) }

// DriveFrom is Drive for a value held elsewhere: it copies *v once,
// straight into the pending buffer.
func (w *Wire[T]) DriveFrom(v *T) {
	w.buf[w.cur&1^1] = *v
	if !w.pending {
		w.pending = true
		w.set.driven = append(w.set.driven, w)
	}
}

// bind moves the wire's drive and intercept reports to s, or back to its
// own state when s is nil.
func (w *Wire[T]) bind(s *wireSet) {
	if s == nil {
		s = &w.own
	}
	if s == w.set {
		return
	}
	if w.intercept != nil {
		w.set.hooks--
		s.hooks++
	}
	if w.pending {
		s.driven = append(s.driven, w)
	}
	w.own.driven = w.own.driven[:0]
	w.set = s
}

func (w *Wire[T]) commit() {
	driven := w.pending
	if driven {
		w.cur ^= 1
		w.pending = false
	}
	if w.set == &w.own {
		w.own.driven = w.own.driven[:0] // committed by hand or every instant
	}
	if w.intercept != nil {
		w.buf[w.cur&1] = w.intercept(w.buf[w.cur&1], driven)
	}
}

// SetIntercept installs (or, with nil, removes) a commit-time intercept.
// The intercept sees the value about to become visible and returns the
// value that actually does; it runs on every commit of the engine, with
// driven reporting whether this instant drove a fresh value. A clock group
// holding a wire with an intercept commits at every one of its edges, so
// the intercept sees each writer edge, driven or not.
func (w *Wire[T]) SetIntercept(f func(v T, driven bool) T) {
	d := 0
	switch {
	case f != nil && w.intercept == nil:
		d = 1
	case f == nil && w.intercept != nil:
		d = -1
	}
	w.set.hooks += d
	w.intercept = f
}

// HasIntercept reports whether a commit-time intercept is installed. The
// replay fast path refuses to engage while any wire of its engine has one,
// because an intercept makes commits data-dependent.
func (w *Wire[T]) HasIntercept() bool { return w.intercept != nil }

// Adjust rewrites the committed value in place. It is the replay fast
// path's state-shift hook and must only be called between instants with no
// pending drive (the fast path guarantees this at epoch boundaries).
func (w *Wire[T]) Adjust(f func(T) T) { w.buf[w.cur&1] = f(w.buf[w.cur&1]) }

// A Bisync is a bi-synchronous FIFO: the only legal mesochronous
// clock-domain crossing in aelite (paper Section V, after [14], [18]).
//
// The writer pushes one word per writer-clock edge; a pushed word becomes
// visible to the reader ForwardDelay picoseconds later, modelling the
// FIFO's synchroniser forwarding delay (the paper assumes 1-2 reader
// cycles). Capacity is enforced: aelite sizes the FIFO (4 words) so that it
// never fills under the skew assumptions, and the model panics if that
// invariant is violated, because real hardware would lose data (there is no
// full/accept handshake, by design).
type Bisync[T any] struct {
	name         string
	capacity     int
	forwardDelay clock.Duration

	entries []bisyncEntry[T]
	// maxOccupancy records the high-water mark for invariant checks.
	maxOccupancy int
}

type bisyncEntry[T any] struct {
	v       T
	pushed  clock.Time // writer instant of the push
	visible clock.Time // first instant at which the reader may pop this
}

// NewBisync returns a bi-synchronous FIFO with the given capacity (words)
// and forwarding delay.
func NewBisync[T any](name string, capacity int, forwardDelay clock.Duration) *Bisync[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: bisync %q capacity must be positive", name))
	}
	return &Bisync[T]{name: name, capacity: capacity, forwardDelay: forwardDelay}
}

// Name returns the FIFO's diagnostic name.
func (b *Bisync[T]) Name() string { return b.name }

// Push enqueues a word at writer time now. It panics on overflow: the
// aelite link FIFO is sized to never fill, so overflow is a modelling or
// configuration error, not a runtime condition.
func (b *Bisync[T]) Push(now clock.Time, v T) {
	if len(b.entries) >= b.capacity {
		panic(fmt.Sprintf("sim: bisync %q overflow (capacity %d) at t=%d ps", b.name, b.capacity, now))
	}
	b.entries = append(b.entries, bisyncEntry[T]{v: v, pushed: now, visible: now + b.forwardDelay})
	if len(b.entries) > b.maxOccupancy {
		b.maxOccupancy = len(b.entries)
	}
}

// ForwardDelay returns the current synchroniser forwarding delay.
func (b *Bisync[T]) ForwardDelay() clock.Duration { return b.forwardDelay }

// SetForwardDelay changes the forwarding delay for subsequently pushed
// words (fault injection: a slow or metastable synchroniser). Words already
// in flight keep their original visibility times.
func (b *Bisync[T]) SetForwardDelay(d clock.Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: bisync %q non-positive forwarding delay %d", b.name, d))
	}
	b.forwardDelay = d
}

// HeadAge returns how long ago the head word was pushed, at reader time
// now. It panics if the FIFO is empty.
func (b *Bisync[T]) HeadAge(now clock.Time) clock.Duration {
	if len(b.entries) == 0 {
		panic(fmt.Sprintf("sim: bisync %q head age of empty FIFO", b.name))
	}
	return now - b.entries[0].pushed
}

// CanPush reports whether a push would succeed.
func (b *Bisync[T]) CanPush() bool { return len(b.entries) < b.capacity }

// Valid reports whether the reader can pop a word at reader time now.
func (b *Bisync[T]) Valid(now clock.Time) bool {
	return len(b.entries) > 0 && b.entries[0].visible <= now
}

// Peek returns the head word without popping. It panics if !Valid(now).
func (b *Bisync[T]) Peek(now clock.Time) T {
	if !b.Valid(now) {
		panic(fmt.Sprintf("sim: bisync %q peek on invalid head at t=%d ps", b.name, now))
	}
	return b.entries[0].v
}

// Pop removes and returns the head word. It panics if !Valid(now).
func (b *Bisync[T]) Pop(now clock.Time) T {
	v := b.Peek(now)
	copy(b.entries, b.entries[1:])
	b.entries = b.entries[:len(b.entries)-1]
	return v
}

// ValidAt reports whether the reader could pop at least i+1 words at time
// now (i.e. entry i is visible).
func (b *Bisync[T]) ValidAt(now clock.Time, i int) bool {
	return i < len(b.entries) && b.entries[i].visible <= now
}

// Len returns the current occupancy (including not-yet-visible words).
func (b *Bisync[T]) Len() int { return len(b.entries) }

// Cap returns the FIFO capacity in words.
func (b *Bisync[T]) Cap() int { return b.capacity }

// MaxOccupancy returns the high-water mark since construction.
func (b *Bisync[T]) MaxOccupancy() int { return b.maxOccupancy }

// Scan calls f for every queued entry, oldest first, with the entry's
// value, push instant and visibility instant. The replay fast path uses it
// to fingerprint in-flight words.
func (b *Bisync[T]) Scan(f func(v T, pushed, visible clock.Time)) {
	for _, en := range b.entries {
		f(en.v, en.pushed, en.visible)
	}
}

// Adjust rewrites every queued entry in place, oldest first. It is the
// replay fast path's state-shift hook.
func (b *Bisync[T]) Adjust(f func(v T, pushed, visible clock.Time) (T, clock.Time, clock.Time)) {
	for i := range b.entries {
		en := &b.entries[i]
		en.v, en.pushed, en.visible = f(en.v, en.pushed, en.visible)
	}
}

// A TokenChannel is the asynchronous channel used between wrapped network
// elements (paper Section VI). Tokens (whole flits, possibly empty) are
// transferred with a handshake delay; capacity models the depth of the
// wrapper's port FIFOs plus the link. Unlike Bisync it exposes space
// explicitly, because OPIs reserve space ahead of time.
//
// Tokens live in a ring fixed at the channel's capacity and are produced
// and consumed in place: a flit token is some 200 bytes, and a wrapper
// moves one per port per fire.
type TokenChannel[T any] struct {
	name  string
	delay clock.Duration
	ring  []token[T] // the n tokens from head on (wrapping) are queued
	head  int
	n     int
}

type token[T any] struct {
	v       T
	visible clock.Time // first instant at which the reader may pop this
}

// NewTokenChannel returns a token channel with the given capacity and
// transfer delay.
func NewTokenChannel[T any](name string, capacity int, delay clock.Duration) *TokenChannel[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: token channel %q capacity must be positive", name))
	}
	return &TokenChannel[T]{name: name, delay: delay, ring: make([]token[T], capacity)}
}

// Name returns the channel's diagnostic name.
func (t *TokenChannel[T]) Name() string { return t.name }

// CanPush reports whether the channel has space for another token.
func (t *TokenChannel[T]) CanPush() bool { return t.n < len(t.ring) }

// enqueue claims the slot behind the tail for a token visible from the
// given instant on.
func (t *TokenChannel[T]) enqueue(visible clock.Time) *T {
	i := t.head + t.n
	if i >= len(t.ring) {
		i -= len(t.ring)
	}
	t.n++
	t.ring[i].visible = visible
	return &t.ring[i].v
}

// Prime injects an initial token that is visible immediately. The
// asynchronous wrappers prime every channel with empty tokens at reset
// (paper Section VI: "a few cycles are spent at reset to produce initial
// empty tokens... otherwise the system deadlocks").
func (t *TokenChannel[T]) Prime(v T) {
	if !t.CanPush() {
		panic(fmt.Sprintf("sim: token channel %q overflow while priming", t.name))
	}
	*t.enqueue(0) = v
}

// Push enqueues a token at time now and returns it for the caller to fill
// in place: until assigned it holds whatever an earlier token left in the
// slot. It panics on overflow because the wrapper's OPI reserves space
// before sending.
func (t *TokenChannel[T]) Push(now clock.Time) *T {
	if !t.CanPush() {
		panic(fmt.Sprintf("sim: token channel %q overflow (capacity %d) at t=%d ps", t.name, len(t.ring), now))
	}
	return t.enqueue(now + t.delay)
}

// Valid reports whether a token is available at time now.
func (t *TokenChannel[T]) Valid(now clock.Time) bool {
	return t.n > 0 && t.ring[t.head].visible <= now
}

// Pop removes the head token and returns it in place; it stays readable
// until the channel's next Push. It panics if !Valid(now).
func (t *TokenChannel[T]) Pop(now clock.Time) *T {
	if t.n == 0 {
		panic(fmt.Sprintf("sim: token channel %q pop on empty at t=%d ps", t.name, now))
	}
	e := &t.ring[t.head]
	if e.visible > now {
		panic(fmt.Sprintf("sim: token channel %q pop at t=%d ps of a token not visible until t=%d ps", t.name, now, e.visible))
	}
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	t.n--
	return &e.v
}

// Len returns the number of queued tokens (including in-flight ones).
func (t *TokenChannel[T]) Len() int { return t.n }
