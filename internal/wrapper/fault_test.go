package wrapper

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/sim"
)

// chattyActor emits a non-empty flit on port 1 every fire — pointed at a
// wrapper whose port 1 is unconnected, it trips the route-error envelope
// check on every iteration.
type chattyActor struct{}

func (a *chattyActor) Fire(now clock.Time, in, out []*phit.Flit) {
	*out[0] = phit.Flit{}
	*out[1] = phit.Flit{{Valid: true, Kind: phit.Payload, Data: 7}}
}

func (a *chattyActor) Ports() int        { return 2 }
func (a *chattyActor) ActorName() string { return "chatty" }

// runChatty builds a wrapper around chattyActor with output 1 unconnected
// and runs it. The primed input channel allows InitialTokens fires, each of
// which produces a flit for the missing output.
func runChatty(rep fault.Reporter) *Wrapper {
	eng := sim.New()
	base := clock.NewMHz("base", 500, 0)
	w := New("w", base, &chattyActor{})
	w.SetReporter(rep)
	in := NewChannel("in", 2*base.Period)
	out := NewChannel("out", 2*base.Period)
	w.ConnectIn(0, in)
	w.ConnectOut(0, out)
	// Port 1 left unconnected on both sides.
	eng.Add(w)
	eng.Run(60 * base.Period)
	return w
}

// TestWrapperUnconnectedOutput: a valid flit for an unconnected output
// panics in strict mode and is recorded (and dropped) in collecting mode,
// with the wrapper continuing to fire.
func TestWrapperUnconnectedOutput(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic in strict mode")
			}
		}()
		runChatty(nil)
	})
	t.Run("collect", func(t *testing.T) {
		col := fault.NewCollector()
		w := runChatty(col)
		if col.Total() == 0 {
			t.Fatal("no violations collected")
		}
		for _, v := range col.Violations() {
			if v.Kind != fault.RouteError {
				t.Errorf("unexpected violation kind %v", v.Kind)
			}
		}
		// The wrapper must have kept firing after the first violation:
		// the primed input channel allows InitialTokens iterations.
		if w.Fires() < InitialTokens {
			t.Errorf("wrapper fired %d times, want at least %d — stopped after a collected violation",
				w.Fires(), InitialTokens)
		}
	})
}

// TestWrapperStallFreezesFires: an injected PIC stall holds the wrapper at
// its pre-stall fire count for the stall duration, and the stall cycles are
// accounted as such.
func TestWrapperStallFreezesFires(t *testing.T) {
	free := buildRing(t, 0, 0, 0)
	free.eng.Run(600 * free.base.Period)
	freeFires := free.wr.Fires()
	if freeFires < 150 {
		t.Fatalf("unstalled router wrapper fired only %d times", freeFires)
	}

	r := buildRing(t, 0, 0, 0)
	r.wr.Stall(100000) // far longer than the run
	stalledBefore := r.wr.Stalled()
	r.eng.Run(600 * r.base.Period)
	if got := r.wr.Fires(); got != 0 {
		t.Errorf("stalled wrapper fired %d times, want 0", got)
	}
	if r.wr.Stalled() == stalledBefore {
		t.Error("stall cycles not accounted")
	}

	// Non-positive stalls are ignored; positive ones accumulate.
	w := New("acc", clock.NewMHz("c", 500, 0), &chattyActor{})
	w.Stall(-5)
	w.Stall(0)
	if w.stallFault != 0 {
		t.Errorf("non-positive stall changed the fault counter to %d", w.stallFault)
	}
	w.Stall(3)
	w.Stall(4)
	if w.stallFault != 7 {
		t.Errorf("stalls did not accumulate: %d, want 7", w.stallFault)
	}
}

// runStalledRing builds the plesiochronous ring, stalls the router wrapper
// for the whole run, and watches all three wrappers with a liveness
// checker.
func runStalledRing(t *testing.T, rep fault.Reporter) {
	t.Helper()
	r := buildRing(t, +300, -250, +120)
	r.wr.Stall(100000)
	lc := fault.NewLivenessChecker("check.liveness", r.base,
		[]fault.Progress{r.wa, r.wb, r.wr}, 60, rep)
	r.eng.Add(lc)
	r.eng.Run(600 * r.base.Period)
}

// TestLivenessCheckerCatchesStalledWrapper: the Section VI empty-token
// liveness claim is observable — a wrapper that stops firing is reported as
// a Liveness violation naming it, in collecting mode, and panics the run in
// strict mode.
func TestLivenessCheckerCatchesStalledWrapper(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic in strict mode")
			}
		}()
		runStalledRing(t, nil)
	})
	t.Run("collect", func(t *testing.T) {
		col := fault.NewCollector()
		runStalledRing(t, col)
		if col.CountByKind()[fault.Liveness] == 0 {
			t.Fatalf("no liveness violations in %v", col.Violations())
		}
		found := false
		for _, v := range col.Violations() {
			if v.Kind == fault.Liveness && strings.Contains(v.Detail, "wrap.R") {
				found = true
			}
		}
		if !found {
			t.Errorf("no liveness violation names the stalled wrapper: %v", col.Violations())
		}
	})
}
