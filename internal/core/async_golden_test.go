package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// asyncGolden pins the asynchronous path the benchmark does not run:
// configured plesiochronous clocks (PPM > 0), without and with an injected
// PIC stall. Clock periods round to whole picoseconds, and at 500 MHz one
// picosecond is 500 ppm, so every |ppm| < 250 gives exactly 2000 ps: the
// ppm200 rows run 60 equal periods at distinct phases, and only the
// injected run has wrappers waiting on their neighbours. The ppm200 digests
// were recorded from the binary of the commit before the engine stopped
// committing channels, the clock heap went in place and TokenChannel became
// a ring. At 1000 ppm the periods are 1998-2002 ps, so clocks overtake
// each other in the schedule and wrappers wait on drift alone; that digest
// was recorded from the binary of the commit before the sorted clock ring
// replaced the heap and generators began sleeping. A scheduler or channel
// change that moves one fire by one edge fails here.
var asyncGolden = map[string]struct {
	ppm    float64
	inject bool
	digest string
}{
	"ppm200":       {200, false, "e6e236e34e8a045301f78bdd84c4f435a31c991d78aeaffdb0677f9e56b89946"},
	"ppm200_stall": {200, true, "ccf8029b32ed2d631b8b0ad8564da475695992221c6ef5a4fec9b549ae195794"},
	"ppm1000":      {1000, false, "ccbc0a56764d36d9fbb6ef61d0c6f012d5ce49fde1e09f32cf071b60ce90c4f7"},
}

// stallSum keeps each wrapper's latest cumulative stall count, which every
// WrapperFire event carries as Arg.
type stallSum map[trace.CompID]int64

func (s stallSum) Event(ev trace.Event) {
	if ev.Kind == trace.WrapperFire {
		s[ev.Comp] = ev.Arg
	}
}

func (s stallSum) total() (n int64) {
	for _, v := range s {
		n += v
	}
	return n
}

// asyncSec7Digest runs the Section VII use case (budgets negotiated as
// BuildSec7 does) on 60 clocks drawn up to ppm from the base frequency and
// hashes the rendered report plus the total wrapper stall count.
func asyncSec7Digest(t *testing.T, ppm float64, inject bool) (digest string, stalls int64) {
	t.Helper()
	_, uc, _, err := experiments.BuildSec7(experiments.Sec7Seed, 500, core.Asynchronous, false)
	if err != nil {
		t.Fatal(err)
	}
	m := experiments.Sec7Mesh()
	cfg := core.Config{Mode: core.Asynchronous, PhaseSeed: 13, PPM: ppm}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	sum := stallSum{}
	bus.Attach(sum)
	n.AttachTracer(bus)
	if inject {
		// Mid-window: warm-up is 2000 ns, the window 20000 ns.
		targets := n.FaultTargets().Stalls
		n.Engine().At(12000*clock.Nanosecond, func() {
			targets[0].Stall(40)
			targets[len(targets)/2].Stall(25)
		})
	}
	rep := n.Run(2000, 20000)
	if !inject && !rep.AllWithinBound() {
		// An injected stall is outside the analysis; drift is inside it.
		t.Errorf("a measured latency exceeded its analytical bound at %g ppm", ppm)
	}
	h := sha256.New()
	rep.Write(h)
	fmt.Fprintf(h, "wrapper stalls %d\n", sum.total())
	return hex.EncodeToString(h.Sum(nil)), sum.total()
}

func TestAsyncPlesiochronousGolden(t *testing.T) {
	for name, want := range asyncGolden {
		t.Run(name, func(t *testing.T) {
			got, stalls := asyncSec7Digest(t, want.ppm, want.inject)
			if want.inject && stalls == 0 {
				t.Errorf("0 wrapper stalls: the injected stall did not reach the firing rule")
			}
			if got != want.digest {
				t.Errorf("digest %s (%d stalls), want %s", got, stalls, want.digest)
			}
		})
	}
}
