package experiments_test

// Randomized equivalence fuzzing for the fast-replay compiler over small
// meshes (2x2 up to 4x3), mixed clocking modes and random slot tables,
// plus the deopt test: a data-dependent fault armed in the middle of an
// engaged replay must deoptimise to cycle-accurate execution with a trace
// byte-identical to a run that never replayed at all.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/phit"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// buildSmallCBR builds a random small-mesh use case at replay-admissible
// quantised CBR rates. A
// PlacementError is returned to the caller (a random draw may simply not
// fit the table); any other error fails.
func buildSmallCBR(t *testing.T, seed int64, w, h, nisPer, tableSize int, mode core.Mode, fast bool) (*core.Network, error) {
	t.Helper()
	m := topology.NewMesh(w, h, nisPer)
	cfg := core.Config{Mode: mode, TableSize: tableSize, PhaseSeed: seed, CycleAccurate: !fast}
	ips := w * h * nisPer
	uc := spec.Random(spec.RandomConfig{
		Name: fmt.Sprintf("fuzz-%d", seed), Seed: seed,
		IPs: ips, Apps: 2, Conns: ips + 2,
		MinRateMBps: 15, MaxRateMBps: 120,
		MinLatencyNs: 500, MaxLatencyNs: 2000,
	})
	spec.MapIPsRoundRobin(uc, m, seed)
	for i := range uc.Connections {
		uc.Connections[i].BandwidthMBps = experiments.Sec7QuantizeRateMBps(uc.Connections[i].BandwidthMBps)
	}
	if err := uc.Validate(); err != nil {
		t.Fatalf("seed %d: invalid use case: %v", seed, err)
	}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		var pe *slots.PlacementError
		if errors.As(err, &pe) {
			return nil, err
		}
		t.Fatalf("seed %d: Build: %v", seed, err)
	}
	return n, nil
}

// tracedRun runs the network with a full event log attached and returns
// the rendered report + raw event stream, plus replay engagement count.
func tracedRun(t *testing.T, n *core.Network, warmNs, measNs float64) (obs []byte, engagements int64) {
	t.Helper()
	bus := trace.NewBus()
	log := &eventLog{}
	bus.Attach(log)
	n.AttachTracer(bus)
	rep := n.Run(warmNs, measNs)
	var buf bytes.Buffer
	rep.Write(&buf)
	buf.Write(log.buf.Bytes())
	if p := n.Replay(); p != nil {
		engagements = p.ProgStats().Engagements
	}
	return buf.Bytes(), engagements
}

func TestReplayFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20090808))
	meshes := [][3]int{{2, 2, 1}, {3, 2, 1}, {3, 2, 2}, {4, 3, 1}}
	tables := []int{8, 12, 16}
	modes := []core.Mode{core.Synchronous, core.Mesochronous}
	built, engaged := 0, 0
	for draw := 0; draw < 16 && built < 8; draw++ {
		msh := meshes[rng.Intn(len(meshes))]
		tbl := tables[rng.Intn(len(tables))]
		mode := modes[rng.Intn(len(modes))]
		seed := rng.Int63n(1 << 30)
		name := fmt.Sprintf("%dx%dx%d/t%d/%s/seed%d", msh[0], msh[1], msh[2], tbl, mode, seed)

		slow, err := buildSmallCBR(t, seed, msh[0], msh[1], msh[2], tbl, mode, false)
		if err != nil {
			continue // this draw does not fit its slot table
		}
		fast, err := buildSmallCBR(t, seed, msh[0], msh[1], msh[2], tbl, mode, true)
		if err != nil {
			t.Fatalf("%s: fast build failed where slow succeeded: %v", name, err)
		}
		sObs, _ := tracedRun(t, slow, 4000, 16000)
		fObs, eng := tracedRun(t, fast, 4000, 16000)
		if !bytes.Equal(sObs, fObs) {
			assertIdentical(t, name, sObs, fObs)
		}
		if len(fObs) == 0 {
			t.Fatalf("%s: no observable output", name)
		}
		built++
		if eng > 0 {
			engaged++
		}
	}
	if built < 4 {
		t.Fatalf("only %d random draws were placeable; the fuzz is too thin", built)
	}
	if engaged == 0 {
		t.Fatal("no fuzz draw ever engaged the fast path; the equivalence is vacuous")
	}
	t.Logf("%d draws compared byte-identical, %d with the fast path engaged", built, engaged)
}

// TestReplayDeoptMidRun arms a data-dependent fault (a wire intercept
// dropping three phits) via an engine timer that fires while the fast
// path is engaged and replaying recorded epochs. The replay must stop at
// the timer horizon, materialise the architectural state, resume
// cycle-accurately through the fault, and never re-engage while the hook
// is armed — producing an event stream byte-identical to a run that never
// replayed anything. The network is mesochronous: it runs on word links,
// where faults land, with nothing watching them that replay could not
// fingerprint.
func TestReplayDeoptMidRun(t *testing.T) {
	const seed = 7
	run := func(fast bool) ([]byte, int64, int64) {
		n, err := buildSmallCBR(t, seed, 3, 2, 1, 16, core.Mesochronous, fast)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		bus := trace.NewBus()
		log := &eventLog{}
		bus.Attach(log)
		n.AttachTracer(bus)
		eng := n.Engine()
		links := n.FaultTargets().Links
		if len(links) == 0 {
			t.Fatal("no faultable links")
		}
		w := links[0].Wire
		drops := 0
		eng.At(12000*clock.Nanosecond, func() {
			w.SetIntercept(func(v phit.Phit, driven bool) phit.Phit {
				if driven && v.Valid && drops < 3 {
					drops++
					return phit.IdlePhit
				}
				return v
			})
		})
		eng.Run(24000 * clock.Nanosecond)
		if drops == 0 {
			t.Fatal("the armed fault never dropped anything; the deopt is untested")
		}
		var engagements, deopts int64
		if p := n.Replay(); p != nil {
			st := p.ProgStats()
			engagements, deopts = st.Engagements, st.Deopts
		}
		return log.buf.Bytes(), engagements, deopts
	}
	slowEv, _, _ := run(false)
	fastEv, engagements, deopts := run(true)
	assertIdentical(t, "deopt event stream", slowEv, fastEv)
	if engagements == 0 {
		t.Fatal("fast path never engaged before the fault; the deopt is untested")
	}
	if deopts == 0 {
		t.Fatal("fast path never deoptimised despite the mid-replay fault")
	}
}
