package experiments_test

// Equivalence gate for the fast-replay hyperperiod compiler: a default,
// replaying run must be byte-identical — connection report, metrics JSON,
// and the raw trace event stream — to the core.Config.CycleAccurate run
// of the same build, across the Section VII workload in all three
// clocking modes, with the guarantee-conformance auditor attached in
// strict (halt-on-violation) mode. Where the compiler cannot engage
// (asynchronous clocking, transactional traffic) it must fall back
// without observable effect.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// eventLog retains the raw event stream as rendered bytes; any field of
// any event diverging between two runs diverges the bytes.
type eventLog struct{ buf bytes.Buffer }

func (l *eventLog) Event(ev trace.Event) {
	fmt.Fprintf(&l.buf, "%d %d %d %d %d %d %d %s\n",
		ev.Time, ev.Ref, ev.Seq, ev.Arg, ev.Conn, ev.Comp, ev.Slot, ev.Kind)
}

// sec7Observables runs one fully instrumented Section VII CBR simulation
// and returns every observable byte stream plus the replay engagement
// count (0 when the program never engaged or was never installed).
func sec7Observables(t *testing.T, mode core.Mode, fast bool) (report, metricsJSON, events []byte, engagements int64) {
	t.Helper()
	n, _, err := experiments.BuildSec7CBR(experiments.Sec7Seed, mode, fast)
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	met := trace.NewMetrics(bus)
	log := &eventLog{}
	bus.Attach(log)
	audit.Attach(n, bus, nil, audit.Options{}) // nil reporter: halt on any violation
	n.AttachTracer(bus)

	rep := n.Run(10000, 30000)

	var rbuf bytes.Buffer
	rep.Write(&rbuf)
	mj, err := json.MarshalIndent(met.Report(0, int64(n.BaseClock().Period)), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if p := n.Replay(); p != nil {
		engagements = p.ProgStats().Engagements
	}
	return rbuf.Bytes(), mj, log.buf.Bytes(), engagements
}

func assertIdentical(t *testing.T, name string, slow, fast []byte) {
	t.Helper()
	if bytes.Equal(slow, fast) {
		return
	}
	// Locate the first diverging line for a usable failure message.
	sl, fl := bytes.Split(slow, []byte("\n")), bytes.Split(fast, []byte("\n"))
	for i := 0; i < len(sl) && i < len(fl); i++ {
		if !bytes.Equal(sl[i], fl[i]) {
			t.Fatalf("%s diverges at line %d:\n  slow: %s\n  fast: %s", name, i+1, sl[i], fl[i])
		}
	}
	t.Fatalf("%s diverges in length: %d vs %d lines", name, len(sl), len(fl))
}

func TestReplayEquivalenceSec7(t *testing.T) {
	for _, tc := range []struct {
		mode   core.Mode
		engage bool // must the compiler actually engage?
	}{
		{core.Synchronous, true},
		{core.Mesochronous, true},
		{core.Asynchronous, false}, // plesiochronous drift: no hyperperiod, must fall back
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sRep, sMet, sEv, _ := sec7Observables(t, tc.mode, false)
			fRep, fMet, fEv, eng := sec7Observables(t, tc.mode, true)
			assertIdentical(t, "connection report", sRep, fRep)
			assertIdentical(t, "metrics JSON", sMet, fMet)
			assertIdentical(t, "event stream", sEv, fEv)
			if len(fEv) == 0 {
				t.Fatal("no events traced; the equivalence is vacuous")
			}
			if tc.engage && eng == 0 {
				t.Fatal("fast replay never engaged; the equivalence is vacuous")
			}
			if !tc.engage && eng != 0 {
				t.Fatalf("fast replay engaged %d times in a mode with no hyperperiod", eng)
			}
		})
	}
}

// TestReplayDeliveriesMatchCycleAccurate: delivery timelines are recorded
// off the bus, so a replaying run yields exactly the timelines of its
// cycle-accurate twin — every connection, every word, to the picosecond —
// and an isolation run need not run cycle-accurate. Each timeline holds
// exactly the deliveries the report counts: the window start drops the
// warm-up as ResetStats does.
func TestReplayDeliveriesMatchCycleAccurate(t *testing.T) {
	const warmupNs, measureNs = 10000, 30000
	run := func(fast bool) (audit.Timelines, int64) {
		n, _, err := experiments.BuildSec7CBR(experiments.Sec7Seed, core.Synchronous, fast)
		if err != nil {
			t.Fatal(err)
		}
		bus := trace.NewBus()
		rx := audit.RecordDeliveries(bus, clock.Time(warmupNs*float64(clock.Nanosecond)), n.Connections()...)
		n.AttachTracer(bus)
		rep := n.Run(warmupNs, measureNs)
		tl := rx.Timelines()
		for _, c := range rep.Conns {
			if got := int64(len(tl[c.Conn])); got != c.Delivered {
				t.Errorf("fast=%v: connection %d timeline holds %d deliveries, report counts %d", fast, c.Conn, got, c.Delivered)
			}
		}
		var eng int64
		if p := n.Replay(); p != nil {
			eng = p.ProgStats().Engagements
		}
		return tl, eng
	}
	slow, _ := run(false)
	fast, eng := run(true)
	if eng == 0 {
		t.Fatal("fast replay never engaged; the comparison is vacuous")
	}
	res := audit.Diff(slow, fast)
	if !res.Identical {
		t.Fatalf("replayed timelines diverge: %s", res.FirstDiff)
	}
	if res.Words == 0 {
		t.Fatal("no deliveries recorded")
	}
}

// TestReplayFallbackTransactional pins the honest fallback: the paper's
// transactional Section VII traffic is rate-exact (byte-per-second
// requirements reduce to pattern periods of up to 2e9 cycles), and
// asynchronous wrappers have no period at all, so the compiler classifies
// the network aperiodic and stays out of the way — detached from the
// engine after the first instants, so the rest of the run never consults
// it.
// consults counts the engine's per-instant calls into the fast path it
// wraps.
type consults struct {
	sim.FastPath
	calls int
}

func (c *consults) Step(until clock.Time) sim.FastResult {
	c.calls++
	return c.FastPath.Step(until)
}

func (c *consults) Observe(now clock.Time, edges int) {
	c.calls++
	c.FastPath.Observe(now, edges)
}

func TestReplayFallbackTransactional(t *testing.T) {
	for _, mode := range []core.Mode{core.Synchronous, core.Asynchronous} {
		t.Run(mode.String(), func(t *testing.T) {
			n, _, _, err := experiments.BuildSec7(experiments.Sec7Seed, 500, mode, false)
			if err != nil {
				t.Fatal(err)
			}
			p := n.Replay()
			if p == nil {
				t.Fatal("the default build installed no program")
			}
			// The engine consults the program through the counting wrapper
			// until the program takes itself off the engine.
			spy := &consults{FastPath: p}
			n.Engine().SetFastPath(spy)
			n.Engine().Run(n.Engine().Now() + 10*n.BaseClock().Period)
			if inert, why := p.Inert(); !inert {
				t.Fatalf("transactional Sec7 should be inert (aperiodic), got active (hyperperiod %d)", p.Hyperperiod())
			} else if why == "" {
				t.Fatal("inert with no recorded reason")
			}
			if spy.calls == 0 {
				t.Fatal("the program was never consulted; the detach check is vacuous")
			}
			before := spy.calls
			rep := n.Run(10000, 20000)
			if spy.calls != before {
				t.Fatalf("an inert program was consulted %d more times", spy.calls-before)
			}
			if got := p.ProgStats().Engagements; got != 0 {
				t.Fatalf("inert program engaged %d times", got)
			}
			if !rep.AllMet() {
				t.Fatal("fallback run missed a requirement the cycle-accurate run meets")
			}
		})
	}
}

// TestReplayDeoptIsTheClosingSync pins why the cbr_replay benchmark job
// deoptimises: once, when the measurement window closes and the report
// asks for real state — never for a timer, a mutation or a tracer swap.
func TestReplayDeoptIsTheClosingSync(t *testing.T) {
	for seed := int64(2009); seed <= 2011; seed++ {
		n, _, err := experiments.BuildSec7CBR(seed, core.Synchronous, true)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(2000, 4e6)
		st := n.Replay().ProgStats()
		var want [len(st.DeoptsBy)]int64
		want[replay.DeoptSync] = 1
		if st.Engagements != 1 || st.Deopts != 1 || st.DeoptsBy != want {
			t.Errorf("seed %d: %d engagements, %d deopts by cause %v; want 1, 1, %v",
				seed, st.Engagements, st.Deopts, st.DeoptsBy, want)
		}
	}
}

// TestReplayEngagesOneHyperperiodAfterWarmUp is the engagement gate of
// the cbr_replay benchmark job: the warm-up's closing Sync re-anchors the
// program, the first epoch after it is shift-clean, so replay engages at
// warm-up end + H + one cycle (the anchor is the first instant the
// warm-up did not execute), and serves every later instant of the
// window. The cycle-accurate prefix is warm-up + H: no start-up epoch is
// recorded only to be spoiled by the measurement reset.
func TestReplayEngagesOneHyperperiodAfterWarmUp(t *testing.T) {
	const warmupNs, measureNs = 2000, 4e6
	for seed := int64(2009); seed <= 2011; seed++ {
		n, _, err := experiments.BuildSec7CBR(seed, core.Synchronous, true)
		if err != nil {
			t.Fatal(err)
		}
		n.Run(warmupNs, measureNs)
		p := n.Replay()
		st := p.ProgStats()
		period := n.BaseClock().Period
		hp := p.Hyperperiod()
		warmup := clock.Time(warmupNs * float64(clock.Nanosecond))
		if want := warmup + clock.Time(hp) + clock.Time(period); st.FirstEngagedAt != want {
			t.Errorf("seed %d: first engaged at instant %d, want %d (warm-up %d + H %d + 1)", seed,
				int64(st.FirstEngagedAt)/int64(period), int64(want)/int64(period),
				int64(warmup)/int64(period), int64(hp)/int64(period))
		}
		// The run's instants are its edges, the first one period in: 2,001,000,
		// of which the first 5,609 (H = 4,608 cycles) execute.
		instants := int64(warmup+clock.Time(measureNs*float64(clock.Nanosecond))) / int64(period)
		if want := instants - int64(st.FirstEngagedAt)/int64(period); st.ReplayedInstants != want {
			t.Errorf("seed %d: %d instants replayed, want %d", seed, st.ReplayedInstants, want)
		}
	}
}

// TestReplayHeapIndependentOfRunLength is the memory guard of the
// run-length latency histograms: a replayed run retains its distinct
// (connection, latency) pairs and one epoch's samples, not one value per
// delivered word, so eight times the simulated time must not grow the
// live heap (~2 MB, the network). With per-sample retention it was
// 14 MB after 0.5 ms and 99 MB after 4 ms.
func TestReplayHeapIndependentOfRunLength(t *testing.T) {
	liveHeap := func(measureNs float64) float64 {
		n, _, err := experiments.BuildSec7CBR(experiments.Sec7Seed, core.Synchronous, true)
		if err != nil {
			t.Fatal(err)
		}
		rep := n.Run(10000, measureNs)
		if n.Replay().ProgStats().Engagements == 0 {
			t.Fatal("fast replay never engaged; the guard is vacuous")
		}
		if !rep.AllMet() {
			t.Fatal("requirements missed")
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(n)
		runtime.KeepAlive(rep)
		return float64(ms.HeapAlloc)
	}
	short, long := liveHeap(0.5e6), liveHeap(4e6)
	if long > 1.25*short {
		t.Fatalf("live heap grew with run length: %.1f MB after 0.5 ms, %.1f MB after 4 ms simulated",
			short/(1<<20), long/(1<<20))
	}
}
