package routerless

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// replayRun is everything observable about one audited run, and what
// the replay program did during it.
type replayRun struct {
	report, metrics, events, audit []byte
	stats                          replay.Stats
}

// observeReplay generates the scenario afresh, builds it with the given
// CycleAccurate setting, and runs it with the bus, a raw event log, the
// metrics sink and the auditor attached. With disturb, the run first
// stops for an Engine.Sync past the first engagement, and a scheduled
// callback in the middle of the window disables one generator, a timer
// the program has to hand back to the engine.
func observeReplay(t *testing.T, scfg scenario.Config, cycleAccurate, disturb bool, warmupNs, measureNs float64) replayRun {
	t.Helper()
	s, err := scenario.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(s.Mesh(), s.UseCase, core.Config{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes,
		CycleAccurate: cycleAccurate})
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	log := &recSink{}
	bus.Attach(log)
	met := trace.NewMetrics(bus)
	aud := audit.Attach(n, bus, fault.NewCollector(), audit.Options{})
	n.AttachTracer(bus)
	if disturb {
		eng := n.Engine()
		ns := clock.Time(clock.Nanosecond)
		eng.Run(eng.Now() + clock.Time(warmupNs)*ns)
		eng.Sync()
		victim := n.Generator(n.Connections()[0])
		eng.At(eng.Now()+clock.Time(warmupNs+measureNs/2)*ns, func() { victim.SetEnabled(false) })
	}
	rep := n.Run(warmupNs, measureNs)
	var r replayRun
	var buf bytes.Buffer
	rep.Write(&buf)
	r.report = append(r.report, buf.Bytes()...)
	buf.Reset()
	if err := met.Report(0, int64(n.base.Period)).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r.metrics = append(r.metrics, buf.Bytes()...)
	buf.Reset()
	aud.WriteSummary(&buf)
	r.audit = buf.Bytes()
	r.events = log.buf.Bytes()
	if p := n.Replay(); p != nil {
		r.stats = p.ProgStats()
	}
	return r
}

// requireSameRun holds a replaying run to its cycle-accurate twin on
// every surface, byte for byte.
func requireSameRun(t *testing.T, what string, ca, fast replayRun) {
	t.Helper()
	if len(ca.events) == 0 {
		t.Fatalf("%s: no events traced; the equivalence is vacuous", what)
	}
	for _, s := range []struct {
		name     string
		ca, fast []byte
	}{
		{"report", ca.report, fast.report},
		{"metrics JSON", ca.metrics, fast.metrics},
		{"event stream", ca.events, fast.events},
		{"audit summary", ca.audit, fast.audit},
	} {
		if !bytes.Equal(s.ca, s.fast) {
			t.Errorf("%s: the %s differs from the cycle-accurate run's", what, s.name)
		}
	}
}

// TestReplayEquivalenceRouterless holds ring replay to byte-identical
// observation against Config.CycleAccurate on the comparison workload
// (uniform 4x4/24), undisturbed and across a mid-replay Sync and a
// scheduled callback that changes the traffic.
func TestReplayEquivalenceRouterless(t *testing.T) {
	for seed := int64(2009); seed <= 2011; seed++ {
		for _, disturb := range []bool{false, true} {
			what := fmt.Sprintf("seed %d disturbed %v", seed, disturb)
			scfg := scenario.Default(scenario.Uniform, 4, 4, 24, seed)
			ca := observeReplay(t, scfg, true, disturb, 4000, 60000)
			fast := observeReplay(t, scfg, false, disturb, 4000, 60000)
			requireSameRun(t, what, ca, fast)
			if fast.stats.Engagements == 0 {
				t.Errorf("%s: replay never engaged; the equivalence is vacuous", what)
			}
			if disturb && (fast.stats.DeoptsBy[replay.DeoptSync] < 2 || fast.stats.DeoptsBy[replay.DeoptTimer] < 1) {
				t.Errorf("%s: deopts by cause %v; want the extra Sync and the timer among them", what, fast.stats.DeoptsBy)
			}
		}
	}
}

// TestReplayFuzzEquivalenceRouterless draws small meshes, every scenario
// family and random seeds; whatever replay does on them, it must not be
// seen.
func TestReplayFuzzEquivalenceRouterless(t *testing.T) {
	rng := rand.New(rand.NewSource(20090808))
	var engaged int
	for i := 0; i < 16; i++ {
		fams := scenario.Families()
		fam := fams[rng.Intn(len(fams))]
		cols, rows := 2+rng.Intn(3), 1+rng.Intn(3)
		conns := 2 + rng.Intn(cols*rows)
		scfg := scenario.Default(fam, cols, rows, conns, rng.Int63n(1<<20))
		if _, err := scenario.Generate(scfg); err != nil {
			continue // the draw does not fit its mesh
		}
		disturb := i%2 == 1
		what := fmt.Sprintf("%s %dx%d/%d seed %d disturbed %v", fam, cols, rows, conns, scfg.Seed, disturb)
		ca := observeReplay(t, scfg, true, disturb, 2000, 20000)
		fast := observeReplay(t, scfg, false, disturb, 2000, 20000)
		requireSameRun(t, what, ca, fast)
		if fast.stats.Engagements > 0 {
			engaged++
		}
	}
	if engaged == 0 {
		t.Fatal("replay engaged on no draw; the fuzzing is vacuous")
	}
}

// idle is a component with no replay period: adding it to a running
// network makes the program's next rescan fail.
type idle struct{ clk *clock.Clock }

func (c idle) Name() string          { return "idle" }
func (c idle) Clock() *clock.Clock   { return c.clk }
func (c idle) Update(now clock.Time) {}

// TestReplayInertStopsLatencyLogs: when the program goes inert after it
// anchored, the rings stop logging epoch latencies, so a long run past
// that point holds no per-delivery log. A Mark and a one-epoch Shift after
// the run replay only what was logged before the program went inert, which
// is at most what had been delivered by then.
func TestReplayInertStopsLatencyLogs(t *testing.T) {
	scfg := scenario.Default(scenario.Uniform, 4, 4, 24, 2009)
	s, err := scenario.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(s.Mesh(), s.UseCase, core.Config{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes})
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	eng.Run(eng.Now() + 100*n.base.Period)
	hp := n.Replay().Hyperperiod()
	if hp == 0 {
		t.Fatal("the program never anchored; the check is vacuous")
	}
	eng.Add(idle{n.base})
	eng.Run(eng.Now() + 100*n.base.Period)
	if inert, why := n.Replay().Inert(); !inert || why == "" {
		t.Fatalf("inert = %v (%q); want inert with a reason", inert, why)
	}
	atInert := make(map[phit.ConnID]int64)
	for _, ci := range n.conns {
		atInert[ci.spec.ID] = ci.rx.Delivered
	}
	eng.Run(eng.Now() + 20000*n.base.Period)
	for _, ci := range n.conns {
		id, st := ci.spec.ID, &ci.rx
		if st.Delivered <= 2*atInert[id] {
			t.Fatalf("connection %d delivered %d words in all, %d before the program went inert; the check is vacuous",
				id, st.Delivered, atInert[id])
		}
		before := st.Latency.N()
		if st.Mark() {
			t.Errorf("connection %d still held a boundary snapshot", id)
		}
		st.Shift(&replay.Shift{Epochs: 1, DT: hp})
		if added := st.Latency.N() - before; added > atInert[id] {
			t.Errorf("connection %d: one epoch replayed %d latencies, more than the %d delivered before the program went inert",
				id, added, atInert[id])
		}
	}
}

// TestReplayFingerprintSeesEveryField changes one architectural field of
// a ring at a time and requires the fingerprint to change with it. Left
// out by design: slot ownership and the visit table, fixed once
// buildVisits has run; the stops; the cargo of an empty slot, which
// nothing reads; and the connections' statistics, which shift by their
// per-epoch deltas.
func TestReplayFingerprintSeesEveryField(t *testing.T) {
	ctx := &replay.Ctx{Now: 1000, SeqBase: func(phit.ConnID) int64 { return 0 }}
	// Slot 0 carries one word of the first connection, which has a second
	// word queued.
	base := func() *ring {
		r, _ := randomRing(6, 1)
		r.word, r.nextEdge, r.edgePeriod = 1, 1500, r.net.base.Period
		ci := r.conns[0]
		r.wheel[0] = entry{ci: ci, n: 1}
		r.wheel[0].words[0] = pending{seq: 3, injected: 600}
		ci.q = append(ci.q, pending{seq: 4, injected: 700})
		return r
	}
	want := base().ReplayFingerprint(ctx, nil)
	for _, c := range []struct {
		field  string
		change func(r *ring)
	}{
		{"rotation", func(r *ring) { r.rot++ }},
		{"word within the flit", func(r *ring) { r.word = 2 }},
		{"next edge", func(r *ring) { r.nextEdge++ }},
		{"edge period", func(r *ring) { r.edgePeriod++ }},
		{"slot cargo count", func(r *ring) { r.wheel[0].n = 2 }},
		{"slot cargo connection", func(r *ring) { r.wheel[0].ci = r.conns[1] }},
		{"slot cargo sequence number", func(r *ring) { r.wheel[0].words[0].seq++ }},
		{"slot cargo injection instant", func(r *ring) { r.wheel[0].words[0].injected++ }},
		{"source queue length", func(r *ring) { r.conns[0].q = r.conns[0].q[:0] }},
		{"queued sequence number", func(r *ring) { r.conns[0].q[0].seq++ }},
		{"queued injection instant", func(r *ring) { r.conns[0].q[0].injected++ }},
	} {
		r := base()
		c.change(r)
		if bytes.Equal(r.ReplayFingerprint(ctx, nil), want) {
			t.Errorf("%s: the fingerprint did not change", c.field)
		}
	}
}
