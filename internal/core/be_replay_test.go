package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// beEventLog records the full event stream as deterministic text and
// notes, on every event the engaged program replays, whether a router
// held words at the boundary it engaged on: while a program is engaged
// the components keep their state at that boundary.
type beEventLog struct {
	buf              bytes.Buffer
	n                *BENetwork
	bufferedAtEngage bool
}

func (l *beEventLog) Event(ev trace.Event) {
	fmt.Fprintf(&l.buf, "%d %d %d %d %d %d %d %d\n",
		ev.Time, ev.Ref, ev.Conn, ev.Seq, ev.Arg, ev.Comp, ev.Slot, ev.Kind)
	if p := l.n.prog; p != nil && p.Engaged() && !l.bufferedAtEngage {
		for _, r := range l.n.routers {
			if r.Buffered() > 0 {
				l.bufferedAtEngage = true
			}
		}
	}
}

// beRun is everything observable about one best-effort run, and what
// the replay program did during it.
type beRun struct {
	report, metrics, events []byte
	edges                   int64
	routers                 []int64 // Forwarded and Stalls of every router, in mesh order
	stats                   replay.Stats
	bufferedAtEngage        bool
}

// observeBE generates the scenario afresh, builds its best-effort network
// at freqMHz with the given CycleAccurate setting and runs it with the
// bus, an event log and the metrics sink attached. A positive timerNs
// schedules a callback at that instant that disables one generator.
func observeBE(t *testing.T, scfg scenario.Config, freqMHz float64, cycleAccurate bool, timerNs float64) beRun {
	t.Helper()
	const warmupNs, measureNs = 4000, 15000
	s, err := scenario.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := BuildBE(s.Mesh(), s.UseCase, Config{FreqMHz: freqMHz, WordBytes: scfg.WordBytes,
		CycleAccurate: cycleAccurate})
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus()
	log := &beEventLog{n: n}
	bus.Attach(log)
	met := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	if timerNs > 0 {
		victim := n.Generator(s.UseCase.Connections[0].ID)
		n.eng.At(clock.Time(timerNs*float64(clock.Nanosecond)), func() { victim.SetEnabled(false) })
	}
	rep := n.Run(warmupNs, measureNs)
	r := beRun{events: log.buf.Bytes(), edges: n.eng.Edges(), bufferedAtEngage: log.bufferedAtEngage}
	var buf bytes.Buffer
	rep.Write(&buf)
	r.report = append(r.report, buf.Bytes()...)
	buf.Reset()
	if err := met.Report(0, int64(n.base.Period)).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r.metrics = buf.Bytes()
	for _, id := range n.Mesh.Routers() {
		r.routers = append(r.routers, n.routers[id].Forwarded(), n.routers[id].Stalls())
	}
	if n.prog != nil {
		r.stats = n.prog.ProgStats()
	}
	return r
}

// requireSameBE holds a replaying run to its cycle-accurate twin on every
// surface, byte for byte.
func requireSameBE(t *testing.T, what string, ca, fast beRun) {
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
	} {
		if !bytes.Equal(s.ca, s.fast) {
			t.Errorf("%s: the %s differs from the cycle-accurate run's", what, s.name)
		}
	}
	if ca.edges != fast.edges {
		t.Errorf("%s: %d edges, cycle-accurate %d", what, fast.edges, ca.edges)
	}
	if fmt.Sprint(ca.routers) != fmt.Sprint(fast.routers) {
		t.Errorf("%s: router Forwarded/Stalls %v, cycle-accurate %v", what, fast.routers, ca.routers)
	}
}

// TestBEReplayMatchesCycleAccurate holds best-effort replay to
// byte-identical observation against Config.CycleAccurate on every
// scenario family, 24 and 48 connections, three seeds on 4x4. At the
// scenario frequency every run engages. At a quarter of it the offered
// load saturates parts of the fabric: the set must hold a run that
// engages with words buffered in a router and a run that never engages.
// One more run hands a scheduled callback back to the engine mid-replay,
// part-way through an epoch.
func TestBEReplayMatchesCycleAccurate(t *testing.T) {
	var bufferedEngaged, neverEngaged int
	for _, fam := range scenario.Families() {
		for _, conns := range []int{24, 48} {
			for seed := int64(2009); seed <= 2011; seed++ {
				scfg := scenario.Default(fam, 4, 4, conns, seed)
				for _, freq := range []float64{scfg.FreqMHz, scfg.FreqMHz / 4} {
					what := fmt.Sprintf("%s/%d seed %d at %g MHz", fam, conns, seed, freq)
					ca := observeBE(t, scfg, freq, true, 0)
					fast := observeBE(t, scfg, freq, false, 0)
					requireSameBE(t, what, ca, fast)
					engaged := fast.stats.Engagements > 0
					switch {
					case freq == scfg.FreqMHz:
						if !engaged {
							t.Errorf("%s: replay never engaged", what)
						}
					case !engaged:
						neverEngaged++
					case fast.bufferedAtEngage:
						bufferedEngaged++
					}
				}
			}
		}
	}
	if bufferedEngaged == 0 || neverEngaged == 0 {
		t.Errorf("quarter-frequency set: %d runs engaged with words buffered in a router, %d never engaged; want both",
			bufferedEngaged, neverEngaged)
	}

	scfg := scenario.Default(scenario.Uniform, 4, 4, 24, 2009)
	const timerNs = 4000 + 7500 + 37
	ca := observeBE(t, scfg, scfg.FreqMHz, true, timerNs)
	fast := observeBE(t, scfg, scfg.FreqMHz, false, timerNs)
	requireSameBE(t, "timer run", ca, fast)
	if fast.stats.DeoptsBy[replay.DeoptTimer] != 1 {
		t.Errorf("timer run: deopts by cause %v; want one timer deopt", fast.stats.DeoptsBy)
	}
}
