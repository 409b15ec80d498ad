package core_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// buildComposability constructs a fresh network over the same spec and
// allocation inputs; construction is fully deterministic, so two calls
// yield identical schedules.
func buildComposability(t *testing.T, mode core.Mode) (*core.Network, *spec.UseCase) {
	t.Helper()
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "compos", Seed: 21, IPs: 12, Apps: 3, Conns: 14,
		MinRateMBps: 15, MaxRateMBps: 150,
		MinLatencyNs: 250, MaxLatencyNs: 900,
	})
	spec.MapIPsRoundRobin(uc, m, 5)
	cfg := core.Config{Mode: mode, PhaseSeed: 4}
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, uc
}

// attachStrictAuditor gives n a fresh bus with a strict auditor on it,
// which checks every flit against the allocation and its bound and panics
// at the first violation; tolerate spares deliberate oversubscribers.
func attachStrictAuditor(n *core.Network, tolerate bool) (*trace.Bus, *audit.Auditor) {
	bus := trace.NewBus()
	a := audit.Attach(n, bus, nil, audit.Options{TolerateOversubscription: tolerate})
	n.AttachTracer(bus)
	return bus, a
}

// appConns lists one application's connections.
func appConns(uc *spec.UseCase, app spec.AppID) []phit.ConnID {
	var ids []phit.ConnID
	for _, c := range uc.Connections {
		if c.App == app {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// arrivalsOfApp runs the network and returns, per connection of the given
// app, the exact arrival instants of every payload word.
func arrivalsOfApp(t *testing.T, n *core.Network, uc *spec.UseCase, app spec.AppID,
	enable func(c spec.Connection) bool, hostile bool) audit.Timelines {
	t.Helper()
	for _, c := range uc.Connections {
		g := n.Generator(c.ID)
		if !enable(c) {
			g.SetEnabled(false)
			continue
		}
		if hostile && c.App != app {
			// Oversubscribe other applications well beyond their
			// allocation.
			g.SetRateMBps(c.BandwidthMBps*8, n.Cfg.WordBytes)
		}
	}
	bus, _ := attachStrictAuditor(n, hostile)
	rx := audit.RecordDeliveries(bus, 0, appConns(uc, app)...)
	n.Run(0, 40000)
	return rx.Timelines()
}

func checkIdenticalTiming(t *testing.T, alone, shared audit.Timelines) {
	t.Helper()
	for conn, a := range alone {
		if len(a) == 0 {
			t.Errorf("connection %d delivered nothing", conn)
		}
	}
	if r := audit.Diff(alone, shared); !r.Identical {
		t.Errorf("interference detected: %s", r.FirstDiff)
	}
}

// TestComposabilityIsolatedVsShared is the paper's central claim
// (Sections I, III, VII): an application's temporal behaviour is
// bit-identical whether it runs alone or alongside every other
// application. We compare the exact arrival instant of every word of app
// 0 between a run with only app 0 enabled and a run with all apps enabled.
func TestComposabilityIsolatedVsShared(t *testing.T) {
	for _, mode := range []core.Mode{core.Synchronous, core.Mesochronous} {
		t.Run(mode.String(), func(t *testing.T) {
			n1, uc := buildComposability(t, mode)
			alone := arrivalsOfApp(t, n1, uc, 0,
				func(c spec.Connection) bool { return c.App == 0 }, false)

			n2, uc2 := buildComposability(t, mode)
			shared := arrivalsOfApp(t, n2, uc2, 0,
				func(c spec.Connection) bool { return true }, false)

			checkIdenticalTiming(t, alone, shared)
		})
	}
}

// TestComposabilityUnderHostileLoad sharpens the claim: even when every
// other application oversubscribes its allocation by 8x (and is therefore
// throttled by back-pressure), app 0's timing does not move by a single
// picosecond.
func TestComposabilityUnderHostileLoad(t *testing.T) {
	n1, uc := buildComposability(t, core.Synchronous)
	alone := arrivalsOfApp(t, n1, uc, 0,
		func(c spec.Connection) bool { return c.App == 0 }, false)

	n2, uc2 := buildComposability(t, core.Synchronous)
	hostile := arrivalsOfApp(t, n2, uc2, 0,
		func(c spec.Connection) bool { return true }, true)

	checkIdenticalTiming(t, alone, hostile)

	// The hostile apps themselves must have been throttled to at most
	// their guaranteed bandwidth (plus header-elision upside), not
	// crashed into other traffic: their generators saw rejections.
	throttled := false
	for _, c := range uc2.Connections {
		if c.App != 0 && n2.Generator(c.ID).Rejected() > 0 {
			throttled = true
			break
		}
	}
	if !throttled {
		t.Error("no hostile generator was ever back-pressured; the hostile load did not stress the network")
	}
}

// TestDeterminism: two identically built and driven networks produce
// byte-identical reports — the engine is exactly reproducible.
func TestDeterminism(t *testing.T) {
	n1, _ := buildComposability(t, core.Mesochronous)
	n2, _ := buildComposability(t, core.Mesochronous)
	attachStrictAuditor(n1, false)
	attachStrictAuditor(n2, false)
	r1 := n1.Run(2000, 20000)
	r2 := n2.Run(2000, 20000)
	if len(r1.Conns) != len(r2.Conns) {
		t.Fatalf("report sizes differ: %d vs %d", len(r1.Conns), len(r2.Conns))
	}
	for i := range r1.Conns {
		a, b := r1.Conns[i], r2.Conns[i]
		if a != b {
			t.Errorf("connection %d reports differ:\n%+v\n%+v", a.Conn, a, b)
		}
	}
}

// TestBEInterference is the counter-example to aelite's composability: on
// the BE network, adding other applications changes app 0's word-level
// timing. (It would be astonishing if wormhole arbitration did not perturb
// a single word; the assertion documents that our baseline really does
// interfere rather than secretly time-multiplexing.)
func TestBEInterference(t *testing.T) {
	record := func(only bool) audit.Timelines {
		m := topology.NewMesh(3, 2, 2)
		uc := spec.Random(spec.RandomConfig{
			Name: "beinterf", Seed: 21, IPs: 12, Apps: 3, Conns: 14,
			MinRateMBps: 60, MaxRateMBps: 300,
			MinLatencyNs: 250, MaxLatencyNs: 900,
		})
		spec.MapIPsRoundRobin(uc, m, 5)
		n, err := core.BuildBE(m, uc, core.Config{})
		if err != nil {
			t.Fatalf("BuildBE: %v", err)
		}
		for _, c := range uc.Connections {
			if only && c.App != 0 {
				n.Generator(c.ID).SetEnabled(false)
			}
		}
		bus := trace.NewBus()
		rx := audit.RecordDeliveries(bus, 0, appConns(uc, 0)...)
		n.AttachTracer(bus)
		n.Run(0, 40000)
		return rx.Timelines()
	}

	if audit.Diff(record(true), record(false)).Identical {
		t.Error("BE timing of app 0 is identical with and without other apps — the baseline shows no interference, which defeats the comparison")
	}
}

// TestReconfigurationUndisrupted is reference [16]'s claim, on this
// implementation: stopping one application, draining it, releasing its
// slots, and admitting a brand-new connection into the freed capacity
// does not move a single word of the surviving application by a single
// picosecond — compared against a run with no reconfiguration at all.
func TestReconfigurationUndisrupted(t *testing.T) {
	record := func(reconfigure bool) (audit.Timelines, *core.Network) {
		n, uc := buildComposability(t, core.Synchronous)
		bus, aud := attachStrictAuditor(n, false)
		rx := audit.RecordDeliveries(bus, 0, appConns(uc, 0)...)
		n.Run(0, 20000)
		if reconfigure {
			// Stop every app-1 connection.
			for _, id := range appConns(uc, 1) {
				if err := n.CloseConnection(id); err != nil {
					t.Fatalf("CloseConnection(%d): %v", id, err)
				}
			}
			// Admit a new connection between two previously used
			// endpoints, into the freed slots.
			newConn := spec.Connection{
				ID: 900, App: 2, Src: uc.Connections[0].Src, Dst: uc.Connections[1].Dst,
				BandwidthMBps: 60, MaxLatencyNs: 600,
			}
			if sIP, _ := uc.IP(newConn.Src); func() bool {
				d, _ := uc.IP(newConn.Dst)
				return sIP.NI == d.NI
			}() {
				// Pick another destination on a different NI.
				for _, ip := range uc.IPs {
					if s, _ := uc.IP(newConn.Src); ip.NI != s.NI {
						newConn.Dst = ip.ID
						break
					}
				}
			}
			if d, err := n.Admit(newConn); err != nil || !d.Admissible {
				t.Fatalf("Admit(%d): %v, %s (%s)", newConn.ID, err, d.Reason, d.Detail)
			}
			aud.Resync(n)
		}
		// Continue to the same absolute horizon in both runs.
		n.Engine().Run(90000 * clock.Nanosecond)
		return rx.Timelines(), n
	}

	baseline, _ := record(false)
	reconfigured, n := record(true)
	checkIdenticalTiming(t, baseline, reconfigured)

	// The new connection must actually be running and delivering.
	info, err := n.Info(900)
	if err != nil {
		t.Fatalf("Info(new): %v", err)
	}
	if len(info.Slots) == 0 {
		t.Fatal("admitted connection has no slots")
	}
	n.Engine().Run(n.Engine().Now() + 30000*clock.Nanosecond)
	st := n.NIOf(info.DstNI).InStats(900)
	if st.Delivered == 0 {
		t.Error("admitted connection delivered nothing")
	}
	if st.Latency.Max() > info.BoundNs {
		t.Errorf("admitted connection max latency %.1f exceeds bound %.1f", st.Latency.Max(), info.BoundNs)
	}
}
