package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
)

// buildComposability constructs a fresh network over the same spec and
// allocation inputs; construction is fully deterministic, so two calls
// yield identical schedules.
func buildComposability(t *testing.T, mode Mode) (*Network, *spec.UseCase) {
	t.Helper()
	m := topology.NewMesh(3, 2, 2)
	uc := spec.Random(spec.RandomConfig{
		Name: "compos", Seed: 21, IPs: 12, Apps: 3, Conns: 14,
		MinRateMBps: 15, MaxRateMBps: 150,
		MinLatencyNs: 250, MaxLatencyNs: 900,
	})
	spec.MapIPsRoundRobin(uc, m, 5)
	cfg := Config{Mode: mode, PhaseSeed: 4, Probes: true}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, uc
}

// arrivalsOfApp runs the network and returns, per connection of the given
// app, the exact arrival instants of every payload word.
func arrivalsOfApp(t *testing.T, n *Network, uc *spec.UseCase, app spec.AppID,
	enable func(c spec.Connection) bool, hostile bool) map[phit.ConnID][]clock.Time {
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
	for _, c := range uc.Connections {
		if c.App != app {
			continue
		}
		ip, err := uc.IP(c.Dst)
		if err != nil {
			t.Fatal(err)
		}
		n.NIOf(ip.NI).RecordArrivals(c.ID, true)
	}
	n.Run(0, 40000)
	out := make(map[phit.ConnID][]clock.Time)
	for _, c := range uc.Connections {
		if c.App != app {
			continue
		}
		ip, _ := uc.IP(c.Dst)
		out[c.ID] = n.NIOf(ip.NI).Arrivals(c.ID)
	}
	return out
}

func checkIdenticalTiming(t *testing.T, alone, shared map[phit.ConnID][]clock.Time) {
	t.Helper()
	for conn, a := range alone {
		b := shared[conn]
		if len(a) == 0 {
			t.Errorf("connection %d delivered nothing", conn)
			continue
		}
		if len(a) != len(b) {
			t.Errorf("connection %d delivered %d words alone vs %d shared", conn, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("connection %d word %d arrived at %d ps alone vs %d ps shared — interference detected",
					conn, i, a[i], b[i])
				break
			}
		}
	}
}

// TestComposabilityIsolatedVsShared is the paper's central claim
// (Sections I, III, VII): an application's temporal behaviour is
// bit-identical whether it runs alone or alongside every other
// application. We compare the exact arrival instant of every word of app
// 0 between a run with only app 0 enabled and a run with all apps enabled.
func TestComposabilityIsolatedVsShared(t *testing.T) {
	for _, mode := range []Mode{Synchronous, Mesochronous} {
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
	n1, uc := buildComposability(t, Synchronous)
	alone := arrivalsOfApp(t, n1, uc, 0,
		func(c spec.Connection) bool { return c.App == 0 }, false)

	n2, uc2 := buildComposability(t, Synchronous)
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
	n1, _ := buildComposability(t, Mesochronous)
	n2, _ := buildComposability(t, Mesochronous)
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
