package core

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
)

func TestBESmallDelivers(t *testing.T) {
	m, uc := smallUseCase(t, 6)
	n, err := BuildBE(m, uc, Config{})
	if err != nil {
		t.Fatalf("BuildBE: %v", err)
	}
	rep := n.Run(4000, 20000)
	for _, c := range rep.Conns {
		if c.Delivered == 0 {
			var b strings.Builder
			rep.Write(&b)
			t.Fatalf("connection %d delivered nothing:\n%s", c.Conn, b.String())
		}
		if !c.MetThroughput {
			t.Errorf("connection %d measured %.1f MB/s < required %.1f (lightly loaded BE should keep up)",
				c.Conn, c.MeasuredMBps, c.RequiredMBps)
		}
	}
}

// TestBEInterference is the counter-example to aelite's composability: on
// the BE network, adding other applications changes app 0's word-level
// timing. (It would be astonishing if wormhole arbitration did not perturb
// a single word; the assertion documents that our baseline really does
// interfere rather than secretly time-multiplexing.)
func TestBEInterference(t *testing.T) {
	build := func() (*BENetwork, *spec.UseCase) {
		m := topology.NewMesh(3, 2, 2)
		uc := spec.Random(spec.RandomConfig{
			Name: "beinterf", Seed: 21, IPs: 12, Apps: 3, Conns: 14,
			MinRateMBps: 60, MaxRateMBps: 300,
			MinLatencyNs: 250, MaxLatencyNs: 900,
		})
		spec.MapIPsRoundRobin(uc, m, 5)
		n, err := BuildBE(m, uc, Config{})
		if err != nil {
			t.Fatalf("BuildBE: %v", err)
		}
		return n, uc
	}

	record := func(n *BENetwork, uc *spec.UseCase, only bool) map[phit.ConnID][]clock.Time {
		for _, c := range uc.Connections {
			if only && c.App != 0 {
				n.Generator(c.ID).SetEnabled(false)
			}
		}
		for _, c := range uc.Connections {
			if c.App != 0 {
				continue
			}
			ip, _ := uc.IP(c.Dst)
			n.NIOf(ip.NI).RecordArrivals(c.ID, true)
		}
		n.Run(0, 40000)
		out := make(map[phit.ConnID][]clock.Time)
		for _, c := range uc.Connections {
			if c.App != 0 {
				continue
			}
			ip, _ := uc.IP(c.Dst)
			out[c.ID] = n.NIOf(ip.NI).Arrivals(c.ID)
		}
		return out
	}

	n1, uc1 := build()
	alone := record(n1, uc1, true)
	n2, uc2 := build()
	shared := record(n2, uc2, false)

	perturbed := false
	for conn, a := range alone {
		b := shared[conn]
		if len(a) != len(b) {
			perturbed = true
			break
		}
		for i := range a {
			if a[i] != b[i] {
				perturbed = true
				break
			}
		}
	}
	if !perturbed {
		t.Error("BE timing of app 0 is identical with and without other apps — the baseline shows no interference, which defeats the comparison")
	}
}

// TestIdleFabricDrivesNothing: BE routers and NIs drive a wire on a change
// only, so a fabric nobody offers a word to commits no drive at all, and
// one that carried traffic falls silent again once it has drained.
func TestIdleFabricDrivesNothing(t *testing.T) {
	m, uc := smallUseCase(t, 6)
	n, err := BuildBE(m, uc, Config{})
	if err != nil {
		t.Fatalf("BuildBE: %v", err)
	}
	driven, words := 0, 0
	for _, w := range n.data {
		w.SetIntercept(func(v phit.Phit, d bool) phit.Phit {
			if d {
				driven++
			}
			if v.Valid {
				words++
			}
			return v
		})
	}
	for _, w := range n.credit {
		w.SetIntercept(func(v int, d bool) int {
			if d {
				driven++
			}
			return v
		})
	}
	offer := func(on bool) {
		for _, c := range uc.Connections {
			n.Generator(c.ID).SetEnabled(on)
		}
	}
	cycles := func(k int64) { n.eng.Run(n.eng.Now() + clock.Time(k)*n.base.Period) }

	offer(false)
	cycles(1)
	driven = 0
	cycles(1000)
	if driven != 0 {
		t.Errorf("an idle fabric committed %d drives in 1000 cycles", driven)
	}

	offer(true)
	cycles(2000)
	if words == 0 || driven == 0 {
		t.Fatalf("the loaded fabric carried %d words on %d drives", words, driven)
	}
	offer(false)
	cycles(500) // drain
	driven, words = 0, 0
	cycles(1000)
	if driven != 0 || words != 0 {
		t.Errorf("a drained fabric committed %d drives (%d valid words) in 1000 cycles", driven, words)
	}
}
