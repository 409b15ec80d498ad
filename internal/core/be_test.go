package core

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
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
