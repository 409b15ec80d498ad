package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
)

// seqPort accepts or refuses an offer by a seeded rule on (time, seq)
// alone, so two generators making the same offers get the same answers,
// and logs every offer.
type seqPort struct {
	seed int64
	log  []offer
}

func (p *seqPort) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	h := uint64(now)*0x9e3779b97f4a7c15 ^ uint64(meta.Seq+p.seed)*0xbf58476d1ce4e5b9
	ok := (h>>29)%7 != 0
	p.log = append(p.log, offer{now, meta, ok})
	return ok
}

// genState is the part of a generator Idle and Skip read or advance.
type genState struct{ accNum, phase, pos, seq, rejected int64 }

func stateOf(g *Generator) genState {
	return genState{g.accNum, g.phase, g.pos, g.seq, g.rejected}
}

// FuzzGeneratorSleep drives one generator on every edge and a twin the way
// sim.Engine drives a Sleeper: after each real Update it asks Idle, skips
// that many edges, and passes them to Skip before the next real Update.
// SetEnabled and SetRateMBps land at random edges, each after a wake
// (Skip of the edges slept so far, sleep cancelled), as a timer's would.
// Both must make the same offers at the same instants and agree on every
// counter after every real Update and every wake.
func FuzzGeneratorSleep(f *testing.F) {
	f.Add(int64(1), false, uint16(130), uint8(3), uint16(3))
	f.Add(int64(2), true, uint16(55), uint8(3), uint16(40))
	f.Add(int64(3), true, uint16(400), uint8(7), uint16(0))
	f.Add(int64(4), false, uint16(2000), uint8(3), uint16(17))
	f.Add(int64(5), true, uint16(2600), uint8(1), uint16(9))
	f.Add(int64(6), false, uint16(7), uint8(0), uint16(200))
	f.Fuzz(func(t *testing.T, seed int64, transactional bool, rate uint16, wordBytes uint8, start uint16) {
		const edges = 20000
		clk := clock.NewMHz("clk", 500, 0)
		m := Model{WordBytes: 1 + int(wordBytes%8), Transactional: transactional}
		rateMBps := 1 + float64(rate%3000)
		st := clock.Time(start%512) * clk.Period / 4
		direct, twin := &seqPort{seed: seed}, &seqPort{seed: seed}
		g := m.Generator(clk, direct, 7, rateMBps, 0)
		h := m.Generator(clk, twin, 7, rateMBps, 0)
		g.start, h.start = st, st

		rng := rand.New(rand.NewSource(seed))
		var left, slept int64
		check := func(c int64, what string) {
			t.Helper()
			if a, b := stateOf(g), stateOf(h); a != b {
				t.Fatalf("edge %d, %s: sleeping twin %+v, every-edge generator %+v", c, what, b, a)
			}
		}
		wake := func(c int64) {
			if slept > 0 {
				h.Skip(slept)
			}
			left, slept = 0, 0
			check(c, "after wake")
		}
		for c := int64(0); c < edges; c++ {
			now := clk.EdgeAt(c + 1)
			switch r := rng.Intn(300); {
			case r == 0:
				wake(c)
				on := rng.Intn(3) != 0
				g.SetEnabled(on)
				h.SetEnabled(on)
			case r == 1:
				wake(c)
				r := 1 + float64(rng.Intn(3000))
				g.SetRateMBps(r, m.WordBytes)
				h.SetRateMBps(r, m.WordBytes)
			}
			g.Update(now)
			if left > 0 {
				left--
				slept++
				continue
			}
			if slept > 0 {
				h.Skip(slept)
				slept = 0
			}
			h.Update(now)
			check(c, "after Update")
			left = h.Idle(now)
		}
		wake(edges)
		if len(direct.log) != len(twin.log) {
			t.Fatalf("every-edge generator offered %d words, sleeping twin %d", len(direct.log), len(twin.log))
		}
		for i, o := range direct.log {
			if w := twin.log[i]; w.now != o.now || w.meta.Seq != o.meta.Seq {
				t.Fatalf("offer %d: sleeping twin (t=%d, seq %d), every-edge generator (t=%d, seq %d)",
					i, w.now, w.meta.Seq, o.now, o.meta.Seq)
			}
		}
	})
}
