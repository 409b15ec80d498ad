package traffic

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
)

// oldUpdate is Generator.Update as it was before the wrapped burst position:
// it divides phase by the burst period every cycle and never reads pos. It is
// the oracle of TestUpdateMatchesDividingOracle and must not be tidied.
func oldUpdate(g *Generator, now clock.Time) {
	if g.disabled || now < g.start {
		return
	}
	num := g.rateNum
	if g.onCycles > 0 {
		period := g.onCycles + g.offCycles
		if g.phase%period >= g.onCycles {
			num = 0
		} else {
			num = g.burstNum
		}
		g.phase++
	}
	g.accNum += num
	for g.accNum >= g.rateDen {
		meta := phit.Meta{Conn: g.conn, Seq: g.seq, Injected: now}
		if !g.ni.Offer(now, g.conn, meta) {
			g.rejected++
			if g.accNum > 16*g.rateDen {
				g.accNum = 16 * g.rateDen
			}
			return
		}
		g.seq++
		g.accNum -= g.rateDen
	}
}

// oldSetRateMBps is Generator.SetRateMBps as it was, two exits and all.
func oldSetRateMBps(g *Generator, rateMBps float64, wordBytes int) {
	oldDen := g.rateDen
	g.rateNum, g.rateDen = rationalRate(rateMBps, wordBytes, g.clk)
	if oldDen != g.rateDen && g.accNum != 0 {
		g.accNum = int64(float64(g.accNum) / float64(oldDen) * float64(g.rateDen))
	}
	if g.onCycles > 0 {
		if g.rateNum >= g.rateDen {
			g.offCycles = 0
			g.burstNum = g.rateDen
			return
		}
		off := g.onCycles*g.rateDen/g.rateNum - g.onCycles
		if off < 0 {
			off = 0
		}
		g.offCycles = off
		g.burstNum = g.rateDen
	}
}

// oldReplayShift is Generator.ReplayShift as it was.
func oldReplayShift(g *Generator, s *replay.Shift) {
	g.rejected += s.Epochs * g.rm.dRejected
	g.seq += s.Epochs * g.rm.dSeq
	g.phase += s.Epochs * g.rm.dPhase
}

// An offer is one Offer call as a port saw it.
type offer struct {
	now      clock.Time
	meta     phit.Meta
	accepted bool
}

// A scriptedPort accepts or refuses by a rule on the offer alone, so two
// generators that make the same offers get the same answers.
type scriptedPort struct{ log []offer }

func (p *scriptedPort) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	ok := (int64(now)/2000+meta.Seq)%5 != 0
	p.log = append(p.log, offer{now, meta, ok})
	return ok
}

// TestUpdateMatchesDividingOracle runs the old Update (and the old
// SetRateMBps and ReplayShift) beside the new ones over 1e5 cycles for each
// traffic shape, with refused offers, SetEnabled, SetRateMBps and
// ReplayMark/ReplayShift interleaved at random instants: the two must make
// the same offers at the same instants and fingerprint to the same bytes
// after every cycle.
func TestUpdateMatchesDividingOracle(t *testing.T) {
	const cycles = 100000
	clk := clock.NewMHz("clk", 500, 0)
	shapes := map[string]func(Port) *Generator{
		"cbr":            func(p Port) *Generator { return newCBR("g", clk, p, 7, 130, 4, 6000) },
		"transactional":  func(p Port) *Generator { return newTransactional("g", clk, p, 7, 55, 4, 8, 12000) },
		"tx-line-rate":   func(p Port) *Generator { return newTransactional("g", clk, p, 7, 2000, 4, 16, 0) },
		"model-tx-heavy": func(p Port) *Generator { return Model{WordBytes: 4, Transactional: true}.Generator(clk, p, 7, 400, 3) },
	}
	rates := []float64{12, 55, 90, 333.3, 1999, 2000, 2600}
	for name, build := range shapes {
		t.Run(name, func(t *testing.T) {
			oldPort, newPort := &scriptedPort{}, &scriptedPort{}
			oldG, newG := build(oldPort), build(newPort)
			rng := rand.New(rand.NewSource(20))
			var oldFP, newFP []byte
			marked := false // a shift replays the epoch the last mark closed
			for c := int64(0); c < cycles; c++ {
				now := clk.EdgeAt(c)
				switch r := rng.Intn(400); {
				case r == 0:
					on := rng.Intn(3) != 0
					oldG.SetEnabled(on)
					newG.SetEnabled(on)
				case r == 1:
					// Mid-burst as often as not: the position must follow.
					rate := rates[rng.Intn(len(rates))]
					oldSetRateMBps(oldG, rate, 4)
					newG.SetRateMBps(rate, 4)
					if newG.onCycles > 0 {
						if want := newG.phase % (newG.onCycles + newG.offCycles); newG.pos != want {
							t.Fatalf("cycle %d: position %d after SetRateMBps(%g), want phase %% period = %d", c, newG.pos, rate, want)
						}
					}
				case r == 2:
					if o, n := oldG.ReplayMark(now), newG.ReplayMark(now); o != n {
						t.Fatalf("cycle %d: ReplayMark %v, oracle %v", c, n, o)
					}
					marked = true
				case r == 3 && marked:
					s := &replay.Shift{Epochs: int64(1 + rng.Intn(1000))}
					oldReplayShift(oldG, s)
					newG.ReplayShift(s)
					marked = false
				}
				oldUpdate(oldG, now)
				newG.Update(now)
				ctx := &replay.Ctx{Now: now}
				oldFP = oldG.ReplayFingerprint(ctx, oldFP[:0])
				newFP = newG.ReplayFingerprint(ctx, newFP[:0])
				if !bytes.Equal(oldFP, newFP) {
					t.Fatalf("cycle %d: fingerprint %x, oracle %x", c, newFP, oldFP)
				}
				if len(oldPort.log) != len(newPort.log) {
					t.Fatalf("cycle %d: %d offers so far, oracle %d", c, len(newPort.log), len(oldPort.log))
				}
			}
			for i, o := range oldPort.log {
				if newPort.log[i] != o {
					t.Fatalf("offer %d: %+v, oracle %+v", i, newPort.log[i], o)
				}
			}
			if oldG.rejected != newG.rejected || oldG.seq != newG.seq || oldG.phase != newG.phase {
				t.Fatalf("counters diverged: %+v, oracle %+v", newG, oldG)
			}
			accepted := 0
			for _, o := range oldPort.log {
				if o.accepted {
					accepted++
				}
			}
			if accepted == 0 || accepted == len(oldPort.log) {
				t.Fatalf("%d of %d offers accepted: the run exercised no refusal or no acceptance", accepted, len(oldPort.log))
			}
		})
	}
}
