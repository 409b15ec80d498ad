package traffic

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/replay"
	"repro/internal/sim"
)

// The engine lets a generator sleep between words.
var _ sim.Sleeper = (*Generator)(nil)

// A Port is the IP-side injection interface of a network interface; both
// the aelite NI and the best-effort baseline NI implement it.
type Port interface {
	Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool
}

// A Resolver is a Port that resolves one connection's injection ahead of
// its words: the function OfferTo returns offers a word as Offer(now,
// conn, meta) does, without looking conn up. A generator resolves its
// connection once, at its first word, on a port that is a Resolver.
type Resolver interface {
	OfferTo(conn phit.ConnID) func(now clock.Time, meta phit.Meta) bool
}

// A Generator produces payload words for one connection at a modelled
// rate. It implements sim.Sleeper and runs in the IP's clock domain
// (which, thanks to the NI's bi-synchronous FIFO, need not be the NI's).
type Generator struct {
	name string
	clk  *clock.Clock
	ni   Port
	conn phit.ConnID
	// offer is the connection's injection on ni, resolved at the first
	// word (see Resolver).
	offer func(now clock.Time, meta phit.Meta) bool

	// The offered rate in payload words per generator clock cycle is the
	// exact rational rateNum/rateDen (reduced). The accumulator accNum is
	// scaled by rateDen, so rate arithmetic is integer and the emission
	// pattern is exactly periodic — the property hyperperiod replay
	// proves and exploits. The historical float64 accumulator drifted by
	// ulps, which was invisible to throughput metrics but made the
	// pattern period ill-defined.
	rateNum, rateDen int64
	accNum           int64

	// Transaction parameters: the generator alternates onCycles of
	// generation at burstNum/rateDen words per cycle with offCycles of
	// silence, keeping the long-run average at rateNum/rateDen.
	// onCycles == 0 selects pure CBR.
	onCycles, offCycles int64
	burstNum            int64

	// start delays the first word, staggering generators.
	start clock.Time

	disabled bool
	phase    int64
	// pos is phase wrapped into the on/off period, phase % (onCycles +
	// offCycles), kept beside it so Update compares instead of dividing.
	// rewrap re-derives it wherever phase or the period jumps.
	pos      int64
	rejected int64 // blocked-write retries (full FIFO)
	seq      int64 // words accepted into the NI FIFO so far

	// Per-epoch counter deltas captured at hyperperiod boundaries.
	rm genMark
}

type genMark struct {
	rejected, seq, phase    int64
	dRejected, dSeq, dPhase int64
}

// A Model is the traffic a network offers its connections: one shape for
// all of them, each at its own spec rate. Every backend builds its
// generators through Model.Generator, so one use case is offered the same
// words on every fabric (the paper's Section VII comparison is "same
// mapping, same paths, same offered load").
type Model struct {
	WordBytes int
	// Transactional selects whole transactions of TxWordsForRate words at
	// line rate; false selects CBR.
	Transactional bool
}

// TxWordsForRate maps a connection's rate class to its transaction size:
// low-rate control channels move small messages, heavy streams move
// DMA-sized bursts.
func TxWordsForRate(rateMBps float64) int {
	switch {
	case rateMBps < 40:
		return 4
	case rateMBps < 150:
		return 8
	default:
		return 16
	}
}

// Generator returns connection conn's generator "gen.c<conn>" in the
// model's shape, offering rateMBps into port. idx is the connection's
// position among the network's generators: it staggers the first word by
// idx%16 flit cycles so packet phases do not all coincide.
func (m Model) Generator(clk *clock.Clock, port Port, conn phit.ConnID, rateMBps float64, idx int) *Generator {
	name := fmt.Sprintf("gen.c%d", conn)
	start := clock.Time(idx%16) * phit.FlitWords * clk.Period
	if m.Transactional {
		return newTransactional(name, clk, port, conn, rateMBps, m.WordBytes, int64(TxWordsForRate(rateMBps)), start)
	}
	return newCBR(name, clk, port, conn, rateMBps, m.WordBytes, start)
}

// newCBR returns a constant-bit-rate generator offering rateMBps megabytes
// per second of payload for the connection, given the word width in bytes.
func newCBR(name string, clk *clock.Clock, n Port, conn phit.ConnID,
	rateMBps float64, wordBytes int, start clock.Time) *Generator {
	if rateMBps <= 0 {
		panic(fmt.Sprintf("traffic %s: non-positive rate", name))
	}
	num, den := rationalRate(rateMBps, wordBytes, clk)
	return &Generator{name: name, clk: clk, ni: n, conn: conn, rateNum: num, rateDen: den, start: start}
}

// rationalRate converts a megabytes-per-second rate to an exact reduced
// words-per-cycle rational. The rate is quantised to one byte per second,
// far below every tolerance in the experiments.
func rationalRate(rateMBps float64, wordBytes int, clk *clock.Clock) (num, den int64) {
	if wordBytes <= 0 {
		panic("traffic: non-positive word width")
	}
	bytesPerSec := int64(math.Round(rateMBps * 1e6))
	if bytesPerSec <= 0 {
		bytesPerSec = 1
	}
	num = bytesPerSec * int64(clk.Period)
	den = int64(wordBytes) * 1e12
	g := gcd(num, den)
	return num / g, den / g
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Name implements sim.Component.
func (g *Generator) Name() string { return g.name }

// Clock implements sim.Component.
func (g *Generator) Clock() *clock.Clock { return g.clk }

// Update implements sim.Component.
func (g *Generator) Update(now clock.Time) {
	if g.disabled || now < g.start {
		return
	}
	num := g.rateNum
	if g.onCycles > 0 {
		if g.pos >= g.onCycles {
			num = 0
		} else {
			num = g.burstNum
		}
		g.phase++
		if g.pos++; g.pos >= g.onCycles+g.offCycles {
			g.pos = 0
		}
	}
	g.accNum += num
	for g.accNum >= g.rateDen {
		if g.offer == nil {
			g.resolve()
		}
		meta := phit.Meta{Conn: g.conn, Seq: g.seq, Injected: now}
		if !g.offer(now, meta) {
			// Blocking write: the word stays pending; retry next
			// cycle. Cap the backlog accumulator at one FIFO's
			// worth so an over-subscribed generator models a
			// stalled IP rather than an unbounded debt.
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

// resolve binds the generator's connection on its port.
func (g *Generator) resolve() {
	if r, ok := g.ni.(Resolver); ok {
		g.offer = r.OfferTo(g.conn)
		return
	}
	port, conn := g.ni, g.conn
	g.offer = func(now clock.Time, meta phit.Meta) bool { return port.Offer(now, conn, meta) }
}

// Idle implements sim.Sleeper: the edges after now on which Update would
// only advance the accumulator or the burst position. It is 0 before the
// first word is due, with a backlog and in a transaction's on-phase.
func (g *Generator) Idle(now clock.Time) int64 {
	switch {
	case g.disabled:
		return math.MaxInt64
	case now < g.start || g.accNum >= g.rateDen:
		return 0
	case g.onCycles > 0:
		if g.pos < g.onCycles {
			return 0
		}
		return g.onCycles + g.offCycles - g.pos
	}
	return (g.rateDen-g.accNum+g.rateNum-1)/g.rateNum - 1
}

// Skip implements sim.Sleeper: n edges' worth of Update, none of which
// offers a word.
func (g *Generator) Skip(n int64) {
	if g.disabled {
		return
	}
	if g.onCycles > 0 {
		g.phase += n
		g.pos = (g.pos + n) % (g.onCycles + g.offCycles)
		return
	}
	g.accNum += n * g.rateNum
}

// newTransactional returns a generator that emits whole transactions of
// txWords words at line rate (one word per cycle), spaced so the long-run
// average equals rateMBps. Real SoC traffic is transactional — DMA bursts,
// cache lines, stream buffers — and this shape is what separates a
// guaranteed-service network from a best-effort one: transactions from
// different IPs collide in BE routers, while TDM injection is oblivious
// to them.
func newTransactional(name string, clk *clock.Clock, n Port, conn phit.ConnID,
	rateMBps float64, wordBytes int, txWords int64, start clock.Time) *Generator {
	if txWords <= 0 {
		panic(fmt.Sprintf("traffic %s: transaction of %d words", name, txWords))
	}
	g := newCBR(name, clk, n, conn, rateMBps, wordBytes, start)
	if g.rateNum >= g.rateDen {
		return g // already at line rate: transactions are back to back
	}
	g.onCycles = txWords
	g.offCycles = txWords*g.rateDen/g.rateNum - txWords
	g.burstNum = g.rateDen
	return g
}

// SetEnabled turns the generator on or off; a disabled generator models
// an application that is not running (the composability experiments
// compare runs with other applications enabled vs disabled).
func (g *Generator) SetEnabled(on bool) { g.disabled = !on }

// SetRateMBps changes the offered rate, e.g. to model a misbehaving IP
// that oversubscribes its allocation (which, in aelite, only slows that IP
// down), or an opportunistic best-effort IP exceeding its nominal rate.
// For transactional generators the inter-transaction spacing is rescaled.
func (g *Generator) SetRateMBps(rateMBps float64, wordBytes int) {
	oldDen := g.rateDen
	g.rateNum, g.rateDen = rationalRate(rateMBps, wordBytes, g.clk)
	if oldDen != g.rateDen && g.accNum != 0 {
		g.accNum = int64(float64(g.accNum) / float64(oldDen) * float64(g.rateDen))
	}
	if g.onCycles > 0 {
		g.burstNum = g.rateDen
		g.offCycles = 0
		if g.rateNum < g.rateDen {
			g.offCycles = max(0, g.onCycles*g.rateDen/g.rateNum-g.onCycles)
		}
		g.rewrap()
	}
}

// rewrap re-derives the wrapped burst position after phase or the burst
// period changed by more than Update's one step.
func (g *Generator) rewrap() {
	if g.onCycles > 0 {
		g.pos = g.phase % (g.onCycles + g.offCycles)
	}
}

// Rejected returns the number of blocked-write retries.
func (g *Generator) Rejected() int64 { return g.rejected }

// maxPatternCycles bounds a generator's admissible pattern period; finer
// rationals are treated as aperiodic, keeping hyperperiods bounded.
const maxPatternCycles = 1 << 22

// ReplayPeriod implements replay.Periodic: the exact cycle count after
// which the accumulator and burst phase return to their values.
func (g *Generator) ReplayPeriod() clock.Duration {
	if g.disabled {
		return g.clk.Period // constant state
	}
	p, add := int64(1), g.rateNum
	if g.onCycles > 0 {
		p = g.onCycles + g.offCycles
		add = g.onCycles * g.burstNum
	}
	cycles := replay.PatternCycles(p, add%g.rateDen, g.rateDen, maxPatternCycles)
	if cycles == 0 {
		return 0
	}
	return clock.Duration(cycles) * g.clk.Period
}

// ReplayMark implements replay.Periodic.
func (g *Generator) ReplayMark(now clock.Time) bool {
	g.rm.dRejected = g.rejected - g.rm.rejected
	g.rm.dSeq = g.seq - g.rm.seq
	g.rm.dPhase = g.phase - g.rm.phase
	g.rm.rejected, g.rm.seq, g.rm.phase = g.rejected, g.seq, g.phase
	return true
}

// ReplayFingerprint implements replay.Periodic: the rate and burst shape,
// which SetRateMBps may rewrite between runs, the accumulator, the burst
// phase, the time left before the first word and the enable switch.
func (g *Generator) ReplayFingerprint(ctx *replay.Ctx, buf []byte) []byte {
	for _, v := range []int64{g.rateNum, g.rateDen, g.onCycles, g.offCycles, g.burstNum} {
		buf = replay.AppendI64(buf, v)
	}
	buf = replay.AppendI64(buf, g.accNum)
	var ph int64
	if g.onCycles > 0 {
		ph = g.phase % (g.onCycles + g.offCycles)
	}
	buf = replay.AppendI64(buf, ph)
	var pend int64
	if ctx.Now < g.start {
		pend = int64(g.start - ctx.Now)
	}
	buf = replay.AppendI64(buf, pend)
	var dis int64
	if g.disabled {
		dis = 1
	}
	return replay.AppendI64(buf, dis)
}

// ReplayShift implements replay.Periodic.
func (g *Generator) ReplayShift(s *replay.Shift) {
	g.rejected += s.Epochs * g.rm.dRejected
	g.seq += s.Epochs * g.rm.dSeq
	g.phase += s.Epochs * g.rm.dPhase
	g.rewrap()
}

// ReplayConnSeq implements replay.SeqSource.
func (g *Generator) ReplayConnSeq() (phit.ConnID, int64) { return g.conn, g.seq }
