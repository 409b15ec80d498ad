package traffic

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/phit"
	"repro/internal/sim"
)

// acceptPort counts words and can be toggled full.
type acceptPort struct {
	words []phit.Meta
	full  bool
}

func (p *acceptPort) Offer(now clock.Time, conn phit.ConnID, meta phit.Meta) bool {
	if p.full {
		return false
	}
	p.words = append(p.words, meta)
	return true
}

func run(t *testing.T, g *Generator, eng *sim.Engine, cycles int64) {
	t.Helper()
	eng.Run(eng.Now() + clock.Time(cycles)*g.Clock().Period)
}

func TestCBRRate(t *testing.T) {
	// 500 MB/s at 4-byte words and 500 MHz = 0.25 words/cycle.
	clk := clock.NewMHz("clk", 500, 0)
	port := &acceptPort{}
	g := newCBR("g", clk, port, 1, 500, 4, 0)
	eng := sim.New()
	eng.Add(g)
	run(t, g, eng, 1000)
	if n := len(port.words); n < 245 || n > 255 {
		t.Errorf("CBR produced %d words in 1000 cycles, want ~250", n)
	}
	// Sequence numbers are dense and metadata stamped.
	for i, m := range port.words {
		if m.Seq != int64(i) || m.Conn != 1 || m.Injected == 0 {
			t.Fatalf("word %d meta = %+v", i, m)
		}
	}
}

func TestCBRBlockingBackpressure(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	port := &acceptPort{full: true}
	g := newCBR("g", clk, port, 1, 1000, 4, 0)
	eng := sim.New()
	eng.Add(g)
	run(t, g, eng, 100)
	if g.Rejected() == 0 {
		t.Error("full port never rejected")
	}
	if len(port.words) != 0 {
		t.Error("words accepted by a full port")
	}
	// Reopen: the generator resumes without unbounded catch-up burst.
	port.full = false
	run(t, g, eng, 100)
	if n := len(port.words); n < 45 || n > 70 {
		t.Errorf("after reopening, %d words in 100 cycles (0.5 w/c + bounded backlog)", n)
	}
}

func TestTransactionalShape(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	port := &acceptPort{}
	g := newTransactional("g", clk, port, 1, 100, 4, 16, 0)
	eng := sim.New()
	eng.Add(g)
	run(t, g, eng, 3200)
	// 100 MB/s = 0.05 w/c -> 160 words in 3200 cycles, as 10
	// transactions of 16.
	n := len(port.words)
	if n < 144 || n > 176 {
		t.Errorf("%d words, want ~160", n)
	}
	// Words within a transaction arrive at line rate.
	if d := port.words[1].Injected - port.words[0].Injected; d != clk.Period {
		t.Errorf("intra-transaction spacing %d ps", d)
	}
	// Transaction boundaries have long gaps.
	if d := port.words[16].Injected - port.words[15].Injected; d < 100*clk.Period {
		t.Errorf("inter-transaction gap only %d ps", d)
	}
}

func TestTransactionalLineRatePassThrough(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	port := &acceptPort{}
	// 2000 MB/s at 4B/500MHz = 1 w/c: already line rate, no gaps.
	g := newTransactional("g", clk, port, 1, 2000, 4, 16, 0)
	eng := sim.New()
	eng.Add(g)
	run(t, g, eng, 50)
	if n := len(port.words); n != 50 {
		t.Errorf("line-rate transactional produced %d of 50", n)
	}
}

func TestSetRateAndEnable(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	port := &acceptPort{}
	g := newTransactional("g", clk, port, 1, 100, 4, 16, 0)
	eng := sim.New()
	eng.Add(g)
	g.SetRateMBps(400, 4) // 4x
	run(t, g, eng, 3200)
	n := len(port.words)
	if n < 576 || n > 704 {
		t.Errorf("%d words after 4x rate, want ~640", n)
	}
	g.SetEnabled(false)
	run(t, g, eng, 1000)
	if len(port.words) != n {
		t.Error("disabled generator produced words")
	}
	g.SetEnabled(true)
	run(t, g, eng, 1000)
	if len(port.words) == n {
		t.Error("re-enabled generator stayed silent")
	}
}

func TestStartDelay(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	port := &acceptPort{}
	g := newCBR("g", clk, port, 1, 2000, 4, 100*clk.Period)
	eng := sim.New()
	eng.Add(g)
	run(t, g, eng, 99)
	if len(port.words) != 0 {
		t.Errorf("%d words before the start time", len(port.words))
	}
	run(t, g, eng, 10)
	if len(port.words) == 0 {
		t.Error("no words after the start time")
	}
}

func TestGeneratorPanics(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	for name, f := range map[string]func(){
		"zero rate":  func() { newCBR("g", clk, &acceptPort{}, 1, 0, 4, 0) },
		"zero words": func() { newCBR("g", clk, &acceptPort{}, 1, 100, 0, 0) },
		"tx words":   func() { newTransactional("g", clk, &acceptPort{}, 1, 100, 4, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestModelGenerator pins the one place a use case becomes generators:
// shape choice, the transaction-size table and the start stagger.
func TestModelGenerator(t *testing.T) {
	clk := clock.NewMHz("clk", 500, 0)
	for rate, want := range map[float64]int{10: 4, 39.9: 4, 40: 8, 149: 8, 150: 16, 500: 16} {
		if got := TxWordsForRate(rate); got != want {
			t.Errorf("TxWordsForRate(%g) = %d, want %d", rate, got, want)
		}
	}
	cbr := Model{WordBytes: 4}.Generator(clk, &acceptPort{}, 7, 100, 0)
	if cbr.Name() != "gen.c7" || cbr.onCycles != 0 || cbr.start != 0 {
		t.Errorf("CBR generator %q: on %d start %d", cbr.Name(), cbr.onCycles, cbr.start)
	}
	if second := (Model{WordBytes: 4}).Generator(clk, &acceptPort{}, 7, 100, 2); second.start != clock.Time(2*phit.FlitWords)*clk.Period {
		t.Errorf("generator 2 starts at %d, want two flit cycles", second.start)
	}
	// The stagger wraps at 16.
	tx := Model{WordBytes: 4, Transactional: true}.Generator(clk, &acceptPort{}, 7, 100, 17)
	if tx.onCycles != 8 || tx.burstNum != tx.rateDen {
		t.Errorf("transactional generator at 100 MB/s: on %d, burst %d/%d", tx.onCycles, tx.burstNum, tx.rateDen)
	}
	if want := clock.Time(phit.FlitWords) * clk.Period; tx.start != want {
		t.Errorf("generator 17 starts at %d, want %d (one flit cycle)", tx.start, want)
	}
}
