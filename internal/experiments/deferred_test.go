package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/trace"
)

// inlineSink hides every method of a sink but Event, so the bus delivers
// to it inside Emit (and never folds into it): the reference the deferred
// sinks are held to.
type inlineSink struct{ trace.Sink }

// observed is one run's sinks — metrics, Chrome and an auditor reporting
// to a collector — and what timers read from them mid-run.
type observed struct {
	bus      *trace.Bus
	mx       *trace.Metrics
	chrome   *trace.Chrome
	aud      *audit.Auditor
	col      *fault.Collector
	readings []string
	// watched is a connection's aggregate, taken at the first reading;
	// later readings look at it without an accessor.
	watched *trace.ConnMetrics
	// goroutines is the count before the run; Run must leave no more.
	goroutines int
}

// observe attaches the three sinks to a new bus and the bus to n. inline
// wraps each sink so it stays on the emitting goroutine.
func observe(n *core.Network, inline bool) *observed {
	o := &observed{bus: trace.NewBus(), col: fault.NewCollector(), goroutines: runtime.NumGoroutine()}
	o.mx = trace.NewMetrics(o.bus)
	o.chrome = trace.NewChrome(o.bus)
	o.chrome.SetFlitCycle(phit.FlitWords * int64(n.BaseClock().Period))
	o.aud = audit.Attach(n, o.bus, o.col, audit.Options{})
	if inline {
		for _, s := range []trace.Sink{o.mx, o.chrome, o.aud} {
			o.bus.Detach(s)
			o.bus.Attach(inlineSink{s})
		}
	}
	n.AttachTracer(o.bus)
	return o
}

// readAt schedules timers that read the auditor's collector and the sinks
// mid-run, as a reconfiguration callback would. The collector and the
// watched connection's aggregate come first: neither has an accessor that
// drains, so they show what the engine drained before the callback.
func (o *observed) readAt(n *core.Network, atNs ...float64) {
	watch := n.Connections()[1]
	for _, ns := range atNs {
		n.Engine().At(clock.Time(ns*float64(clock.Nanosecond)), func() {
			collected, delivered := o.col.Total(), int64(-1)
			if o.watched != nil {
				delivered = o.watched.Delivered
			}
			o.readings = append(o.readings, fmt.Sprintf("%d ps: %d collected, %d delivered, %d events, %d ejects, %d violations",
				n.Engine().Now(), collected, delivered, o.mx.Events(), o.mx.Count(trace.Eject), o.aud.Violations()))
			if o.watched == nil {
				o.watched = o.mx.Conn(watch)
			}
		})
	}
}

// render is everything a run's sinks hold, as the artifacts show it. It
// first requires that Run stopped the bus's worker.
func (o *observed) render(t *testing.T, n *core.Network, rep *core.Report) string {
	t.Helper()
	settled(t, o.goroutines)
	var b strings.Builder
	rep.Write(&b)
	// The collector first: nothing below may drain the bus before it is
	// read, so it shows what Run left behind.
	for _, v := range o.col.Violations() {
		fmt.Fprintln(&b, "violation:", v)
	}
	if err := o.mx.Report(int64(n.Engine().Now()), int64(n.BaseClock().Period)).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	o.aud.WriteSummary(&b)
	h := sha256.New()
	if _, err := o.chrome.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "chrome sha256 %x, %d events\n", h.Sum(nil), o.chrome.Len())
	for _, r := range o.readings {
		fmt.Fprintln(&b, "timer:", r)
	}
	return b.String()
}

// settled waits for the goroutine count to fall back to base: a drained
// bus has stopped its worker, which may still be on its way out.
func settled(t *testing.T, base int) {
	t.Helper()
	for start := time.Now(); runtime.NumGoroutine() > base; {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("%d goroutines after Run, %d before: the trace worker outlived the run",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// oversubscribe makes the first connection offer four times its
// guarantee, so the auditor has breaches of contract to report.
func oversubscribe(t *testing.T, n *core.Network) {
	t.Helper()
	c := n.Connections()[0]
	info, err := n.Info(c)
	if err != nil {
		t.Fatal(err)
	}
	n.Generator(c).SetRateMBps(4*info.GuaranteedMBps, n.Cfg.WordBytes)
}

// twin runs one scenario with deferred sinks and with inline ones and
// requires the same artifacts, byte for byte.
func twin(t *testing.T, name string, run func(t *testing.T, inline bool) string) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		deferred := run(t, false)
		inline := run(t, true)
		if deferred != inline {
			t.Errorf("deferred and inline sinks differ:\n%s", firstDiff(deferred, inline))
		}
		if !strings.Contains(deferred, "violation:") || !strings.Contains(deferred, "timer:") {
			t.Errorf("the scenario collected no violations or read no timers:\n%s", deferred)
		}
	})
}

// firstDiff names the first line two renders differ in.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\ndeferred %s\ninline   %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(al), len(bl))
}

// TestDeferredSinksMatchInline holds the trace bus's deferred delivery to
// inline delivery: the metrics JSON, the audit summary, the Chrome trace,
// the auditor's collected violations in order, and what timers read from
// the sinks and the collector mid-run come out the same, byte for byte,
// on the Section VII network of seed 2009 over a short window and on a
// run-time reconfiguration. After Run no trace worker is left running.
func TestDeferredSinksMatchInline(t *testing.T) {
	twin(t, "sec7", func(t *testing.T, inline bool) string {
		n, _, _, err := BuildSec7(Sec7Seed, 500, core.Synchronous, false)
		if err != nil {
			t.Fatal(err)
		}
		oversubscribe(t, n)
		o := observe(n, inline)
		o.readAt(n, 1000, 2000, 7003, 9000, 15000)
		rep := n.Run(2000, 20000)
		return o.render(t, n, rep)
	})
	twin(t, "reconfig", func(t *testing.T, inline bool) string {
		uc := reconfigSpec(7)
		victim := uc.Connections[len(uc.Connections)-1].ID
		n, err := reconfigNetwork(7, false, 0, fault.NewCollector())
		if err != nil {
			t.Fatal(err)
		}
		oversubscribe(t, n)
		o := observe(n, inline)
		o.readAt(n, 7000, 9000, 20000)
		rep, err := n.RunTimed(reconfigWarmupNs, 24000, []core.TimedAction{{AtNs: reconfigSwitchAtNs, Do: func(n *core.Network) error {
			sc, err := n.SpecOf(victim)
			if err != nil {
				return err
			}
			if err := n.CloseConnection(victim); err != nil {
				return err
			}
			sc.ID = n.FreshConnID()
			if _, err := n.Admit(sc); err != nil {
				return err
			}
			o.aud.Resync(n)
			o.readings = append(o.readings, fmt.Sprintf("switch: %d violations, %d collected", o.aud.Violations(), o.col.Total()))
			return nil
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return o.render(t, n, rep)
	})
}

// TestStrictAuditorStaysInline: an auditor with no reporter does not
// defer, so its fail-fast panic comes out of Run at the instant of the
// event that broke the contract, with the text a collecting auditor
// records for that violation.
func TestStrictAuditorStaysInline(t *testing.T) {
	build := func() *core.Network {
		n, _, _, err := BuildSec7(Sec7Seed, 500, core.Synchronous, false)
		if err != nil {
			t.Fatal(err)
		}
		oversubscribe(t, n)
		return n
	}
	n := build()
	o := observe(n, false)
	n.Run(2000, 20000)
	if len(o.col.Violations()) == 0 {
		t.Fatal("the oversubscribed run reported nothing")
	}
	first := o.col.Violations()[0]

	n = build()
	bus := trace.NewBus()
	trace.NewMetrics(bus)
	audit.Attach(n, bus, nil, audit.Options{})
	n.AttachTracer(bus)
	var got any
	func() {
		defer func() { got = recover() }()
		n.Run(2000, 20000)
	}()
	bus.Drain() // the metrics sink's worker, which the panic left running
	if got != first.String() {
		t.Errorf("strict auditor panicked with %q, want %q", got, first.String())
	}
	if now := n.Engine().Now(); now != first.Time {
		t.Errorf("strict auditor panicked at %d ps, the violating event is at %d ps", now, first.Time)
	}
}

// TestDeferredSinksSeeEveryEventOnce: a run cut into many short Run calls
// and read between them gives the same metrics as one Run, so neither a
// drain nor a restarted worker loses or repeats an event.
func TestDeferredSinksSeeEveryEventOnce(t *testing.T) {
	var out [2][]byte
	for i, steps := range []int{1, 37} {
		n, _, _, err := BuildSec7(Sec7Seed, 500, core.Synchronous, false)
		if err != nil {
			t.Fatal(err)
		}
		o := observe(n, false)
		end := clock.Time(10000 * clock.Nanosecond)
		for s := 1; s <= steps; s++ {
			n.Engine().Run(end * clock.Time(s) / clock.Time(steps))
			_ = o.mx.Events()
		}
		var b bytes.Buffer
		if err := o.mx.Report(int64(end), int64(n.BaseClock().Period)).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Error("metrics of a run cut into 37 pieces differ from one Run's")
	}
}
