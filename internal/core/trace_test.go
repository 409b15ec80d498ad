package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/phit"
	"repro/internal/trace"
)

// tracedRun builds the small mesochronous network with a fixed seed,
// attaches a Chrome sink and a Metrics sink, runs it, and returns the
// rendered trace bytes and metrics-report JSON.
func tracedRun(t *testing.T) ([]byte, []byte) {
	t.Helper()
	m, uc := smallUseCase(t, 4)
	cfg := Config{Mode: Mesochronous, PhaseSeed: 11}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bus := trace.NewBus()
	chrome := trace.NewChrome(bus)
	chrome.SetFlitCycle(phit.FlitWords * int64(n.BaseClock().Period))
	metrics := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	n.Run(2000, 8000)

	var tr, mr bytes.Buffer
	if _, err := chrome.WriteTo(&tr); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	rep := metrics.Report(int64(n.Engine().Now()), int64(n.BaseClock().Period))
	if err := rep.WriteJSON(&mr); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return tr.Bytes(), mr.Bytes()
}

// TestTraceDeterminism: the acceptance criterion of the tracing layer —
// two builds of the same seed produce byte-identical Chrome traces and
// metric reports. Any map-ordered wiring or float-formatted timestamp
// would break this.
func TestTraceDeterminism(t *testing.T) {
	tr1, mr1 := tracedRun(t)
	tr2, mr2 := tracedRun(t)
	if !bytes.Equal(tr1, tr2) {
		t.Error("same-seed Chrome traces differ")
	}
	if !bytes.Equal(mr1, mr2) {
		t.Error("same-seed metric reports differ")
	}
	if len(tr1) == 0 || !bytes.Contains(tr1, []byte("traceEvents")) {
		t.Error("trace output empty or malformed")
	}
}

// TestTraceObservesLifecycle: a traced synchronous run records every stage
// of the flit lifecycle and the aggregates are mutually consistent.
func TestTraceObservesLifecycle(t *testing.T) {
	m, uc := smallUseCase(t, 4)
	cfg := Config{}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bus := trace.NewBus()
	metrics := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	rep := n.Run(2000, 10000)
	if !rep.AllMet() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("requirements violated under tracing:\n%s", b.String())
	}

	for _, k := range []trace.Kind{trace.Inject, trace.Send, trace.SlotStart, trace.RouterForward, trace.Eject, trace.Credit} {
		if metrics.Count(k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	for _, c := range uc.Connections {
		cm := metrics.Conn(c.ID)
		if cm == nil {
			t.Fatalf("connection %d unseen by tracer", c.ID)
		}
		if cm.Delivered == 0 || cm.Delivered > cm.Injected {
			t.Errorf("connection %d: delivered %d of %d injected", c.ID, cm.Delivered, cm.Injected)
		}
		if cm.Latency.N() != cm.Delivered {
			t.Errorf("connection %d: %d latency samples for %d deliveries", c.ID, cm.Latency.N(), cm.Delivered)
		}
		if lo, _, ok := cm.Latency.Range(); !ok || lo < 0 {
			t.Errorf("connection %d: implausible latency range (ok=%v lo=%v)", c.ID, ok, lo)
		}
	}
	// Detaching stops the stream.
	before := metrics.Events()
	n.AttachTracer(nil)
	n.Engine().Run(n.Engine().Now() + 5000)
	if metrics.Events() != before {
		t.Error("events emitted after detach")
	}
}

// TestTraceAsynchronousWrappers: in asynchronous mode the wrapper fires
// and the wrapped router cores emit through the bus.
func TestTraceAsynchronousWrappers(t *testing.T) {
	m, uc := smallUseCase(t, 2)
	cfg := Config{Mode: Asynchronous, PhaseSeed: 3}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bus := trace.NewBus()
	metrics := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	n.Run(4000, 12000)
	if metrics.Count(trace.WrapperFire) == 0 {
		t.Error("no wrapper fires recorded")
	}
	if metrics.Count(trace.RouterForward) == 0 {
		t.Error("no router forwards recorded from wrapped cores")
	}
	if metrics.Count(trace.Eject) == 0 {
		t.Error("no ejections recorded")
	}
}
