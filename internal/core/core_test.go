package core

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// auditStrict gives n a fresh bus with a strict auditor on it, which
// checks every flit against the allocation and its bound and panics at
// the first violation, and returns the auditor's Resync for n.
func auditStrict(n *Network) (resync func()) {
	bus := trace.NewBus()
	a := audit.Attach(n, bus, nil, audit.Options{})
	n.AttachTracer(bus)
	return func() { a.Resync(n) }
}

// smallUseCase builds a 2x2 mesh with 1 NI per router and a few
// connections with modest requirements.
func smallUseCase(t *testing.T, conns int) (*topology.Mesh, *spec.UseCase) {
	t.Helper()
	m := topology.NewMesh(2, 2, 1)
	cfg := spec.RandomConfig{
		Name: "small", Seed: 7, IPs: 4, Apps: 2, Conns: conns,
		MinRateMBps: 20, MaxRateMBps: 120,
		MinLatencyNs: 200, MaxLatencyNs: 800,
	}
	uc := spec.Random(cfg)
	spec.MapIPsRoundRobin(uc, m, 3)
	if err := uc.Validate(); err != nil {
		t.Fatalf("use case invalid: %v", err)
	}
	return m, uc
}

func TestSynchronousSmallMeetsRequirements(t *testing.T) {
	m, uc := smallUseCase(t, 6)
	n, err := Build(m, uc, Config{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	auditStrict(n)
	rep := n.Run(4000, 20000)
	if !rep.AllMet() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("requirements violated:\n%s", b.String())
	}
	if !rep.AllWithinBound() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("analytical latency bound violated:\n%s", b.String())
	}
	for _, c := range rep.Conns {
		if c.Delivered == 0 {
			t.Errorf("connection %d delivered nothing", c.Conn)
		}
	}
}

func TestMesochronousSmallMeetsRequirements(t *testing.T) {
	m, uc := smallUseCase(t, 6)
	cfg := Config{Mode: Mesochronous, PhaseSeed: 11}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	auditStrict(n)
	rep := n.Run(4000, 20000)
	if !rep.AllMet() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("requirements violated:\n%s", b.String())
	}
	if !rep.AllWithinBound() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("analytical latency bound violated:\n%s", b.String())
	}
	// The Section V invariant: the 4-word bi-synchronous FIFOs never
	// fill (overflow would have panicked) and actually stay at or below
	// capacity minus nothing... record the high-water mark for
	// diagnosis.
	for _, st := range n.Stages() {
		if st.MaxFIFOOccupancy() > 4 {
			t.Errorf("stage FIFO exceeded 4 words: %d", st.MaxFIFOOccupancy())
		}
	}
}

func TestBuildRejectsUnmappedIPs(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	uc := spec.Random(spec.RandomConfig{
		Name: "x", Seed: 1, IPs: 4, Apps: 1, Conns: 2,
		MinRateMBps: 10, MaxRateMBps: 20, MinLatencyNs: 300, MaxLatencyNs: 500,
	})
	cfg := Config{}
	if _, err := Build(m, uc, cfg); err == nil {
		t.Fatal("Build accepted unmapped IPs")
	}
}

func TestInfoAndGenerators(t *testing.T) {
	m, uc := smallUseCase(t, 4)
	cfg := Config{}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, c := range uc.Connections {
		info, err := n.Info(c.ID)
		if err != nil {
			t.Fatalf("Info(%d): %v", c.ID, err)
		}
		if len(info.Slots) == 0 {
			t.Errorf("connection %d has no slots", c.ID)
		}
		if info.GuaranteedMBps < c.BandwidthMBps {
			t.Errorf("connection %d guaranteed %.1f < required %.1f",
				c.ID, info.GuaranteedMBps, c.BandwidthMBps)
		}
		if n.Generator(c.ID) == nil {
			t.Errorf("connection %d has no generator", c.ID)
		}
	}
	if _, err := n.Info(phit.ConnID(9999)); err == nil {
		t.Error("Info accepted unknown connection")
	}
}

func TestAsynchronousSmallMeetsRequirements(t *testing.T) {
	m, uc := smallUseCase(t, 6)
	cfg := Config{Mode: Asynchronous, PhaseSeed: 13, PPM: 200}
	n, err := Build(m, uc, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rep := n.Run(6000, 30000)
	if !rep.AllMet() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("requirements violated:\n%s", b.String())
	}
	if !rep.AllWithinBound() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("analytical latency bound violated:\n%s", b.String())
	}
}
