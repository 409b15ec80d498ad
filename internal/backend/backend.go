// Package backend is the seam between network implementations and
// everything that drives them: a Backend builds a runnable network from
// the same spec+mapping inputs, attaches trace emitters to the shared
// event bus, exposes per-backend analytical bounds to the conformance
// auditor where they exist, and reports in the shared core.Report shape.
// The CLIs, the N-backend comparison study and the serve control plane
// all select networks through the registry here, so a new fabric model
// plugs into every experiment by registering one adapter.
package backend

import (
	"fmt"
	"strings"

	"repro/internal/area"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/routerless"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params is core.Config itself, not a copy of some of its fields: every
// backend is built from the one parameter set the aelite core defines, so
// a driver fills it once and a knob cannot exist on one side of the seam
// only. A backend takes the fields it models and rejects the modes it
// cannot run; zero fields take each backend's own defaults (the
// paper-wide 32-bit words at 500 MHz), so the seam adds none of its own.
type Params = core.Config

// An Instance is one built, runnable network of any backend.
type Instance interface {
	// Backend names the backend that built this instance.
	Backend() string
	// AttachTracer installs the shared event bus; nil detaches.
	AttachTracer(bus *trace.Bus)
	// Audit subscribes the conformance auditor to the instance's
	// analytical contracts and returns it, or nil when the backend has
	// none to check (best-effort service has no bounds — that is the
	// point of the comparison).
	Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor
	// Run simulates warm-up, clears statistics, measures, and reports.
	Run(warmupNs, measureNs float64) *core.Report
	// Engine exposes the simulation engine, for the simulated time and
	// edge count a driver reports.
	Engine() *sim.Engine
	// AreaUm2 estimates the fabric's silicon cost from the paper's area
	// model, for the comparison tables.
	AreaUm2() float64
}

// A Backend builds network instances from spec+mapping inputs.
type Backend interface {
	// Name is the registry key (also the CLI -backend value).
	Name() string
	// HasBounds reports whether built instances carry analytical
	// latency bounds (and therefore support auditing).
	HasBounds() bool
	// Build assembles a runnable network for the use case on the mesh.
	// The use case must be validated and its IPs mapped.
	Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error)
}

// backends is every backend, sorted by name: the fabrics are fixed at
// compile time, so the registry is a table.
var backends = []Backend{aeliteBackend{}, aetherealBackend{}, routerlessBackend{}}

// ByName resolves a backend by name. The error lists the valid names so a
// CLI can surface it as a one-line usage diagnostic.
func ByName(name string) (Backend, error) {
	for _, b := range backends {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(Names(), " | "))
}

// Names returns the backend names, sorted.
func Names() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return names
}

// routerArity is the mesh router arity: four mesh ports plus one per NI.
func routerArity(m *topology.Mesh) int { return 4 + m.NIsPerRouter }

// ---- aelite ----

// aeliteBackend wraps the TDM core: core.Build on the caller's Params
// untouched, so a seam-built aelite network is byte-identical to a
// directly built one.
type aeliteBackend struct{}

func (aeliteBackend) Name() string    { return "aelite" }
func (aeliteBackend) HasBounds() bool { return true }

func (aeliteBackend) Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error) {
	n, err := core.Build(m, uc, p)
	if err != nil {
		return nil, err
	}
	return &aeliteInstance{n: n}, nil
}

type aeliteInstance struct{ n *core.Network }

func (i *aeliteInstance) Backend() string               { return "aelite" }
func (i *aeliteInstance) Network() *core.Network        { return i.n }
func (i *aeliteInstance) Engine() *sim.Engine           { return i.n.Engine() }
func (i *aeliteInstance) AttachTracer(bus *trace.Bus)   { i.n.AttachTracer(bus) }
func (i *aeliteInstance) Run(w, m float64) *core.Report { return i.n.Run(w, m) }
func (i *aeliteInstance) Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor {
	return audit.Attach(i.n, bus, rep, opts)
}

func (i *aeliteInstance) AreaUm2() float64 {
	arity := routerArity(i.n.Mesh)
	bits := i.n.Cfg.WordBytes * 8
	per := area.RouterArea(arity, bits, i.n.Cfg.FreqMHz)
	if i.n.Cfg.Mode == core.Mesochronous {
		per = area.MesochronousRouterArea(arity, bits, i.n.Cfg.FreqMHz, true)
	}
	return float64(len(i.n.Mesh.Routers())) * per
}

// ---- aethereal (GS+BE baseline) ----

// aetherealBackend wraps the Æthereal best-effort wormhole network. It
// is globally synchronous and carries no analytical bounds.
type aetherealBackend struct{}

func (aetherealBackend) Name() string    { return "aethereal" }
func (aetherealBackend) HasBounds() bool { return false }

func (aetherealBackend) Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error) {
	if p.Mode != core.Synchronous {
		return nil, fmt.Errorf("backend aethereal: the Æthereal baseline is globally synchronous (got mode %s)", p.Mode)
	}
	n, err := core.BuildBE(m, uc, p)
	if err != nil {
		return nil, err
	}
	return &aetherealInstance{n: n}, nil
}

type aetherealInstance struct{ n *core.BENetwork }

func (i *aetherealInstance) Backend() string               { return "aethereal" }
func (i *aetherealInstance) Network() *core.BENetwork      { return i.n }
func (i *aetherealInstance) Engine() *sim.Engine           { return i.n.Engine() }
func (i *aetherealInstance) AttachTracer(bus *trace.Bus)   { i.n.AttachTracer(bus) }
func (i *aetherealInstance) Run(w, m float64) *core.Report { return i.n.Run(w, m) }
func (i *aetherealInstance) Audit(*trace.Bus, fault.Reporter, audit.Options) *audit.Auditor {
	return nil // best effort: no contracts to audit
}

func (i *aetherealInstance) AreaUm2() float64 {
	arity := routerArity(i.n.Mesh)
	bits := i.n.Cfg.WordBytes * 8
	return float64(len(i.n.Mesh.Routers())) * area.GSBERouterArea(arity, bits)
}

// ---- routerless ring overlay ----

// routerlessBackend wraps the Indrusiak & Burns-style ring overlay.
type routerlessBackend struct{}

func (routerlessBackend) Name() string    { return "routerless" }
func (routerlessBackend) HasBounds() bool { return true }

func (routerlessBackend) Build(m *topology.Mesh, uc *spec.UseCase, p Params) (Instance, error) {
	if p.Mode != core.Synchronous {
		return nil, fmt.Errorf("backend routerless: the ring overlay is single-clock (got mode %s)", p.Mode)
	}
	n, err := routerless.Build(m, uc, p)
	if err != nil {
		return nil, err
	}
	return &routerlessInstance{n: n}, nil
}

type routerlessInstance struct{ n *routerless.Network }

func (i *routerlessInstance) Backend() string               { return "routerless" }
func (i *routerlessInstance) Network() *routerless.Network  { return i.n }
func (i *routerlessInstance) Engine() *sim.Engine           { return i.n.Engine() }
func (i *routerlessInstance) AttachTracer(bus *trace.Bus)   { i.n.AttachTracer(bus) }
func (i *routerlessInstance) Run(w, m float64) *core.Report { return i.n.Run(w, m) }
func (i *routerlessInstance) AreaUm2() float64              { return i.n.AreaUm2() }
func (i *routerlessInstance) Audit(bus *trace.Bus, rep fault.Reporter, opts audit.Options) *audit.Auditor {
	return audit.Attach(i.n, bus, rep, opts)
}
