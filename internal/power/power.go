package power

import (
	"fmt"
	"sort"

	"repro/internal/area"
	"repro/internal/phit"
	"repro/internal/slots"
	"repro/internal/topology"
)

// Calibration constants (90 nm low power).
const (
	// IdlePowerDensity is clock+register idle power per µm² of cell
	// area at 500 MHz, in µW/µm². ~0.015 gives ~215 µW for the
	// 14.3 kµm² arity-5 router — in line with published 90 nm NoC
	// router figures (fractions of a mW idle).
	IdlePowerDensity = 0.015
	// ReferenceMHz is the frequency the density is quoted at; idle
	// power scales linearly with frequency.
	ReferenceMHz = 500.0
	// WordEnergyPJ is the dynamic energy per 32-bit word traversing one
	// router (switch, wiring); ~1 pJ/word/hop at 90 nm.
	WordEnergyPJ = 1.0
	// LinkStageWordEnergyPJ is the dynamic energy per word through a
	// mesochronous link pipeline stage (FIFO write + read).
	LinkStageWordEnergyPJ = 0.4
	// SleepResidual is the fraction of idle power a sleeping router
	// still burns (wake logic, leakage).
	SleepResidual = 0.15
)

// RouterReport is the power breakdown of one router.
type RouterReport struct {
	Router topology.NodeID
	Name   string
	// AwakeFraction is the fraction of TDM slots in which at least one
	// link through this router carries a reservation (the router must
	// be clocked then; in every other slot it may sleep — the schedule
	// guarantees nothing arrives).
	AwakeFraction float64
	// IdleUW is the always-on clock power without sleep modes, µW.
	IdleUW float64
	// SleepUW is the clock power with per-slot clock gating, µW.
	SleepUW float64
	// DynamicUW is the traffic-dependent switching power at the
	// allocated (guaranteed) load, µW.
	DynamicUW float64
}

// NetworkReport aggregates the mesh.
type NetworkReport struct {
	Routers []RouterReport
	// Totals in µW.
	IdleUW, SleepUW, DynamicUW float64
	// SavingFraction is 1 - with-sleep/always-on for the clock power.
	SavingFraction float64
}

// Analyze computes the power report for an allocated network: arityOf
// gives each router's port count (for the area model), widthBits the
// data width and fMHz the operating frequency. Traffic is taken at the
// allocation's guaranteed load — the upper bound the schedule admits.
func Analyze(m *topology.Mesh, alloc *slots.Allocation, widthBits int, fMHz float64) *NetworkReport {
	rep := &NetworkReport{}
	freqScale := fMHz / ReferenceMHz
	for _, r := range m.Routers() {
		node := m.Node(r)
		a := area.RouterArea(node.Ports, widthBits, fMHz)
		idle := IdlePowerDensity * a * freqScale

		// Awake slots: union over all links touching the router of
		// their occupied slots, shifted to the router's local frame.
		// A router must be awake in slot s when an input delivers a
		// flit in s (it processes it over the following flit cycle) —
		// we take the conservative union of input and output
		// occupancy.
		awake := make([]bool, alloc.TableSize)
		words := 0.0
		for p := 0; p < node.Ports; p++ {
			for _, lid := range []topology.LinkID{m.InLink(r, p), m.OutLink(r, p)} {
				if lid == topology.Invalid {
					continue
				}
				for s := 0; s < alloc.TableSize; s++ {
					if alloc.LinkOwner(lid, s) != phit.None {
						awake[s] = true
					}
				}
			}
			if lid := m.OutLink(r, p); lid != topology.Invalid {
				words += alloc.LinkUtilisation(lid) * float64(alloc.TableSize)
			}
		}
		n := 0
		for _, w := range awake {
			if w {
				n++
			}
		}
		frac := float64(n) / float64(alloc.TableSize)

		// Dynamic: words per second = occupied slots × FlitWords words
		// per revolution; revolutions/s = f/(3*S).
		revPerSec := fMHz * 1e6 / float64(phit.FlitWords*alloc.TableSize)
		wordsPerSec := words * float64(phit.FlitWords) * revPerSec
		dynUW := wordsPerSec * WordEnergyPJ * 1e-12 * 1e6 * float64(widthBits) / 32

		rr := RouterReport{
			Router:        r,
			Name:          node.Name,
			AwakeFraction: frac,
			IdleUW:        idle,
			SleepUW:       idle * (frac + (1-frac)*SleepResidual),
			DynamicUW:     dynUW,
		}
		rep.Routers = append(rep.Routers, rr)
		rep.IdleUW += rr.IdleUW
		rep.SleepUW += rr.SleepUW
		rep.DynamicUW += rr.DynamicUW
	}
	sort.Slice(rep.Routers, func(i, j int) bool { return rep.Routers[i].Router < rep.Routers[j].Router })
	if rep.IdleUW > 0 {
		rep.SavingFraction = 1 - rep.SleepUW/rep.IdleUW
	}
	return rep
}

func (r *NetworkReport) String() string {
	return fmt.Sprintf("power: idle %.0f µW, with sleep %.0f µW (%.0f%% clock-power saving), dynamic %.0f µW",
		r.IdleUW, r.SleepUW, r.SavingFraction*100, r.DynamicUW)
}
