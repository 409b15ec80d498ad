// Use-case switching: the paper's set-top-box scenario taken through
// online reconfiguration — the run-time half of the contract the design
// flow establishes offline (reference [16]'s "undisrupted
// quality-of-service during reconfiguration").
//
// Three acts, one live network, no rebuilds:
//
//  1. Admission control — "can this connection be opened now?" answered
//     with typed, machine-readable decisions: an admissible request gets
//     its full guarantees, an inadmissible one a reason (bound-infeasible,
//     no-slots, ...) and the network is left untouched.
//  2. Use-case transition — the user stops recording and starts a game:
//     the record application's connections drain and release their slots,
//     the game's stream is admitted into the freed capacity, and the
//     running applications never notice.
//  3. Self-healing — a router-to-router link on the game's path starts
//     dropping every flit; the reliability shell quarantines the stream,
//     and the healer reroutes it over links clear of the fault, measuring
//     the service interruption.
//
// Run with:
//
//	go run ./examples/usecaseswitch
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/phit"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	mesh := topology.NewMesh(3, 2, 2) // 6 routers, 12 NIs

	ip := func(id int, name string) spec.IP {
		return spec.IP{ID: spec.IPID(id), Name: name, NI: topology.Invalid}
	}
	uc := &spec.UseCase{
		Name: "set-top-box",
		Apps: 4,
		IPs: []spec.IP{
			ip(0, "cpu"), ip(1, "ddr"), ip(2, "vdec"), ip(3, "vproc"),
			ip(4, "display"), ip(5, "adec"), ip(6, "aout"), ip(7, "venc"),
			ip(8, "tuner"), ip(9, "dma"),
		},
	}
	conn := func(id int, app int, src, dst int, mbps, latNs float64) {
		uc.Connections = append(uc.Connections, spec.Connection{
			ID: phit.ConnID(id), App: spec.AppID(app), Src: spec.IPID(src), Dst: spec.IPID(dst),
			BandwidthMBps: mbps, MaxLatencyNs: latNs,
		})
	}
	// App 0: video pipeline. App 1: audio. App 2: record. App 3: control.
	// Lighter than the multimedia example: the reliability shell spends
	// part of each flit on CRC words, and act 3 needs spare slots to
	// reroute into.
	conn(1, 0, 1, 2, 90, 500)  // ddr -> vdec
	conn(2, 0, 2, 3, 120, 500) // vdec -> vproc
	conn(3, 0, 3, 4, 130, 400) // vproc -> display
	conn(4, 1, 1, 5, 24, 500)  // ddr -> adec
	conn(5, 1, 5, 6, 16, 500)  // adec -> aout
	conn(6, 2, 8, 7, 70, 800)  // tuner -> venc
	conn(7, 2, 7, 1, 45, 800)  // venc -> ddr
	conn(8, 3, 0, 1, 15, 400)  // cpu -> ddr
	conn(9, 3, 1, 0, 15, 400)  // ddr -> cpu

	if err := uc.Validate(); err != nil {
		log.Fatal(err)
	}
	spec.MapIPsByTraffic(uc, mesh)

	// Reliable build with a tight retry budget: act 3 needs a hard fault
	// to quarantine quickly. The collector keeps expected campaign
	// violations from killing the run.
	col := fault.NewCollector()
	cfg := core.Config{FreqMHz: 500, Mode: core.Mesochronous,
		Reliable: true, RetryBudget: 2, FaultReporter: col}
	net, err := core.Build(mesh, uc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bus := trace.NewBus()
	mx := trace.NewMetrics(bus)
	net.AttachTracer(bus)
	healer := core.NewHealer(net, bus)

	fmt.Printf("set-top-box SoC: %d IPs, %d connections, reliable mesochronous aelite at 500 MHz, table %d\n",
		len(uc.IPs), len(uc.Connections), net.Cfg.TableSize)

	// -- Act 1: admission control ------------------------------------
	fmt.Println("\n== act 1: admission control (nothing is changed by asking) ==")
	show := func(label string, d core.Decision) {
		if d.Admissible {
			fmt.Printf("  %-34s ADMISSIBLE: %.0f MB/s guaranteed, bound %.0f ns, %d+%d slots\n",
				label, d.GuaranteeMBps, d.LatencyBoundNs, d.DataSlots, d.RevSlots)
			return
		}
		fmt.Printf("  %-34s rejected: %s\n", label, d.Reason)
	}
	game := spec.Connection{ID: net.FreshConnID(), App: 2, Src: 1, Dst: 9, // ddr -> dma textures
		BandwidthMBps: 90, MaxLatencyNs: 900}
	show("game stream 90 MB/s", net.Probe(game))
	greedy := game
	greedy.BandwidthMBps = 1200
	show("game stream 1200 MB/s", net.Probe(greedy))
	impatient := game
	impatient.MaxLatencyNs = 20
	show("game stream, 20 ns budget", net.Probe(impatient))

	// -- Act 2: use-case transition ----------------------------------
	fmt.Println("\n== act 2: stop recording, start the game ==")
	rep, err := net.RunTimed(10000, 60000, []core.TimedAction{
		{AtNs: 20000, Do: func(n *core.Network) error {
			for _, c := range uc.ConnectionsOfApp(2) {
				if err := n.CloseConnection(c.ID); err != nil {
					return err
				}
				fmt.Printf("  closed %s (connection %d): drained, slots released\n", "record", c.ID)
			}
			game.ID = n.FreshConnID()
			d, err := n.Admit(game)
			if err != nil {
				return err
			}
			show("game stream admitted mid-run", d)
			return nil
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if !rep.AllMet() {
		fmt.Println("VIOLATIONS — survivors must keep their guarantees")
		rep.Write(os.Stdout)
		os.Exit(1)
	}
	fmt.Println("  video, audio and control met every guarantee across the switch")

	// -- Act 3: self-healing reroute ---------------------------------
	fmt.Println("\n== act 3: a link on the game's path fails hard ==")
	links, err := net.ConnectionLinks(game.ID)
	if err != nil {
		log.Fatal(err)
	}
	var faulty topology.LinkID
	faultyName := ""
	for _, l := range links {
		lk := net.Mesh.Link(l)
		if net.Mesh.Node(lk.From).Kind == topology.Router && net.Mesh.Node(lk.To).Kind == topology.Router {
			faulty = l
			faultyName = fmt.Sprintf("%s>%s", net.Mesh.Node(lk.From).Name, net.Mesh.Node(lk.To).Name)
			break
		}
	}
	if faultyName == "" {
		log.Fatal("game stream crosses no router-to-router link; nothing to heal around")
	}
	plan := &fault.Plan{Seed: 1, Rates: []fault.RateRule{
		{Target: fmt.Sprintf("l%d.", faulty), Drop: 1},
	}}
	campaign := fault.NewCampaign(plan, col)
	if err := campaign.Arm(net.Engine(), net.FaultTargets()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s now drops every flit\n", faultyName)

	// Drive the healer between engine segments until the reroute lands.
	if _, err := net.RunTimed(0, 40000, []core.TimedAction{
		{AtNs: 10000, Do: heal(healer)},
		{AtNs: 20000, Do: heal(healer)},
		{AtNs: 30000, Do: heal(healer)},
	}); err != nil {
		log.Fatal(err)
	}
	reroutes := 0
	for _, h := range healer.Reports() {
		if !h.Rerouted {
			fmt.Printf("  connection %d degraded gracefully: %s\n", h.Victim, h.Decision.Reason)
			continue
		}
		reroutes++
		cm := mx.Conn(h.Origin)
		fmt.Printf("  connection %d quarantined, rerouted as %d clear of %s: recovery %.1f ns (metrics: %d reroutes)\n",
			h.Victim, h.Replacement, faultyName, h.RecoveryNs, cm.Reroutes)
	}
	if reroutes == 0 {
		log.Fatal("the hard fault triggered no reroute")
	}
	fmt.Println("\nadmission asked, transition switched, fault healed: every connection crossing the" +
		"\ndead link was rerouted (or degraded gracefully, alone) — everyone else never noticed")
}

// heal adapts the healer to a RunTimed action.
func heal(h *core.Healer) func(*core.Network) error {
	return func(*core.Network) error {
		_, err := h.Heal()
		return err
	}
}
