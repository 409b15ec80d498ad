// Multimedia: a hand-written set-top-box-style SoC — the kind of system
// the Æthereal/aelite line was designed for (the paper's introduction
// motivates exactly this integration problem).
//
// Four independent applications share one aelite NoC:
//
//	video   — decoder pipeline streaming from memory through processing
//	          stages to a display controller (heavy, deadline-critical);
//	audio   — decode and output (light, tight jitter);
//	record  — encoder writing back to memory;
//	control — a host CPU touching everything (sparse, latency-sensitive).
//
// Each application is allocated, verified and guaranteed in isolation;
// running them together changes nothing — that is what composability buys
// the system integrator.
//
// Run with:
//
//	go run ./examples/multimedia
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/audit"
	"repro/internal/core"
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
	// App 0: video pipeline (heavy streams, display has a hard deadline).
	conn(1, 0, 1, 2, 180, 400) // ddr -> vdec: compressed stream
	conn(2, 0, 2, 3, 240, 400) // vdec -> vproc: decoded frames
	conn(3, 0, 3, 4, 260, 300) // vproc -> display: scan-out
	conn(4, 0, 2, 1, 120, 500) // vdec -> ddr: reference frames
	// App 1: audio (light but jitter-sensitive).
	conn(5, 1, 1, 5, 24, 350) // ddr -> adec
	conn(6, 1, 5, 6, 16, 300) // adec -> aout
	// App 2: record path.
	conn(7, 2, 8, 7, 140, 600) // tuner -> venc
	conn(8, 2, 7, 1, 90, 600)  // venc -> ddr
	// App 3: control.
	conn(9, 3, 0, 1, 30, 250)  // cpu -> ddr
	conn(10, 3, 1, 0, 30, 250) // ddr -> cpu
	conn(11, 3, 0, 9, 12, 400) // cpu -> dma descriptors

	if err := uc.Validate(); err != nil {
		log.Fatal(err)
	}
	spec.MapIPsByTraffic(uc, mesh)

	cfg := core.Config{FreqMHz: 500, Mode: core.Mesochronous, Transactional: true}
	net, err := core.Build(mesh, uc, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// A strict auditor checks every flit against its slots and bound
	// live, and halts at the first violation.
	bus := trace.NewBus()
	auditor := audit.Attach(net, bus, nil, audit.Options{})
	net.AttachTracer(bus)

	fmt.Printf("set-top-box SoC: %d IPs, %d connections, 4 applications\n", len(uc.IPs), len(uc.Connections))
	fmt.Printf("mesochronous aelite at 500 MHz, slot table %d\n\n", net.Cfg.TableSize)
	fmt.Println("per-application guarantees (from allocation, before any simulation):")
	names := []string{"video", "audio", "record", "control"}
	for a := 0; a < 4; a++ {
		fmt.Printf("  %s:\n", names[a])
		for _, c := range uc.ConnectionsOfApp(spec.AppID(a)) {
			info, err := net.Info(c.ID)
			if err != nil {
				log.Fatal(err)
			}
			srcIP, _ := uc.IP(c.Src)
			dstIP, _ := uc.IP(c.Dst)
			fmt.Printf("    %-8s > %-8s %6.0f MB/s guaranteed (%4.0f needed), bound %5.0f ns (%4.0f allowed)\n",
				srcIP.Name, dstIP.Name, info.GuaranteedMBps, c.BandwidthMBps, info.BoundNs, c.MaxLatencyNs)
		}
	}

	rep := net.Run(10000, 80000)
	fmt.Println("\nsimulated 80 µs with transactional (bursty) traffic:")
	rep.Write(os.Stdout)
	if !rep.AllMet() || !rep.AllWithinBound() {
		fmt.Println("VIOLATIONS — guarantees must hold")
		os.Exit(1)
	}
	fmt.Println("\nevery application meets its contract; each could have been signed off in isolation")

	// Use-case transition (the reconfiguration capability of reference
	// [16]): the user stops recording and starts a game. The record
	// application's connections are closed — drained, then their slots
	// released — and the game's connection is admitted into the freed
	// capacity, all while video, audio and control keep running with
	// their timing untouched.
	fmt.Println("\n== use-case transition: stop recording, start a game ==")
	for _, c := range uc.ConnectionsOfApp(2) {
		if err := net.CloseConnection(c.ID); err != nil {
			log.Fatal(err)
		}
	}
	game := spec.Connection{
		ID: 100, App: 2, Src: 1, Dst: 9, // ddr -> dma (texture streaming)
		BandwidthMBps: 200, MaxLatencyNs: 500,
	}
	d, err := net.Admit(game)
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		log.Fatal(err)
	}
	auditor.Resync(net)                               // the auditor now holds the new schedule
	net.Engine().Run(net.Engine().Now() + 60000*1000) // 60 µs more
	net.Engine().Sync()                               // land replayed state before reading it
	info, err := net.Info(game.ID)
	if err != nil {
		log.Fatal(err)
	}
	st := net.NIOf(mustIP(uc, game.Dst).NI).InStats(game.ID)
	fmt.Printf("game stream admitted: %d slots, %.0f MB/s guaranteed, delivered %d words, max latency %.0f ns (bound %.0f)\n",
		len(info.Slots), info.GuaranteedMBps, st.Delivered, st.Latency.Max(), info.BoundNs)
	fmt.Println("video/audio/control never noticed — slot ownership is the only shared state")
}

func mustIP(uc *spec.UseCase, id spec.IPID) spec.IP {
	ip, err := uc.IP(id)
	if err != nil {
		log.Fatal(err)
	}
	return ip
}
