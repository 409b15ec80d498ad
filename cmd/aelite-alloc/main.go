// Command aelite-alloc runs the design flow up to slot allocation for a
// use case: route every connection, size its TDM reservation from its
// requirements, allocate contention-free slots, and print the resulting
// tables, guarantees and link utilisation.
//
// Usage:
//
//	aelite-alloc -spec usecase.json [-cols 4 -rows 3 -nis 4] [flags]
//	aelite-alloc -random N [flags]        (N random connections instead)
//	aelite-alloc -scenario FAMILY -conns N [flags]   (generated workload)
//
// Flags:
//
//	-freq MHZ    network frequency (default 500)
//	-table N     slot-table size (default: search)
//	-mode M      synchronous | mesochronous | asynchronous
//	-alloc A     slot allocator: greedy | ripup (default greedy)
//	-scenario F  generated workload family: uniform | hotspot | transpose |
//	             multimedia | dataflow (see internal/scenario)
//	-conns N     connection count for -scenario
//	-tables      print every NI's slot table
//	-pprof F     write a CPU profile of the allocation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/routerless"
	"repro/internal/slots"
	"repro/internal/spec"
	"repro/internal/topology"
)

// tool names this command in every cli diagnostic.
const tool = "aelite-alloc"

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout))
}

// mainCode is main without the process: it parses and validates args,
// allocates, prints to stdout and returns the exit code.
func mainCode(args []string, stdout io.Writer) int {
	var w backend.Workload
	var profile cli.Profile
	fs := flag.NewFlagSet(tool, flag.ExitOnError)
	cli.RegisterWorkload(fs, &w)
	profile.Register(fs)
	table := fs.Int("table", 0, "TDM table size (0 = search)")
	modeF := fs.String("mode", "synchronous", "clocking: synchronous|mesochronous|asynchronous")
	alloc := fs.String("alloc", "greedy", "slot allocator: greedy | ripup")
	printTables := fs.Bool("tables", false, "print per-NI slot tables")
	backendF := fs.String("backend", "aelite", "aelite | routerless (ring/slot allocation instead of TDM tables)")
	fs.Parse(args) // ExitOnError: a malformed flag exits 2 inside Parse

	// Malformed invocations are rejected up front with one-line
	// diagnostics and exit code 2, matching aelite-sim's contract.
	usage := func(err error) int { return cli.Usage(tool, err) }
	if err := w.Validate(); err != nil {
		return usage(err)
	}
	if *table < 0 {
		return usage(fmt.Errorf("-table %d must not be negative (0 = search)", *table))
	}
	if _, err := slots.ByName(*alloc); err != nil {
		return usage(fmt.Errorf("-alloc: %w", err))
	}
	mode, err := core.ParseMode(*modeF)
	if err != nil {
		return usage(err)
	}
	if *backendF != "aelite" && *backendF != "routerless" {
		// Allocation inspection exists for slot-scheduled fabrics; the
		// best-effort baseline has no reservations to print.
		return usage(fmt.Errorf("unknown backend %q (aelite | routerless)", *backendF))
	}
	if *backendF == "routerless" && mode != core.Synchronous {
		return usage(fmt.Errorf("-backend routerless is single-clock; -mode %s needs the aelite backend", mode))
	}

	stopProfile, err := profile.Start()
	if err != nil {
		return cli.Failure(tool, err)
	}
	defer stopProfile()

	if _, _, err := w.Layout(); err != nil {
		return cli.Failure(tool, fmt.Errorf("%w (allocation-only planning via aelite-exp scale has no such cap)", err))
	}
	m, u, cfg, _, err := w.Build(*table)
	if err != nil {
		return cli.Failure(tool, err)
	}
	cfg.Allocator, cfg.Mode = *alloc, mode
	if *backendF == "routerless" {
		err = allocateRings(stdout, m, u, cfg)
	} else {
		err = allocateTDM(stdout, m, u, cfg, *printTables)
	}
	if err != nil {
		return cli.Failure(tool, err)
	}
	return cli.ExitOK
}

// header prints the line that opens either allocation view.
func header(w io.Writer, m *topology.Mesh, uc *spec.UseCase) {
	fmt.Fprintf(w, "use case %q: %d IPs, %d connections on a %dx%d mesh (%d NIs/router)\n",
		uc.Name, len(uc.IPs), len(uc.Connections), m.Cols, m.Rows, m.NIsPerRouter)
}

// allocateRings prints the routerless overlay's ring/slot allocation.
func allocateRings(w io.Writer, m *topology.Mesh, uc *spec.UseCase, cfg core.Config) error {
	n, err := routerless.Build(m, uc, cfg)
	if err != nil {
		return err
	}
	header(w, m, uc)
	fmt.Fprintf(w, "routerless ring overlay, %.0f MHz, %d rings\n\n", cfg.FreqMHz, n.Rings())
	fmt.Fprintf(w, "%6s %9s %9s %9s %6s %5s\n", "conn", "reqMB/s", "gntMB/s", "boundNs", "slots", "hops")
	for _, c := range uc.Connections {
		info, err := n.Info(c.ID)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %9.1f %9.1f %9.1f %6d %5d\n",
			c.ID, c.BandwidthMBps, info.GuaranteedMBps, info.BoundNs,
			len(info.Slots), info.PathHops)
	}
	fmt.Fprintln(w, "\nring occupancy:")
	n.WriteRings(w)
	return nil
}

// allocateTDM prints the aelite slot allocation: per-connection
// guarantees, the busiest links and (with tables) every NI's slot table.
func allocateTDM(w io.Writer, m *topology.Mesh, uc *spec.UseCase, cfg core.Config, tables bool) error {
	n, err := core.Build(m, uc, cfg)
	if err != nil {
		return err
	}

	header(w, m, uc)
	fmt.Fprintf(w, "mode %s, %.0f MHz, slot table %d, allocator %s\n\n", cfg.Mode, cfg.FreqMHz, n.Cfg.TableSize, cfg.Allocator)

	fmt.Fprintf(w, "%6s %9s %9s %9s %6s %5s %8s\n", "conn", "reqMB/s", "gntMB/s", "boundNs", "slots", "hops", "recvCap")
	for _, c := range uc.Connections {
		info, err := n.Info(c.ID)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %9.1f %9.1f %9.1f %6d %5d %8d\n",
			c.ID, c.BandwidthMBps, info.GuaranteedMBps, info.BoundNs,
			len(info.Slots), info.PathHops, info.RecvCapacity)
	}

	// Link utilisation summary.
	type lu struct {
		id   topology.LinkID
		util float64
	}
	var lus []lu
	for _, l := range m.Links() {
		lus = append(lus, lu{l.ID, n.Alloc.LinkUtilisation(l.ID)})
	}
	sort.Slice(lus, func(i, j int) bool { return lus[i].util > lus[j].util })
	fmt.Fprintln(w, "\nbusiest links:")
	for i := 0; i < 10 && i < len(lus); i++ {
		l := m.Link(lus[i].id)
		fmt.Fprintf(w, "  %-24s %5.1f%%\n",
			m.Node(l.From).Name+" > "+m.Node(l.To).Name, lus[i].util*100)
	}

	if tables {
		fmt.Fprintln(w, "\nNI slot tables:")
		for _, id := range m.AllNIs() {
			t := n.Alloc.NITable(id)
			fmt.Fprintf(w, "  %-10s %v\n", m.Node(id).Name, t.Slots)
		}
	}
	return nil
}
