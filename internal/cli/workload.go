package cli

import (
	"flag"

	"repro/internal/backend"
)

// RegisterWorkload declares the flags that fill w on fs: -spec | -random |
// -scenario -conns, with -seed, -cols, -rows, -nis and -freq. aelite-sim
// and aelite-alloc share them, so the two read the same command line into
// the same workload.
func RegisterWorkload(fs *flag.FlagSet, w *backend.Workload) {
	fs.StringVar(&w.Spec, "spec", "", "use-case JSON (see internal/spec)")
	fs.IntVar(&w.Random, "random", 0, "generate this many random connections")
	fs.StringVar(&w.Scenario, "scenario", "", "generated workload family: uniform|hotspot|transpose|multimedia|dataflow")
	fs.IntVar(&w.Conns, "conns", 0, "connection count for -scenario")
	fs.Int64Var(&w.Seed, "seed", 1, "seed for -random/-scenario")
	fs.IntVar(&w.Cols, "cols", 4, "mesh columns")
	fs.IntVar(&w.Rows, "rows", 3, "mesh rows")
	fs.IntVar(&w.NIs, "nis", 4, "NIs per router")
	fs.Float64Var(&w.FreqMHz, "freq", 500, "frequency in MHz")
}
