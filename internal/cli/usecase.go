package cli

import (
	"errors"
	"flag"
	"fmt"

	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
)

// UseCaseFlags is the flag group that names a mesh and the use case to
// map onto it: -spec | -random | -scenario -conns, with -seed, -cols,
// -rows, -nis and -freq. aelite-sim and aelite-alloc share it, so the two
// build the same workload from the same command line.
type UseCaseFlags struct {
	Spec     string
	Random   int
	Scenario string
	Conns    int
	Seed     int64
	Cols     int
	Rows     int
	NIs      int
	FreqMHz  float64
}

// Register declares the group's flags on fs.
func (f *UseCaseFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Spec, "spec", "", "use-case JSON (see internal/spec)")
	fs.IntVar(&f.Random, "random", 0, "generate this many random connections")
	fs.StringVar(&f.Scenario, "scenario", "", "generated workload family: uniform|hotspot|transpose|multimedia|dataflow")
	fs.IntVar(&f.Conns, "conns", 0, "connection count for -scenario")
	fs.Int64Var(&f.Seed, "seed", 1, "seed for -random/-scenario")
	fs.IntVar(&f.Cols, "cols", 4, "mesh columns")
	fs.IntVar(&f.Rows, "rows", 3, "mesh rows")
	fs.IntVar(&f.NIs, "nis", 4, "NIs per router")
	fs.Float64Var(&f.FreqMHz, "freq", 500, "frequency in MHz")
}

// Validate rejects a malformed group before anything is built; the error
// is a usage error (exit 2).
func (f *UseCaseFlags) Validate() error {
	if f.Cols < 1 || f.Rows < 1 || f.NIs < 1 {
		return fmt.Errorf("mesh dimensions must be at least 1 (-cols %d -rows %d -nis %d)", f.Cols, f.Rows, f.NIs)
	}
	if f.FreqMHz <= 0 {
		return fmt.Errorf("-freq %g must be positive", f.FreqMHz)
	}
	if f.Random < 0 {
		return fmt.Errorf("-random %d must be positive", f.Random)
	}
	if f.Scenario != "" {
		if _, err := scenario.ParseFamily(f.Scenario); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
		if f.Spec != "" || f.Random > 0 {
			return errors.New("-scenario excludes -spec and -random")
		}
		if f.Conns < 1 {
			return fmt.Errorf("-scenario needs -conns >= 1 (got %d)", f.Conns)
		}
	} else if f.Conns != 0 {
		return errors.New("-conns applies only with -scenario")
	}
	if f.Spec == "" && f.Random == 0 && f.Scenario == "" {
		return errors.New("need -spec, -random or -scenario")
	}
	return nil
}

// Build assembles the mesh and the mapped use case of a validated group,
// with the header layout and word width the mesh diameter needs (the
// worst minimal route visits cols+rows-1 routers). A non-zero tableSize
// is the slot-table size a generated scenario sizes its rates for. Every
// run builds its own: a use case is mutated during mapping and build-time
// budget negotiation, so it must never be shared across engines.
func (f *UseCaseFlags) Build(tableSize int) (m *topology.Mesh, uc *spec.UseCase, layout phit.HeaderLayout, wordBytes int, err error) {
	hops := f.Cols + f.Rows - 1
	layout, wordBytes, ok := phit.LayoutFor(hops)
	if !ok {
		return nil, nil, layout, 0, fmt.Errorf(
			"a %dx%d mesh needs %d-hop headers; the widest layout encodes %d (allocation-only planning via aelite-exp scale has no such cap)",
			f.Cols, f.Rows, hops, layout.MaxHops())
	}
	if uc, err = f.useCase(wordBytes, tableSize); err != nil {
		return nil, nil, layout, 0, err
	}
	m = topology.NewMesh(f.Cols, f.Rows, f.NIs)
	for _, ip := range uc.IPs {
		if ip.NI == topology.Invalid {
			spec.MapIPsByTraffic(uc, m)
			break
		}
	}
	return m, uc, layout, wordBytes, nil
}

// useCase generates, loads or draws the use case the group names.
func (f *UseCaseFlags) useCase(wordBytes, tableSize int) (*spec.UseCase, error) {
	switch {
	case f.Scenario != "":
		fam, err := scenario.ParseFamily(f.Scenario)
		if err != nil {
			return nil, err
		}
		cfg := scenario.Default(fam, f.Cols, f.Rows, f.Conns, f.Seed)
		cfg.NIsPerRouter = f.NIs
		cfg.FreqMHz = f.FreqMHz
		// Quantisation must target the word width the network will
		// actually run at (the wide layout carries 8-byte words).
		cfg.WordBytes = wordBytes
		if tableSize != 0 {
			cfg.TableSize = tableSize
		}
		s, err := scenario.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return s.UseCase, nil
	case f.Spec != "":
		return spec.Load(f.Spec)
	default:
		return spec.Random(spec.RandomConfig{
			Name: "random", Seed: f.Seed,
			IPs: f.Cols * f.Rows * f.NIs, Apps: 4, Conns: f.Random,
			MinRateMBps: 10, MaxRateMBps: 300, HeavyFraction: 0.1, HeavyMinRateMBps: 40,
			MinLatencyNs: 150, MaxLatencyNs: 900,
		}), nil
	}
}
