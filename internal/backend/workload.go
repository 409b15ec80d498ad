package backend

import (
	"errors"
	"fmt"

	"repro/internal/phit"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
)

// A Workload names a mesh and the use case to map onto it: a use-case file
// (Spec), Random connections drawn at Seed, or a generated Scenario family
// of Conns connections at Seed, on a Cols x Rows mesh of NIs NIs per
// router clocked at FreqMHz. aelite-sim and aelite-alloc fill it from their
// flags, serve from a job spec, and the scale and compare studies from
// their configs, so every driver turns the same description into the same
// mesh, use case, header layout and word width. A Scenario workload with
// zero NIs or FreqMHz keeps the generator's defaults.
type Workload struct {
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

// Validate rejects a malformed workload before anything is built. Its
// errors name each field by the command-line flag that sets it, since a
// command line is the one source that can be malformed in these ways.
func (w *Workload) Validate() error {
	if w.Cols < 1 || w.Rows < 1 || w.NIs < 1 {
		return fmt.Errorf("mesh dimensions must be at least 1 (-cols %d -rows %d -nis %d)", w.Cols, w.Rows, w.NIs)
	}
	if w.FreqMHz <= 0 {
		return fmt.Errorf("-freq %g must be positive", w.FreqMHz)
	}
	if w.Random < 0 {
		return fmt.Errorf("-random %d must be positive", w.Random)
	}
	if w.Scenario != "" {
		if _, err := scenario.ParseFamily(w.Scenario); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
		if w.Spec != "" || w.Random > 0 {
			return errors.New("-scenario excludes -spec and -random")
		}
		if w.Conns < 1 {
			return fmt.Errorf("-scenario needs -conns >= 1 (got %d)", w.Conns)
		}
	} else if w.Conns != 0 {
		return errors.New("-conns applies only with -scenario")
	}
	if w.Spec == "" && w.Random == 0 && w.Scenario == "" {
		return errors.New("need -spec, -random or -scenario")
	}
	return nil
}

// Layout returns the header layout and word width the mesh diameter needs
// (the worst minimal route visits Cols+Rows-1 routers), and an error when
// even the widest layout cannot encode that route: such a mesh can be
// planned with UncappedPaths but not built.
func (w *Workload) Layout() (layout phit.HeaderLayout, wordBytes int, err error) {
	hops := w.Cols + w.Rows - 1
	layout, wordBytes, ok := phit.LayoutFor(hops)
	if !ok {
		err = fmt.Errorf("a %dx%d mesh needs %d-hop headers; the widest layout encodes %d",
			w.Cols, w.Rows, hops, layout.MaxHops())
	}
	return layout, wordBytes, err
}

// Build assembles the mesh and the mapped use case, and the Params fields
// the workload fixes: the header layout and word width of Layout, FreqMHz,
// and TableSize = tableSize. runnable reports whether that layout can run
// (Layout's error is nil). A non-zero tableSize is also the slot-table
// size a generated scenario sizes its rates for. Every run builds its own:
// a use case is mutated during mapping and build-time budget negotiation,
// so it must never be shared across engines.
func (w *Workload) Build(tableSize int) (m *topology.Mesh, uc *spec.UseCase, p Params, runnable bool, err error) {
	layout, wordBytes, lerr := w.Layout()
	p = Params{Layout: layout, WordBytes: wordBytes, FreqMHz: w.FreqMHz, TableSize: tableSize}
	nis := w.NIs
	switch {
	case w.Scenario != "":
		// Quantisation must target the word width the network will
		// actually run at (the wide layout carries 8-byte words). Zero
		// fields keep the generator's defaults.
		s, err := scenario.Generate(scenario.Config{Family: scenario.Family(w.Scenario), Seed: w.Seed,
			Cols: w.Cols, Rows: w.Rows, NIsPerRouter: w.NIs, Conns: w.Conns,
			FreqMHz: w.FreqMHz, WordBytes: wordBytes, TableSize: tableSize})
		if err != nil {
			return nil, nil, p, false, err
		}
		uc, nis, p.FreqMHz = s.UseCase, s.Cfg.NIsPerRouter, s.Cfg.FreqMHz
	case w.Spec != "":
		if uc, err = spec.Load(w.Spec); err != nil {
			return nil, nil, p, false, err
		}
	default:
		uc = spec.Random(spec.RandomConfig{
			Name: "random", Seed: w.Seed,
			IPs: w.Cols * w.Rows * w.NIs, Apps: 4, Conns: w.Random,
			MinRateMBps: 10, MaxRateMBps: 300, HeavyFraction: 0.1, HeavyMinRateMBps: 40,
			MinLatencyNs: 150, MaxLatencyNs: 900,
		})
	}
	m = topology.NewMesh(w.Cols, w.Rows, nis)
	for _, ip := range uc.IPs {
		if ip.NI == topology.Invalid {
			spec.MapIPsByTraffic(uc, m)
			break
		}
	}
	return m, uc, p, lerr == nil, nil
}
