package backend

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/phit"
	"repro/internal/routerless"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// recSink records the full event stream as deterministic text, so two
// runs can be compared byte for byte.
type recSink struct{ buf bytes.Buffer }

func (s *recSink) Event(ev trace.Event) {
	fmt.Fprintf(&s.buf, "%d %d %d %d %d %d %d %d\n",
		ev.Time, ev.Ref, ev.Conn, ev.Seq, ev.Arg, ev.Comp, ev.Slot, ev.Kind)
}

// runnable is the slice of behaviour the equivalence check needs; both
// the direct constructors' networks and seam Instances satisfy it.
type runnable interface {
	AttachTracer(bus *trace.Bus)
	Run(warmupNs, measureNs float64) *core.Report
}

// observation is everything externally visible about one run: the
// rendered report, the metrics JSON and the raw event stream.
type observation struct {
	report  []byte
	metrics []byte
	events  []byte
}

// observe runs n under a fresh bus with a recording sink and a metrics
// aggregator attached, capturing all three observable surfaces.
func observe(t *testing.T, n runnable, freqMHz float64) observation {
	t.Helper()
	bus := trace.NewBus()
	rec := &recSink{}
	bus.Attach(rec)
	met := trace.NewMetrics(bus)
	n.AttachTracer(bus)
	rep := n.Run(2000, 8000)
	var report bytes.Buffer
	rep.Write(&report)
	var mjson bytes.Buffer
	if err := met.Report(0, int64(clock.PeriodFromMHz(freqMHz))).WriteJSON(&mjson); err != nil {
		t.Fatal(err)
	}
	return observation{report: report.Bytes(), metrics: mjson.Bytes(), events: rec.buf.Bytes()}
}

// testWorkload regenerates the same scenario from scratch: a use case is
// never shared across builds, so each side of an equivalence check gets
// its own copy from the same seed.
func testWorkload(t *testing.T, seed int64) (*topology.Mesh, *spec.UseCase, scenario.Config) {
	t.Helper()
	cfg := scenario.Default(scenario.Uniform, 3, 3, 8, seed)
	s, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Mesh(), s.UseCase, cfg
}

// requireIdentical asserts two observations agree on every surface.
func requireIdentical(t *testing.T, direct, seam observation) {
	t.Helper()
	if len(direct.events) == 0 {
		t.Fatal("direct run emitted no events; the comparison would be vacuous")
	}
	if !bytes.Equal(direct.report, seam.report) {
		t.Errorf("reports differ:\n-- direct --\n%s\n-- seam --\n%s", direct.report, seam.report)
	}
	if !bytes.Equal(direct.metrics, seam.metrics) {
		t.Error("metrics JSON differs between direct and seam builds")
	}
	if !bytes.Equal(direct.events, seam.events) {
		t.Error("event streams differ between direct and seam builds")
	}
}

// TestAeliteSeamEquivalence is the refactor's no-observable-change
// gate: a same-seed aelite run built through the backend seam must be
// byte-identical to one built through core.Build
// directly — reports, metrics JSON and event streams — in all three
// clocking modes.
func TestAeliteSeamEquivalence(t *testing.T) {
	const seed = 77
	for _, mode := range []core.Mode{core.Synchronous, core.Mesochronous, core.Asynchronous} {
		t.Run(mode.String(), func(t *testing.T) {
			m, uc, scfg := testWorkload(t, seed)
			cfg := core.Config{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes,
				TableSize: scfg.TableSize, Mode: mode}
			n, err := core.Build(m, uc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct := observe(t, n, scfg.FreqMHz)

			b, err := ByName("aelite")
			if err != nil {
				t.Fatal(err)
			}
			m2, uc2, _ := testWorkload(t, seed)
			inst, err := b.Build(m2, uc2, Params{FreqMHz: scfg.FreqMHz,
				WordBytes: scfg.WordBytes, TableSize: scfg.TableSize, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, direct, observe(t, inst, scfg.FreqMHz))
		})
	}
}

// TestAetherealSeamEquivalence checks the GS+BE baseline the same way:
// a zero-field Params build must match a zero-config core.BuildBE, with
// only the frequency forwarded, so ApplyDefaults resolves identically
// on both sides.
func TestAetherealSeamEquivalence(t *testing.T) {
	const seed = 78
	m, uc, scfg := testWorkload(t, seed)
	n, err := core.BuildBE(m, uc, core.Config{FreqMHz: scfg.FreqMHz})
	if err != nil {
		t.Fatal(err)
	}
	direct := observe(t, n, scfg.FreqMHz)

	b, err := ByName("aethereal")
	if err != nil {
		t.Fatal(err)
	}
	m2, uc2, _ := testWorkload(t, seed)
	inst, err := b.Build(m2, uc2, Params{FreqMHz: scfg.FreqMHz})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, direct, observe(t, inst, scfg.FreqMHz))
}

// TestRouterlessSeamEquivalence checks the ring overlay through the
// seam against routerless.Build directly.
func TestRouterlessSeamEquivalence(t *testing.T) {
	const seed = 79
	m, uc, scfg := testWorkload(t, seed)
	n, err := routerless.Build(m, uc, core.Config{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes})
	if err != nil {
		t.Fatal(err)
	}
	direct := observe(t, n, scfg.FreqMHz)

	b, err := ByName("routerless")
	if err != nil {
		t.Fatal(err)
	}
	m2, uc2, _ := testWorkload(t, seed)
	inst, err := b.Build(m2, uc2, Params{FreqMHz: scfg.FreqMHz, WordBytes: scfg.WordBytes})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, direct, observe(t, inst, scfg.FreqMHz))
}

// TestSingleClockBackendsRejectOtherModes pins the seam's mode
// validation: the baseline and the ring overlay are single-clock, so a
// mesochronous or asynchronous Params must fail the build, not silently
// build a synchronous network.
func TestSingleClockBackendsRejectOtherModes(t *testing.T) {
	for _, name := range []string{"aethereal", "routerless"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, uc, scfg := testWorkload(t, 80)
		if _, err := b.Build(m, uc, Params{FreqMHz: scfg.FreqMHz, Mode: core.Mesochronous}); err == nil {
			t.Errorf("%s accepted a mesochronous build", name)
		}
	}
}

// TestByNameUnknownListsValid pins the usage-diagnostic contract: the
// error carries every registered name so CLIs can surface it verbatim.
func TestByNameUnknownListsValid(t *testing.T) {
	_, err := ByName("warp-drive")
	if err == nil {
		t.Fatal("unknown backend resolved")
	}
	for _, want := range []string{"aelite", "aethereal", "routerless"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
	names := Names()
	if len(names) != 3 || names[0] != "aelite" || names[1] != "aethereal" || names[2] != "routerless" {
		t.Errorf("Names() = %v", names)
	}
	for _, name := range names {
		if b, err := ByName(name); err != nil || b.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, b, err)
		}
	}
}

// generatorOf reaches a connection's traffic generator behind the seam.
func generatorOf(inst Instance, id phit.ConnID) *traffic.Generator {
	switch i := inst.(type) {
	case *aeliteInstance:
		return i.n.Generator(id)
	case *aetherealInstance:
		return i.n.Generator(id)
	case *routerlessInstance:
		return i.n.Generator(id)
	}
	return nil
}

// TestBackendsOfferSameLoad holds the three backends to the paper's
// Section VII premise — same mapping, same offered load: built from one
// use case with transactional traffic, every connection's generator
// offers the same words on every fabric. The rates span all three
// transaction-size classes, and the window ends after every generator's
// first transaction and before any second one, so the count is exactly
// the transaction size. (The ring overlay used to size transactions by its
// own rate/10 rule: 6, 12 and 20 words where the routed fabrics sent 8, 8
// and 16.)
func TestBackendsOfferSameLoad(t *testing.T) {
	// The subtest keeps the name it had when the fabrics were also compared
	// under a bursty shape; transactional traffic is the one shape left.
	t.Run("tx=true,burst=0", func(t *testing.T) {
		rates := []float64{20, 30, 60, 120, 160, 200}
		workload := func() (*topology.Mesh, *spec.UseCase) {
			m := topology.NewMesh(3, 3, 1)
			uc := &spec.UseCase{Name: "offered", Apps: 1}
			for i := 0; i < 9; i++ {
				uc.IPs = append(uc.IPs, spec.IP{ID: spec.IPID(i), Name: fmt.Sprintf("ip%d", i), NI: m.NIAt(i%3, i/3, 0)})
			}
			for i, r := range rates {
				uc.Connections = append(uc.Connections, spec.Connection{
					ID: phit.ConnID(i + 1), Src: spec.IPID(i), Dst: spec.IPID((i + 4) % 9),
					BandwidthMBps: r, MaxLatencyNs: 4000,
				})
			}
			return m, uc
		}
		const windowCycles = 100
		offered := make(map[string][]int64)
		for _, name := range Names() {
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, uc := workload()
			inst, err := b.Build(m, uc, Params{Transactional: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bus := trace.NewBus()
			met := trace.NewMetrics(bus)
			inst.AttachTracer(bus)
			inst.Engine().Run(windowCycles * clock.Time(clock.PeriodFromMHz(500)))
			for _, c := range uc.Connections {
				if generatorOf(inst, c.ID).Rejected() != 0 {
					t.Fatalf("%s: connection %d was back-pressured; the window no longer isolates the offered load", name, c.ID)
				}
				var injected int64
				if cm := met.Conn(c.ID); cm != nil {
					injected = cm.Injected
				}
				offered[name] = append(offered[name], injected)
			}
		}
		for i, r := range rates {
			want := offered["aelite"][i]
			if want != int64(traffic.TxWordsForRate(r)) {
				t.Errorf("aelite offered %d words at %.0f MB/s, want one %d-word transaction", want, r, traffic.TxWordsForRate(r))
			}
			for _, name := range Names() {
				if got := offered[name][i]; got != want {
					t.Errorf("connection %d (%.0f MB/s): %s was offered %d words, aelite %d", i+1, r, name, got, want)
				}
			}
		}
	})
}
